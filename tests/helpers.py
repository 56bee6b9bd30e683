"""Shared independent oracles for the test suite.

These deliberately avoid the library's own lockstep-morphism and
normal-form code paths: the string tables walk whole strings off f and e
(`string_table`), the path-model reads take eps, phi and weights
from Littelmann paths over Fraction (`f_path`), the oracle of the library's
integer lowering walks, the string readers apply the tensor rule in closed
form, the signature rule writes the tensor rule out sign by sign,
transport replays an explicit lowering word, the truncation oracle realizes
shift operators as finite 0/1 matrices and `act` applies them to one basis
vector, the monomial expansion and product rewrite operators into shift
monomials T^a T*^b, the slot-by-slot generator tensors one operator element
per letter, the exhaustive R1/R2 multiplies out both halves of every
relation the adjoint pairs up, the exhaustive KP2 multiplies every composable pair of path operators, the
exhaustive KP3 every pair of same-degree path operators, and the exhaustive
KP4 and grading build S_e at every degree, composite ones included.  The
scanned slice tests every (vertex, element) pair of a degree against every
colour's Cartan matching, and the dict export dumps Python dicts of the
public path view (`export_json_dicts`), where the library writes its
records from the slice rows.  The Cartan braiding on products of irreducibles
is the hexagon oracle: it moves each operand into the standalone crystal of
its component, braids there and moves back, where the library composes
adjacent pair tables.  Row reduction over Fraction (rank and inverse) is the
oracle of the library's fraction-free integer rank, and the bilinear form
over Fraction serves the braiding oracles.  The Weyl group enumerated
breadth-first (`weyl_bfs`) is the oracle of the order and longest word the
library reads off the root datum, and its elements' words lower B(rho_C) to
the Weyl vertices (`weyl_vertex_map`).  The right ends walk each element of
B(rho_C) into B(rho_C - theta) x B(theta) (`right_ends`), where the library
inverts one Cartan projection per colour.  The hexagon at highest-weight
elements (`hexagon_at_tops`) evaluates `_hexagon`'s chain at the tops of
B(nu) x B(mu) only.
"""

import functools
import json
import random
from collections import deque
from fractions import Fraction
from itertools import permutations, product as iter_product

from crystalgraphs.braiding import cartan_projection, pair_braiding
from crystalgraphs.crystal import (
    Crystal,
    canonical_morphism,
    highest_weight_crystal,
    tensor_of,
)
from crystalgraphs.hrgraph import GraphPath
from crystalgraphs.rootdata import add_weights, neg_weights, sub_weights
from crystalgraphs.toeplitz import OperatorElement, string_slot


def _row_reduce(rows):
    """Gauss-Jordan elimination over Fraction: the reduced row echelon form
    and the rank."""
    work = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return work, rank


def invert_rational(matrix):
    """Invert a square matrix by row reducing (matrix | identity); raises
    ValueError on a singular matrix."""
    n = len(matrix)
    reduced, _ = _row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    )
    # a singular matrix leaves a pivot in the identity half
    if any(row[i] != 1 for i, row in enumerate(reduced)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def rational_rank(rows):
    """Rank of a matrix given as a list of rows, over Fraction: the oracle of
    `rootdata.integer_rank`."""
    return _row_reduce(rows)[1]


@functools.cache
def gram(datum):
    """(varpi_i, varpi_j) over Fraction, from the inverse Cartan matrix and
    the symmetrizers."""
    ainv = invert_rational(datum.cartan_matrix)
    d = datum.symmetrizers
    return tuple(
        tuple(d[j] * ainv[j][i] for j in range(datum.rank)) for i in range(datum.rank)
    )


def bilinear(datum, mu, nu):
    """The invariant bilinear form, normalized so short roots have
    (alpha, alpha) = 2."""
    g = gram(datum)
    return sum(
        (mu[i] * nu[j] * g[i][j] for i in range(datum.rank) for j in range(datum.rank)),
        Fraction(0),
    )


class WeylBFS:
    """A finite Weyl group enumerated by breadth-first closure of simple
    reflections, each element stored as the images of the fundamental weights
    with its lexicographically least reduced word; the last element found is
    the longest.  The oracle of `rootdata.weyl_group`'s closed forms."""

    def __init__(self, datum):
        self.datum = datum
        elements = [(datum.fundamental_weights, ())]
        seen = {datum.fundamental_weights}
        for images, word in elements:  # elements grows as it is read
            for i in datum.colours:
                # (w s_i)(varpi_j) differs from w(varpi_j) only at j = i
                w_alpha = self.apply_images(images, datum.simple_root(i))
                moved = list(images)
                moved[i - 1] = sub_weights(moved[i - 1], w_alpha)
                moved = tuple(moved)
                if moved not in seen:
                    seen.add(moved)
                    elements.append((moved, word + (i,)))
        self.elements = tuple(elements)
        self.longest = len(elements) - 1

    @property
    def order(self):
        return len(self.elements)

    @property
    def longest_word(self):
        return self.elements[self.longest][1]

    def apply_images(self, images, weight):
        rank = self.datum.rank
        return tuple(sum(weight[j] * images[j][i] for j in range(rank)) for i in range(rank))

    def apply(self, k, weight):
        return self.apply_images(self.elements[k][0], weight)

    def word_action(self, word):
        """Images of the fundamental weights under s_{i_1} ... s_{i_k}."""
        images = list(self.datum.fundamental_weights)
        for i in reversed(word):
            images = [self.datum.reflect(w, i) for w in images]
        return tuple(images)

    def stabilizer_order(self, weight):
        return sum(1 for k in range(self.order) if self.apply(k, weight) == weight)


@functools.cache
def weyl_bfs(datum):
    return WeylBFS(datum)


def right_ends(crystal, b, weights):
    """For each mu in weights, the B(mu)-factor of the element b of
    crystal = B(lam) under the embedding of B(lam) into B(lam-mu) (x) B(mu);
    None when b is None.  The oracle of the graph's vertices, which the
    library reads off the inverse Cartan projections instead: this walks from
    the crystal into the product, one element at a time."""
    if b is None:
        return None
    datum = crystal.datum
    lam = crystal.highest_weight
    ends = []
    for mu in weights:
        nu = sub_weights(lam, mu)
        if not datum.is_dominant(nu):
            raise ValueError(f"difference {nu} of {lam} and {mu} is not dominant")
        ends.append(canonical_morphism(crystal, tensor_of(datum, (nu, mu)))[b][1])
    return tuple(ends)


def weyl_vertex_map(graph):
    """Map each Weyl group element w (by its index in `weyl_bfs`) to the
    right-end tuple of the extremal element of weight w(rho_C), found by
    lowering the top of B(rho_C) along w's stored word; checks that the map
    is injective on cosets of the stabilizer of rho_C."""
    group = weyl_bfs(graph.datum)
    rho = graph.colours.rho
    crystal = highest_weight_crystal(graph.datum, rho)
    out = {}
    for k, (_, word) in enumerate(group.elements):
        b = crystal.highest
        for i in reversed(word):
            for _ in range(crystal.phi(i, b)):
                b = crystal.f(i, b)
        out[k] = right_ends(crystal, b, graph.colours.colours)
    if len(set(out.values())) != group.order // group.stabilizer_order(rho):
        raise RuntimeError("Weyl vertex map is not injective on cosets")
    return out


def _to_q(v):
    return tuple(Fraction(x) for x in v)


def _same_ray(u, v):
    # u = c*v with c > 0, for nonzero u, v
    k = next((i for i, x in enumerate(v) if x != 0), None)
    if k is None or u[k] == 0:
        return False
    c = Fraction(u[k], 1) / v[k]
    if c <= 0:
        return False
    return all(a == c * b for a, b in zip(u, v))


def _chain_from_steps(steps):
    """A Littelmann path as its chain of turning points (the origin
    implicit), in canonical form: no zero steps and no two consecutive steps
    along the same ray, so equal paths are equal tuples."""
    merged = []
    for u in steps:
        if all(x == 0 for x in u):
            continue
        if merged and _same_ray(u, merged[-1]):
            merged[-1] = tuple(a + b for a, b in zip(merged[-1], u))
        else:
            merged.append(u)
    points = []
    cur = None
    for u in merged:
        cur = u if cur is None else tuple(a + b for a, b in zip(cur, u))
        points.append(cur)
    return tuple(points)


def _breakpoints(chain, rank):
    origin = (Fraction(0),) * rank
    return (origin,) + chain


def _rebuild(datum, pts, reflected, after, i):
    """Assemble a chain from three runs of breakpoints; steps into the middle
    run are reflected by s_i (the tail translation is implicit)."""
    seq = [(p, False) for p in pts] + [(p, True) for p in reflected] + [
        (p, False) for p in after
    ]
    steps = []
    for (prev, _), (cur, refl) in zip(seq, seq[1:]):
        u = tuple(a - b for a, b in zip(cur, prev))
        if refl:
            u = datum.reflect(u, i)
        steps.append(u)
    return _chain_from_steps(steps)


def f_path(datum, i, chain):
    """Littelmann's lowering root operator on a path; None when it vanishes."""
    pts = _breakpoints(chain, datum.rank)
    hs = [p[i - 1] for p in pts]
    m = min(hs)
    if hs[-1] - m < 1:
        return None
    target = m + 1
    k0 = max(k for k, h in enumerate(hs) if h == m)
    kk = next(k for k in range(k0 + 1, len(hs)) if hs[k] >= target)
    if hs[kk] == target:
        return _rebuild(datum, pts[: k0 + 1], pts[k0 + 1 : kk + 1], pts[kk + 1 :], i)
    theta = (target - hs[kk - 1]) / (hs[kk] - hs[kk - 1])
    cut = tuple(a + theta * (b - a) for a, b in zip(pts[kk - 1], pts[kk]))
    return _rebuild(datum, pts[: k0 + 1], list(pts[k0 + 1 : kk]) + [cut], pts[kk:], i)


def _min_level(chain, i):
    m = Fraction(0)
    for p in chain:
        if p[i - 1] < m:
            m = p[i - 1]
    return m


def path_weight(chain, rank):
    """The endpoint of a path, which must be integral."""
    if not chain:
        return (0,) * rank
    end = chain[-1]
    if any(x.denominator != 1 for x in end):
        raise ValueError(f"path ends at the non-integral weight {end}")
    return tuple(int(x) for x in end)


def eps_path(chain, i):
    """Minus the lowest level the path reaches in colour i."""
    m = _min_level(chain, i)
    if m.denominator != 1:
        raise ValueError(f"path has the non-integral minimum {m} in colour {i}")
    return -int(m)


def phi_path(chain, i):
    """How far the path ends above its lowest level in colour i."""
    m = _min_level(chain, i)
    last = chain[-1][i - 1] if chain else Fraction(0)
    val = last - m
    if val.denominator != 1:
        raise ValueError(f"path has the non-integral rise {val} in colour {i}")
    return int(val)


def string_table(crystal_like, i):
    """The i-strings of a crystal or tensor product, walked off f and e
    alone: (lines, data), each string from its top down, the tops (no e_i)
    taken in element order, and per element its (string id, position from
    the top, string length)."""
    lines, data = [], {}
    for top in crystal_like.elements():
        if crystal_like.e(i, top) is not None:
            continue
        line = [top]
        while (b := crystal_like.f(i, line[-1])) is not None:
            line.append(b)
        for pos, b in enumerate(line):
            data[b] = (len(lines), pos, len(line) - 1)
        lines.append(line)
    return lines, data


def path_model_reads(datum, lam):
    """B(lam) read off Littelmann paths alone, numbered in breadth-first
    order from the straight-line path with colours in increasing order:
    {"f": {(i, b): f_i b}, "weight": [...], "eps"/"phi": {(i, b): value},
    "string_table": {i: (lines, data) as `string_table(crystal, i)` returns
    it}}.  Every endpoint and every eps/phi must be integral."""
    seed = _chain_from_steps([_to_q(lam)])
    chains, index, f = [seed], {seed: 1}, {}
    for b, chain in enumerate(chains, start=1):  # chains grows as it is read
        for i in datum.colours:
            lower = f_path(datum, i, chain)
            if lower is not None:
                if lower not in index:
                    chains.append(lower)
                    index[lower] = len(chains)
                f[i, b] = index[lower]
    elements = range(1, len(chains) + 1)
    eps = {(i, b): eps_path(chains[b - 1], i) for i in datum.colours for b in elements}
    phi = {(i, b): phi_path(chains[b - 1], i) for i in datum.colours for b in elements}
    lines, data = {}, {}
    for i in datum.colours:
        lines[i], data[i] = [], {}
        for top in elements:
            if eps[i, top] == 0:
                line = [top]
                while (i, line[-1]) in f:
                    line.append(f[i, line[-1]])
                for pos, b in enumerate(line):
                    data[i][b] = (len(lines[i]), eps[i, b], eps[i, b] + phi[i, b])
                lines[i].append(line)
    return {
        "f": f,
        "weight": [path_weight(chain, datum.rank) for chain in chains],
        "eps": eps,
        "phi": phi,
        "string_table": {i: (lines[i], data[i]) for i in datum.colours},
    }


def cartan_project(tc, t):
    """Indicator of the Cartan component of a tensor product together with
    the image under the unique surjective morphism onto the crystal of the
    total highest weight; (0, None) off it and on None."""
    image = canonical_morphism(tc, highest_weight_crystal(tc.datum, tc.highest_weight)).get(t)
    return (0, None) if image is None else (1, image)


def sl2_limit(m, i, j, rank=0):
    """The one-slot element with the string coefficient `string_slot(m, i, j)`."""
    slot = string_slot(m, i, j)
    terms = {} if slot is None else {slot + (0,) * rank: 1}
    return OperatorElement(1, rank, terms)


def slot_strings(m1, m2):
    """The strings of B(m1) x B(m2), the tensor square of two strings of
    lengths m1 and m2 with elements named by their positions from the top,
    in closed form: per pair of positions, (string id, position from the top,
    string length).  Walking down from a top (0, p2), f acts on the first
    factor while its distance to the bottom exceeds the second factor's
    distance to the top, then on the second."""
    out = {}
    for sid in range(min(m1, m2) + 1):
        line = [(p1, sid) for p1 in range(m1 - sid + 1)]
        line += [(m1 - sid, p2) for p2 in range(sid + 1, m2 + 1)]
        for pos, x in enumerate(line):
            out[x] = (sid, pos, len(line) - 1)
    return out


def transport(src, src_hw, dst, dst_hw, x):
    """Replay a lowering word from src_hw to x starting at dst_hw."""
    prev = {src_hw: None}
    queue = deque([src_hw])
    while queue:
        cur = queue.popleft()
        for i in src.datum.colours:
            nxt = src.f(i, cur)
            if nxt is not None and nxt not in prev:
                prev[nxt] = (cur, i)
                queue.append(nxt)
    word = []
    cur = x
    while prev[cur] is not None:
        cur, i = prev[cur]
        word.append(i)
    y = dst_hw
    for i in reversed(word):
        y = dst.f(i, y)
        assert y is not None
    return y


def component_sizes(tc):
    """Connected components via union-find, as sorted (highest weight, size,
    highest-weight element) triples."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for t in tc.elements():
        parent[t] = t
    for t in tc.elements():
        for i in tc.datum.colours:
            nxt = tc.f(i, t)
            if nxt is not None:
                union(t, nxt)
    groups = {}
    for t in tc.elements():
        groups.setdefault(find(t), []).append(t)
    out = []
    for members in groups.values():
        tops = [
            x
            for x in members
            if all(tc.eps(i, x) == 0 for i in tc.datum.colours)
        ]
        assert len(tops) == 1
        out.append((tc.weight(tops[0]), len(members), tops[0]))
    return sorted(out)


def raise_to_top(crystal_like, x):
    """The highest-weight element of the component of x: apply raising
    operators until none applies."""
    colours = crystal_like.datum.colours
    while True:
        for i in colours:
            y = crystal_like.e(i, x)
            if y is not None:
                x = y
                break
        else:
            return x


def lowest(crystal):
    """The one element of an irreducible crystal with every phi_i zero."""
    lows = [
        b for b in crystal.elements() if all(crystal.phi(i, b) == 0 for i in crystal.datum.colours)
    ]
    assert len(lows) == 1, f"{crystal!r} has {len(lows)} lowest-weight elements"
    return lows[0]


def _standardize(crystal_like, element):
    """(weight of the component of element, element in the standalone crystal
    of that weight, the map into it or None for an irreducible)."""
    if isinstance(crystal_like, Crystal):
        return crystal_like.highest_weight, element, None
    top = raise_to_top(crystal_like, element)
    mu = crystal_like.weight(top)
    to_std = canonical_morphism(
        crystal_like, highest_weight_crystal(crystal_like.datum, mu), top
    )
    return mu, to_std[element], to_std


def _restore(to_std, element):
    """The flat tuple of factors that the map to_std sends to element."""
    if to_std is None:
        return (element,)
    return next(x for x, y in to_std.items() if y == element)


def cartan_braiding(B, Bp, b, bp):
    """Braiding of products of irreducibles, evaluated at b (x) bp: a flat
    tuple over the factors of Bp followed by those of B, or None.  With
    (lam, lamp) the highest weights of B and Bp and (mu, mup) those of the
    components of b and bp, the value is zero unless (mu, mup) and
    (lam, lamp) pair alike, and otherwise the pair table of (mu, mup)
    transported along the component identifications."""
    if b is None or bp is None:
        return None
    datum = B.datum
    if Bp.datum != datum:
        raise ValueError("braiding operands live over different root data")
    mu, x, back = _standardize(B, b)
    mup, xp, backp = _standardize(Bp, bp)
    if bilinear(datum, mu, mup) != bilinear(datum, B.highest_weight, Bp.highest_weight):
        return None
    image = pair_braiding(datum, mu, mup).get((x, xp))
    if image is None:
        return None
    yp, y = image
    return _restore(backp, yp) + _restore(back, y)


def left_end(crystal, b, mu):
    """The B(mu)-factor of b under the embedding of B(lam) into
    B(mu) (x) B(lam-mu), for an irreducible crystal B(lam)."""
    datum = crystal.datum
    pair = tensor_of(datum, (mu, sub_weights(crystal.highest_weight, mu)))
    return canonical_morphism(crystal, pair)[b][0]


def signature_rule(tc, i, t):
    """(eps_i, phi_i, f_i t, e_i t) of an element t of a tensor product, by
    the signature rule written out sign by sign: factor k contributes
    eps_i minus signs then phi_i plus signs, read off its own crystal; every
    adjacent (+, -) pair cancels; f_i lowers the factor of the leftmost
    plus left over and e_i raises the factor of the rightmost minus."""
    left = []  # the signs left over, always minuses then pluses
    for k, (c, b) in enumerate(zip(tc.factors, t)):
        for sign in "-" * c.eps(i, b) + "+" * c.phi(i, b):
            if sign == "-" and left and left[-1][0] == "+":
                left.pop()
            else:
                left.append((sign, k))
    minus = [k for sign, k in left if sign == "-"]
    plus = [k for sign, k in left if sign == "+"]

    def moved(k, step):
        return t[:k] + (step(i, t[k]),) + t[k + 1 :]

    f = moved(plus[0], tc.factors[plus[0]].f) if plus else None
    e = moved(minus[-1], tc.factors[minus[-1]].e) if minus else None
    return len(minus), len(plus), f, e


def projection_p0(rank=0):
    """P0 = 1 - T T*, the rank-one projection onto the bottom basis vector."""
    return OperatorElement.monomial(((0, 0, 1),), (0,) * rank)


def negative(op):
    """-op, its stored terms negated."""
    return OperatorElement(op.slots, op.rank, {key: -c for key, c in op.terms.items()})


def tensor(x, y):
    """x (x) y: the slots of x, then those of y; torus labels add."""
    if x.rank != y.rank:
        raise ValueError("tensor factors carry different torus ranks")
    cut1, cut2 = 3 * x.slots, 3 * y.slots
    out = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            key = k1[:cut1] + k2[:cut2] + tuple(p + q for p, q in zip(k1[cut1:], k2[cut2:]))
            out[key] = out.get(key, 0) + c1 * c2
    return OperatorElement(x.slots + y.slots, x.rank, {key: c for key, c in out.items() if c})


def expanded(op):
    """The monomial normal form of an OperatorElement: keys (a_1, b_1, ...,
    a_l, b_l, t_1, ..., t_r) over the linearly independent shift monomials
    T^a T*^b, by T^a P0 T*^b = T^a T*^b - T^(a+1) T*^(b+1); zero
    coefficients dropped.  Each P0 slot doubles the terms."""
    cut = 3 * op.slots
    out = {}
    for key, c in op.terms.items():
        partial = [((), c)]
        for s in range(0, cut, 3):
            a, b = key[s], key[s + 1]
            if key[s + 2]:
                partial = [(m + (a, b), x) for m, x in partial] + [
                    (m + (a + 1, b + 1), -x) for m, x in partial
                ]
            else:
                partial = [(m + (a, b), x) for m, x in partial]
        for m, x in partial:
            mono = m + key[cut:]
            out[mono] = out.get(mono, 0) + x
    return {mono: c for mono, c in out.items() if c}


def shift_product(x, y):
    """(T^a T*^b)(T^c T*^d) = T^(a+max(c-b,0)) T*^(d+max(b-c,0))."""
    a, b = x
    c, d = y
    if c >= b:
        return (a + c - b, d)
    return (a, d + b - c)


def shift_adjoint(x):
    return (x[1], x[0])


def monomial_product(x, y, slots):
    """Product of two shift-monomial normal forms, dicts keyed by
    (a_1, b_1, ..., a_l, b_l, t_1, ..., t_r) as `expanded` returns them; torus labels add and zero coefficients are dropped."""
    cut = 2 * slots
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            parts = []
            for s in range(0, cut, 2):
                parts += shift_product(k1[s : s + 2], k2[s : s + 2])
            key = tuple(parts) + tuple(p + q for p, q in zip(k1[cut:], k2[cut:]))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def monomial_matrix(mono, cutoff):
    """The truncated matrix of T^a T*^b on basis vectors e_0..e_{cutoff-1}."""
    a, b = mono
    matrix = [[0] * cutoff for _ in range(cutoff)]
    for n in range(b, cutoff):
        m = n - b + a
        if m < cutoff:
            matrix[m][n] = 1
    return matrix


def operator_matrix(op, cutoff):
    """Truncated matrix of an OperatorElement on the l-fold tensor basis,
    ignoring the torus label; indices are tuples of basis positions.

    Reads the stored keys (a, b, p) per slot directly: T^a T*^b sends e_n to
    e_(n-b+a) for n >= b, and T^a P0 T*^b is the single unit sending e_b to
    e_a."""
    slots = op.slots
    size = cutoff**slots
    matrix = [[0] * size for _ in range(size)]

    def flat(index):
        out = 0
        for x in index:
            out = out * cutoff + x
        return out

    for key, coeff in op.terms.items():
        factors = [key[3 * s : 3 * s + 3] for s in range(slots)]
        for col in iter_product(range(cutoff), repeat=slots):
            row = []
            ok = True
            for (a, b, p), n in zip(factors, col):
                if n < b or (p and n != b) or n - b + a >= cutoff:
                    ok = False
                    break
                row.append(n - b + a)
            if ok:
                matrix[flat(row)][flat(col)] += coeff
    return matrix


def act(op, n):
    """The image of the basis vector e_n of l2(N)^(x)l under an
    OperatorElement, as {(m, t): coefficient} over the vectors e_m with the
    torus label t of the term that reaches them.

    Reads the stored keys (a, b, p) slot by slot: T^a T*^b sends e_k to
    e_(k-b+a) when k >= b and to 0 otherwise, and T^a P0 T*^b sends e_k to
    e_a when k = b and to 0 otherwise.  Each term sends e_n to one vector or
    to 0, so the image is finite."""
    out = {}
    for key, coeff in op.terms.items():
        image = []
        for s, k in enumerate(n):
            a, b, p = key[3 * s : 3 * s + 3]
            if k < b or (p and k != b):
                break
            image.append(k - b + a)
        else:
            vector = (tuple(image), key[3 * op.slots :])
            out[vector] = out.get(vector, 0) + coeff
    return {vector: coeff for vector, coeff in out.items() if coeff}


def slotwise_generator(model, lam, a):
    """The f-generator image of the a-th element of B(lam), built one slot at
    a time: each letter i of the reduced word tensors the string coefficient
    sl2_limit onto every entry of the frontier of reached elements, and the
    image at the highest element is multiplied by the unit labelled lam."""
    crystal = highest_weight_crystal(model.datum, lam)
    frontier = {a: OperatorElement.unit(0, model.rank)}
    for i in model.word:
        lines, data = string_table(crystal, i)
        fresh = {}
        for k, acc in frontier.items():
            sid, pos, length = data[k]
            for new_pos in range(pos + 1):
                target = lines[sid][new_pos]
                term = tensor(acc, sl2_limit(length, pos, new_pos, model.rank))
                fresh[target] = fresh[target] + term if target in fresh else term
        frontier = fresh
    value = frontier.get(crystal.highest, OperatorElement.zero(model.length, model.rank))
    return value * OperatorElement.monomial(((0, 0),) * model.length, lam)


def braid_moved_word(datum, word, seed=0):
    """Another reduced word for the same Weyl element as `word`: a seeded
    random walk of braid moves (s_i s_j s_i ... = s_j s_i s_j ..., m_ij
    letters each) that never revisits a word, stopped when it has no fresh
    move or after 2 * len(word) moves."""
    a = datum.cartan_matrix
    order = {0: 2, 1: 3, 2: 4, 3: 6}  # m_ij from a_ij a_ji
    rng = random.Random(seed)
    word = tuple(word)
    seen = {word}
    for _ in range(2 * len(word)):
        moves = []
        for i, j in permutations(datum.colours, 2):
            m = order[a[i - 1][j - 1] * a[j - 1][i - 1]]
            side, other = ((i, j) * m)[:m], ((j, i) * m)[:m]
            for k in range(len(word) - m + 1):
                moved = word[:k] + other + word[k + m :]
                if word[k : k + m] == side and moved not in seen:
                    moves.append(moved)
        if not moves:
            break
        word = rng.choice(moves)
        seen.add(word)
    return word


def restriction_limit(crystal, i, a, b):
    """Limit of the (a, b) matrix coefficient restricted to the SU(2) of
    colour i: zero across different i-strings, a string coefficient within."""
    _, data = string_table(crystal, i)
    sid_a, pos_a, length = data[a]
    sid_b, pos_b, _ = data[b]
    rank = crystal.datum.rank
    if sid_a != sid_b:
        return OperatorElement.zero(1, rank)
    return sl2_limit(length, pos_a, pos_b, rank)


def component_strings(first, second, i):
    """The i-string reader of B(lam) x B(lam'), read off the string tables
    of the two factors by the tensor rule in closed form:
    with eps/phi the distances to the top and bottom of each factor's
    string, eps = eps1 + max(0, eps2 - phi1), and walking down the string
    f_i acts max(0, phi1 - eps2) times on the first factor, then on the
    second.  y -> (position of y from the top, string length, the string
    from y down)."""
    lines1, data1 = string_table(first, i)
    lines2, data2 = string_table(second, i)

    def below(y):
        y1, y2 = y
        sid1, eps1, length1 = data1[y1]
        sid2, eps2, length2 = data2[y2]
        phi1 = length1 - eps1
        moves = max(0, phi1 - eps2)
        top = eps1 + max(0, eps2 - phi1)
        line1 = lines1[sid1][eps1 : eps1 + moves + 1]
        low1 = line1[-1]
        string = [(x1, y2) for x1 in line1] + [(low1, x2) for x2 in lines2[sid2][eps2 + 1 :]]
        return top, top + len(string) - 1, string

    return below


def component_table(model, lam, lamp):
    """The f-images of the Cartan component C of B(lam) x B(lam'), keyed by
    its elements (i, j): the generator sweep over B(lam) x B(lam') from
    (1, 1), which stays inside C, with the torus label lam+lam'.  Elements
    the sweep does not reach have no key.

    By the rank-one slot lemma this is f_i f'_j term for term, so the R1
    certificate rests on it equalling pi0_generator(lam+lam', m) for the
    image m of (i, j) in B(lam+lam')."""
    pair = tensor_of(model.datum, (lam, lamp))
    reach = model._sweep(pair, add_weights(lam, lamp))
    return {x: OperatorElement(model.length, model.rank, terms) for x, terms in reach.items()}


def peelings(colours):
    """(nu_k, theta_k, nu_(k+1)) from k = N-1 down to 1, so nu_1 = rho_C,
    as the relation checks peel rho_C."""
    out = []
    rest = colours.colours[-1]
    for theta in reversed(colours.colours[:-1]):
        out.append((add_weights(theta, rest), theta, rest))
        rest = out[-1][0]
    return out


def hexagon_at_tops(model, colours):
    """The hexagon identity at the highest-weight elements only: for every
    peeling (nu, theta, rest) and relation weight mu, the forward chain of
    `_hexagon` at each highest-weight element (1, b) of B(nu) x B(mu), those
    with eps_i(b) <= <nu, alpha_i^vee> for every i, must equal
    sigma_{nu,mu}(1, b), and it must be (1, 1) exactly when b = 1.  Returns
    (cases, whether all hold)."""
    datum = model.datum
    cases, holds = 0, True
    for nu, theta, rest in peelings(colours):
        into = cartan_projection(datum, theta, rest)
        l1, l2 = next(pair for pair, m in into.items() if m == 1)
        for mu in model._relation_weights(colours):
            outer = pair_braiding(datum, theta, mu)
            inner = pair_braiding(datum, rest, mu)
            sigma = pair_braiding(datum, nu, mu)
            crystal = highest_weight_crystal(datum, mu)
            for b in crystal.elements():
                if any(crystal.eps(i, b) > nu[i - 1] for i in datum.colours):
                    continue
                cases += 1
                chain = inner.get((l2, b))
                if chain is not None:
                    k, i2 = chain
                    chain = outer.get((l1, k))
                    if chain is not None:
                        k, i1 = chain
                        top = into.get((i1, i2))
                        chain = None if top is None else (k, top)
                holds = holds and chain == sigma.get((1, b)) and (chain == (1, 1)) == (b == 1)
    return cases, holds


def exhaustive_relations(model, lams):
    """R1 and R2 over every ordered pair of weights in lams, with both the
    f- and the v-half of R1 and every (i, j) of R2 multiplied out, and R3
    (the sum of v_i f_i over B(lam) is 1) summed in full at every weight.
    Returns {"R1": (cases, failures), "R2": ..., "R3": ...}, each failure
    naming its case."""
    gen = model.pi0_generator
    datum = model.datum
    r1_cases, r1_failures = 0, []
    r2_cases, r2_failures = 0, []
    for lam, lamp in iter_product(lams, lams):
        pair = tensor_of(datum, (lam, lamp))
        total = add_weights(lam, lamp)
        for i, j in pair.elements():
            eta, m = cartan_project(pair, (i, j))
            for kind, product in [
                ("f", gen(lam, i, "f") * gen(lamp, j, "f")),
                ("v", gen(lamp, j, "v") * gen(lam, i, "v")),
            ]:
                r1_cases += 1
                if product != (gen(total, m, kind) if eta else model.zero):
                    r1_failures.append((kind, lam, lamp, i, j))
        table = pair_braiding(datum, lam, lamp)
        size = highest_weight_crystal(datum, lam).size
        sizep = highest_weight_crystal(datum, lamp).size
        for i in range(1, size + 1):
            for j in range(1, sizep + 1):
                rhs = model.zero
                for (l, jj), image in table.items():
                    if jj == j and image is not None and image[1] == i:
                        rhs = rhs + gen(lamp, image[0], "v") * gen(lam, l, "f")
                r2_cases += 1
                if gen(lam, i, "f") * gen(lamp, j, "v") != rhs:
                    r2_failures.append((lam, lamp, i, j))
    r3_failures = []
    for lam in lams:
        total = model.zero
        for i in range(1, highest_weight_crystal(datum, lam).size + 1):
            total = total + gen(lam, i, "v") * gen(lam, i, "f")
        if total != model.one:
            r3_failures.append(lam)
    return {
        "R1": (r1_cases, r1_failures),
        "R2": (r2_cases, r2_failures),
        "R3": (len(lams), r3_failures),
    }


def exhaustive_kp3(model, graph, bound):
    """KP3 pair by pair: S_e* S_f must be P_s(e) when e == f and 0 otherwise,
    for every pair of paths of one nonzero degree within bound.  Returns the
    case count and the failing (e, f) pairs."""
    colours = graph.colours
    cases = 0
    failures = []
    for degree in graph.nonzero_degrees(tuple(bound)):
        paths = graph.paths(degree)
        S = {e: model.path_operator(colours, e) for e in paths}
        for e in paths:
            adj = S[e].adjoint()
            for f in paths:
                expected = model.projection(colours, e.source) if e == f else model.zero
                cases += 1
                if adj * S[f] != expected:
                    failures.append((e, f))
    return cases, failures


def scanned_slice(graph, degree):
    """The paths of one degree mapped to their ranges, ordered by (source
    vertex, element): every (vertex, element) pair is tested against every
    colour's Cartan matching, where the library reads the matchings into
    rows first."""
    lam = graph.colours.weight_of(degree)
    matchings = [
        canonical_morphism(
            tensor_of(graph.datum, (theta, lam)), tensor_of(graph.datum, (lam, theta))
        )
        for theta in graph.colours.colours
    ]
    elements = highest_weight_crystal(graph.datum, lam).elements()
    out = {}
    for v in graph.vertices:
        for b in elements:
            images = [m.get((c, b)) for c, m in zip(v, matchings)]
            if None not in images:
                out[GraphPath(v, b, degree)] = tuple(image[1] for image in images)
    return out


def export_json_dicts(graph, bound):
    """The JSON export built as Python dicts over the public path view and
    dumped by `json.dumps`, where the library writes each path record
    straight from its slice rows."""
    data = {
        "type": graph.datum.label,
        "colours": [list(c) for c in graph.colours.colours],
        "vertices": [{"id": k, "tuple": list(v)} for k, v in enumerate(graph.vertices)],
        "paths": [
            {
                "source": graph.vertex_ids[e.source],
                "degree": list(e.degree),
                "element": e.element,
                "range": graph.vertex_ids[graph.range(e)],
            }
            for degree in graph.nonzero_degrees(bound)
            for e in graph.paths(degree)
        ],
    }
    return json.dumps(data, separators=(",", ":"))


def composite(graph, e1, e2):
    """The path e1.e2 (e2 first) of two paths of nonzero degree, read off
    the compose table; KeyError when the pair has no composite."""
    degree = tuple(x + y for x, y in zip(e1.degree, e2.degree))
    element = graph.compose_table(e2.degree, e1.degree)[(e2.element, e1.element)]
    return GraphPath(e2.source, element, degree)


def exhaustive_kp2(model, graph, bound):
    """KP2 case by case: for every path e of a nonzero degree within bound,
    P_r(e) S_e = S_e and S_e P_s(e) = S_e; and for every composable pair
    (e1 after e2, r(e2) = s(e1), degrees summing within bound),
    S_e1 S_e2 = S_(e1 e2), the composite read off `graph.compose_table`.
    Returns the case count and the failing cases."""
    colours = graph.colours
    bound = tuple(bound)
    degrees = graph.nonzero_degrees(bound)
    S = {e: model.path_operator(colours, e) for d in degrees for e in graph.paths(d)}
    cases = 0
    failures = []
    for e, s in S.items():
        for side in ("range", "source"):
            cases += 1
            if side == "range":
                product = model.projection(colours, graph.range(e)) * s
            else:
                product = s * model.projection(colours, e.source)
            if product != s:
                failures.append((side, e))
    ending = {}
    for e in S:
        ending.setdefault(graph.range(e), []).append(e)
    for e1, s1 in S.items():
        for e2 in ending.get(e1.source, ()):
            if any(x + y > c for x, y, c in zip(e1.degree, e2.degree, bound)):
                continue
            s2 = S[e2]
            cases += 1
            if s1 * s2 != model.path_operator(colours, composite(graph, e1, e2)):
                failures.append(("composition", e1, e2))
    return cases, failures


def exhaustive_kp4(model, graph, bound):
    """KP4 at every nonzero degree within bound: the sum of S_e S_e* over the
    paths e of that degree with range v must be P_v, for every vertex v.
    Returns the case count and the failing (v, degree) pairs."""
    colours = graph.colours
    cases = 0
    failures = []
    for degree in graph.nonzero_degrees(tuple(bound)):
        for v in graph.vertices:
            total = model.zero
            for e in graph.paths(degree):
                if graph.range(e) == v:
                    s = model.path_operator(colours, e)
                    total = total + s * s.adjoint()
            cases += 1
            if total != model.projection(colours, v):
                failures.append((v, degree))
    return cases, failures


def exhaustive_grading(model, graph, bound):
    """The grading at every nonzero degree within bound: every P_v has torus
    degree 0 and every S_e the single degree -lam(d(e)).  Returns the case
    count and the failing vertices and paths."""
    colours = graph.colours
    zero = (0,) * model.rank
    cases = 0
    failures = []
    for v in graph.vertices:
        cases += 1
        if not model.projection(colours, v).supported_in({zero}):
            failures.append(v)
    for degree in graph.nonzero_degrees(tuple(bound)):
        for e in graph.paths(degree):
            cases += 1
            label = neg_weights(colours.weight_of(degree))
            if not model.path_operator(colours, e).supported_in({label}):
                failures.append(e)
    return cases, failures

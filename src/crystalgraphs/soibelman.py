"""Shift-operator model of the crystal-limit generators, the vertex and path
projections of the graph algebra, and the machine verification suites.

Each generator is assembled from rank-one string data: the module restricted
to the SU(2) of one simple root splits into strings, and along a fixed reduced
word for the longest Weyl element the matrix-coefficient chains contribute one
tensor slot per letter, with the torus slot pinning the final index.
"""

from __future__ import annotations

from itertools import product as iter_product
from time import perf_counter
from typing import Hashable, Iterable, Iterator, Sequence

from .braiding import cartan_projection, pair_braiding
from .crystal import highest_weight_crystal, tensor_of
from .hrgraph import ColourSet, Degree, GraphPath, HigherRankGraph, Vertex, graph_of
from .memo import memo
from .report import VerificationReport
from .rootdata import (
    Coords,
    RootDatum,
    add_weights,
    build_root_datum,
    neg_weights,
    weyl_group,
)
from .toeplitz import OperatorElement, string_slot


def _mutually_inverse(table: dict, back: dict) -> bool:
    """Whether two partial maps (undefined off their keys) are mutually
    inverse partial bijections: back undoes table on its domain, and table
    undoes back on its."""
    return all(back.get(y) == x for x, y in table.items()) and all(
        table.get(x) == y for y, x in back.items()
    )


def _string(crystal_like, i: int, x) -> tuple[int, list]:
    """x's i-string from x down, walked off e_i and f_i alone: (the position
    of x from the top, [x and every element below it])."""
    top, y = 0, crystal_like.e(i, x)
    while y is not None:
        top, y = top + 1, crystal_like.e(i, y)
    below = [x]
    while (y := crystal_like.f(i, below[-1])) is not None:
        below.append(y)
    return top, below


class SoibelmanModel:
    """The q=0 representation of the generator matrix coefficients, as exact
    shift-operator elements over a fixed reduced word for the longest Weyl
    element."""

    def __init__(self, datum: RootDatum, word: Sequence[int] | None = None):
        self.datum = datum
        group = weyl_group(datum)
        if word is None:
            word = group.longest_word
        else:
            word = tuple(word)
            if not group.is_reduced_word_for_longest(word):
                raise ValueError(
                    f"{word} is not a reduced word for the longest element of W({datum.label})"
                )
        self.word = tuple(word)
        self.length = len(self.word)
        self.rank = datum.rank
        # arithmetic never mutates an element, so one zero and one unit serve
        # every check
        self.zero = OperatorElement.zero(self.length, self.rank)
        self.one = OperatorElement.unit(self.length, self.rank)

    def pi0_generator(self, lam: Coords, a: int, kind: str) -> OperatorElement:
        """Image of the a-th generator of weight lam, kind 'f' or 'v'."""
        if kind not in ("f", "v"):
            raise ValueError(f"kind must be 'f' or 'v', got {kind!r}")
        lam = tuple(lam)
        images = self._generator_table(lam, kind)
        if not 1 <= a <= len(images):
            raise ValueError(
                f"generator index {a} is outside B({lam}), which has {len(images)} elements"
            )
        return images[a - 1]

    @memo
    def _generator_table(self, lam: Coords, kind: str) -> tuple[OperatorElement, ...]:
        """The images of every generator of weight lam of one kind, in element
        order: the f-images by `_sweep` over B(lam), the v-images their
        adjoints."""
        crystal = highest_weight_crystal(self.datum, lam)
        if kind == "v":
            return tuple(self.pi0_generator(lam, a, "f").adjoint() for a in crystal.elements())
        reach = self._sweep(crystal, lam)
        return tuple(
            OperatorElement(self.length, self.rank, reach[a]) if a in reach else self.zero
            for a in crystal.elements()
        )

    def _sweep(self, crystal_like, label: Coords) -> dict[Hashable, dict[tuple[int, ...], int]]:
        """The f-image terms of the component of the highest element of a
        crystal or tensor product, keyed by every element with a nonzero
        image.  Its strings are walked off e and f through the step tables
        (`_string`), never read off the stored eps or phi, so the images are
        a function of the crystal graph.

        The f-image of x sums, over the paths that climb from x to the
        highest element one letter of the word at a time (at letter i, from
        z to any y at or above z on z's i-string), the key of one
        `string_slot` per letter followed by the torus label.  The paths are
        swept backward from the highest element over the reversed word, so
        only paths that reach it are ever built.
        """
        # element -> {slot triples of the letters still to read, then label: coefficient}
        reach: dict[Hashable, dict[tuple[int, ...], int]] = {crystal_like.highest: {label: 1}}
        for i in reversed(self.word):
            fresh: dict[Hashable, dict[tuple[int, ...], int]] = {}
            for y, suffixes in reach.items():
                top, below = _string(crystal_like, i, y)
                length = top + len(below) - 1
                # on or below the diagonal: never 0
                for pos, x in enumerate(below, top):
                    slot = string_slot(length, pos, top)
                    out = fresh.setdefault(x, {})
                    for key, c in suffixes.items():
                        key = slot + key
                        out[key] = out.get(key, 0) + c
            reach = fresh
        return reach

    @memo
    def _rank_one(self, m1: int, m2: int) -> tuple[int, bool]:
        """The rank-one slot lemma for string lengths m1 and m2: (its number
        of cases, whether every case holds).

        A case is a pair of the slots `_sweep` builds, string_slot(m1, p1, t1)
        and string_slot(m2, p2, t2) with p1 >= t1 and p2 >= t2.  Their
        product by `__mul__` must be string_slot(J, P, T) when (p1, p2) and
        (t1, t2) lie on one string of B(m1) x B(m2), of length J and at
        positions P and T (so 0 when P < T), and 0 otherwise; the strings are
        those of the A1 tensor crystal, walked off e and f (`_string`).
        Stored terms are compared, which is stronger than operator equality.
        """

        def slots(m: int) -> list[tuple[int, int, OperatorElement]]:
            return [
                (p, t, OperatorElement(1, 0, {string_slot(m, p, t): 1}))
                for p in range(m + 1)
                for t in range(p + 1)
            ]

        pair = tensor_of(build_root_datum("A1"), ((m1,), (m2,)))
        # each factor is one string; its elements by position from the top
        one, two = (_string(c, 1, c.highest)[1] for c in pair.factors)
        first, second = slots(m1), slots(m2)
        holds = True
        for p1, t1, x in first:
            for p2, t2, y in second:
                at = one[p1], two[p2]
                top, below = _string(pair, 1, (one[t1], two[t2]))
                slot = (
                    string_slot(top + len(below) - 1, top + below.index(at), top)
                    if at in below
                    else None
                )
                holds = holds and (x * y).terms == ({} if slot is None else {slot: 1})
        return len(first) * len(second), holds

    def _rank_one_premise(self, weight_pairs: Sequence[tuple[Coords, Coords]]) -> tuple[int, bool]:
        """The rank-one slot lemma for every pair (m1, m2) of string lengths
        that meet at one letter i of the word in a product f_x f'_y, with x
        in B(lam) and y in B(lam') for (lam, lam') in weight_pairs: m1 is the
        length of an i-string of B(lam) and m2 of one of B(lam').  Returns
        (cases, whether all hold)."""
        letters = set(self.word)
        lengths = {}
        for lam in {w for pair in weight_pairs for w in pair}:
            crystal = highest_weight_crystal(self.datum, lam)
            for i in letters:
                lengths[lam, i] = {
                    len(_string(crystal, i, b)[1]) - 1
                    for b in crystal.elements()
                    if crystal.e(i, b) is None
                }
        pairs = {
            pair
            for lam, lamp in weight_pairs
            for i in letters
            for pair in iter_product(lengths[lam, i], lengths[lamp, i])
        }
        checks = [self._rank_one(m1, m2) for m1, m2 in sorted(pairs)]
        return sum(n for n, _ in checks), all(ok for _, ok in checks)

    def projection(self, colours: ColourSet, v: Vertex) -> OperatorElement:
        """P_v: the product over colours of v-generator times f-generator."""
        v = tuple(v)
        if len(v) != colours.n:
            raise ValueError(f"vertex {v} does not have one entry per colour ({colours.n})")
        return self._projection(colours, v)

    @memo
    def _projection(self, colours: ColourSet, v: Vertex) -> OperatorElement:
        out = self.one
        for theta, b in zip(colours.colours, v):
            out = out * self.pi0_generator(theta, b, "v")
            out = out * self.pi0_generator(theta, b, "f")
        return out

    def path_operator(self, colours: ColourSet, e: GraphPath) -> OperatorElement:
        """S_e = v-generator of the path element times P_{s(e)}.  Not cached:
        `verify_graph_algebra` builds S_e once for each edge and holds it for
        its run."""
        lam = colours.weight_of(e.degree)
        return self.pi0_generator(lam, e.element, "v") * self.projection(colours, e.source)

    # verification -------------------------------------------------------

    def _relation_weights(self, colours: ColourSet) -> list[Coords]:
        """The weights the relation checks read: 0, the colours, rho_C."""
        out = [self.datum.zero]
        for theta in colours.colours:
            if theta not in out:
                out.append(theta)
        if colours.rho not in out:
            out.append(colours.rho)
        return out

    def _adjoint_pairing(self, lams: Iterable[Coords]) -> list[str]:
        """One result per element a of each B(lam): v_a = f_a* or why not."""
        gen = self.pi0_generator
        return [
            "" if gen(lam, a, "f").adjoint() == gen(lam, a, "v")
            else f"adjoint pairing at {lam}, {a}"
            for lam in lams
            for a in range(1, highest_weight_crystal(self.datum, lam).size + 1)
        ]

    def _hexagon(self, nu: Coords, theta: Coords, rest: Coords, mu: Coords) -> tuple[int, bool]:
        """The hexagon identity for nu = theta + rest and mu: (cases, whether
        all hold).  For each (m', j) in B(nu) x B(mu), m' the image of
        (l1, l2) in the Cartan component C of B(theta) x B(rest),
        sigma_{nu,mu}(m', j) (None off the table's keys) must be the forward
        chain sigma_{rest,mu}(l2, j) = (k, i2), sigma_{theta,mu}(l1, k) =
        (k', i1) read as (k', image of (i1, i2)), or None where a step is None
        or (i1, i2) is off C.  The cases are every pair of the product, not
        the table's keys, so a chain that is defined where sigma_{nu,mu} is
        missing fails too."""
        datum = self.datum
        # (l1, l2) in C -> its image in B(nu), and back
        into = cartan_projection(datum, theta, rest)
        pairs = {m: pair for pair, m in into.items()}
        outer = pair_braiding(datum, theta, mu)
        inner = pair_braiding(datum, rest, mu)
        sigma = pair_braiding(datum, nu, mu)
        product = tensor_of(datum, (nu, mu))
        holds = True
        for m, j in product.elements():
            l1, l2 = pairs[m]
            chain = inner.get((l2, j))
            if chain is not None:
                k, i2 = chain
                chain = outer.get((l1, k))
                if chain is not None:
                    k, i1 = chain
                    top = into.get((i1, i2))
                    chain = None if top is None else (k, top)
            holds = holds and chain == sigma.get((m, j))
        return product.size, holds

    def verify_relations(self, colours: ColourSet) -> VerificationReport:
        """Exact checks of the generator relations (R1)-(R4) over the weights
        0, the colours and their sum rho_C.

        R4 is multiplied out in full.  R1 multiplies out none of its cases,
        and R2 and R3 only those at atoms (0 and the colours); each certifies
        the rest from premises computed in the same run.  Three lemmas serve
        them.

        Adjoint lemma: ``adjoint`` is an anti-involution ((xy)* = y* x*,
        x** = x), and x == y exactly when x* == y* (equality compares the
        normal forms over the linearly independent slot basis
        {T^n, T*^n, T^a P0 T*^b}, which the adjoint permutes).

        Rank-one slot lemma (`_rank_one`): the product of two nonzero slots
        string_slot(m1, p1, t1) string_slot(m2, p2, t2) is
        string_slot(J, P, T) when (p1, p2) and (t1, t2) lie on one string of
        B(m1) x B(m2), J its length and P, T their positions on it, and 0
        otherwise.

        Hexagon lemma: write R2(lam, mu) for f_i v_j = sum over
        sigma_{lam,mu}(l, j) = (k, i) of v_k f_l, and let nu = theta + nu',
        with m in B(nu) the image of (i1, i2) in the Cartan component C of
        B(theta) x B(nu').  R1 gives f_m v_j = f_i1 f'_i2 v_j; R2(nu', mu)
        and then R2(theta, mu) make it a sum of v_k' f_l1 f'_l2 over forward
        chains; R1 makes f_l1 f'_l2 = f_m' on C and 0 off it.  Where the
        identity `_hexagon` checks holds, each m' carries the same term
        v_k' f_m' on both sides, so R2(nu, mu) holds.

        - R1: f_i f'_j = f_m for the image m in B(lam+lam') of (i, j) in the
          Cartan component C of B(lam) x B(lam'), and 0 off C; the v-half
          v'_j v_i = v_m (or 0) is its adjoint.  The stored terms of f_i are
          `_sweep`'s sum over the paths that climb from i to the top, one
          `string_slot` per letter, and ``__mul__`` is bilinear and acts
          slot by slot.  By the rank-one lemma a pair of paths, one for i
          and one for j, has a nonzero product only when at every letter the
          pair steps along one string of B(lam) x B(lam'); the product is
          then the key of that path of (i, j) in the sweep of
          B(lam) x B(lam') from (1, 1), with the label lam+lam'.  That sweep
          walks e and f through the step tables, so it stays inside C, which
          the canonical isomorphism onto B(lam+lam') carries string for
          string, position for position (both are walks of the crystal
          graph), so its image of (i, j) is f_m term for term.  Premises: the rank-one lemma for
          every pair of string lengths that meet at one letter (its cases
          are counted on the split line only), and R4 (v = f* on every
          B(lam) of the list; on B(lam+lam') the v-images are the adjoints
          of the f-images by construction).
        - R2 computes R2(lam, lam')(i, j) only for atoms lam before lam' in
          the list and, for lam' the same atom as lam, only for i <= j.
          With rho_C peeled as nu_1 = rho_C, nu_k = theta_k + nu_(k+1),
          nu_N = theta_N, the rest follows in this order:
          1. the mirrored atom halves: R2(lam, lam')(i, j)* is
             R2(lam', lam)(j, i);
          2. R2(nu_k, mu) for every atom mu, k from N-1 down to 1, by the
             hexagon lemma;
          3. R2(mu, rho_C) for every atom mu, the adjoint of R2(rho_C, mu);
          4. R2(nu_k, rho_C), k from N-1 down to 1, by the hexagon lemma.
          Premises: R4; mutually inverse braiding tables of (lam, lam') and
          (lam', lam) for every atom lam and every lam' from lam on; the
          rank-one lemma also at each peeling pair (theta_k, nu_(k+1)), so
          that R1 holds there; and the hexagon identity for every nu_k and
          every weight of the list (R2's lemma cases).
        - R3 (sum over B(lam) of v_i f_i = 1) is computed at the atoms.  With
          nu = theta + nu' a peeling and m in B(nu) the image of (i, j) in C,
          R1 at (theta, nu') gives f_m = f_i f'_j, v_m = v'_j v_i, and
          f_i f'_j = 0 off C, so
            sum_m v_m f_m = sum_(i,j) v'_j v_i f_i f'_j
                          = sum_j v'_j (sum_i v_i f_i) f'_j = 1
          by R3 at theta and at nu'; down the peelings this gives R3 at
          rho_C.  Premises: the rank-one lemma at the peeling pairs (R1
          there) and R4.

        Each status line keeps the full case count, and the line below it
        gives the computed/implied split.  A failed premise fails its check
        by name with no implied cases; nothing falls back to multiplying
        every case out.
        """
        lams = self._relation_weights(colours)
        # 0 and the colours; rho_C, the last weight, unless it is a colour
        atoms = [lam for lam in lams if lam == self.datum.zero or lam in colours.colours]
        # (nu_k, theta_k, nu_(k+1)) from k = N-1 down to 1, so nu_1 = rho_C
        peelings = []
        rest = colours.colours[-1]
        for theta in reversed(colours.colours[:-1]):
            peelings.append((add_weights(theta, rest), theta, rest))
            rest = peelings[-1][0]
        report = VerificationReport()
        gen = self.pi0_generator
        size = [highest_weight_crystal(self.datum, lam).size for lam in lams]
        # the atom pairs (a, b) with a <= b: R2 computes only these
        halves = [(a, b) for a in range(len(atoms)) for b in range(a, len(atoms))]

        clock = perf_counter()
        r4 = self._adjoint_pairing(lams)
        r4_s = perf_counter() - clock
        rank_one, rank_one_holds = self._rank_one_premise(
            list(iter_product(lams, lams)) + [(theta, rest) for _, theta, rest in peelings]
        )
        inverse_braidings = all(
            _mutually_inverse(
                pair_braiding(self.datum, lams[a], lams[b]),
                pair_braiding(self.datum, lams[b], lams[a]),
            )
            for a in range(len(atoms))
            for b in range(a, len(lams))
        )
        clock = perf_counter()
        hexagons = [self._hexagon(*peeling, mu) for peeling in peelings for mu in lams]
        hexagon_s = perf_counter() - clock
        hexagon = sum(n for n, _ in hexagons)

        def r2() -> Iterator[str]:
            for a, b in halves:
                lam, lamp = atoms[a], atoms[b]
                groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
                for (l, j), (k, i) in pair_braiding(self.datum, lam, lamp).items():
                    groups.setdefault((i, j), []).append((k, l))
                for i in range(1, size[a] + 1):
                    for j in range(i if a == b else 1, size[b] + 1):
                        lhs = gen(lam, i, "f") * gen(lamp, j, "v")
                        rhs = self.zero
                        for k, l in groups.get((i, j), ()):
                            rhs = rhs + gen(lamp, k, "v") * gen(lam, l, "f")
                        yield "" if lhs == rhs else f"cross relation at {lam},{lamp},({i},{j})"

        def r3() -> Iterator[str]:
            for lam, n in zip(atoms, size):
                total = self.zero
                for i in range(1, n + 1):
                    total = total + gen(lam, i, "v") * gen(lam, i, "f")
                yield "" if total == self.one else f"sum over B({lam})"

        r2_by = "adjoints under R4 and inverse braidings"
        r2_premises = {"R4": not any(r4), "inverse braidings": inverse_braidings}
        if peelings:
            r2_by = (
                f"adjoints under R4 and inverse braidings, the hexagon identity ({hexagon}"
                " hexagon cases) and R1 at the peelings"
            )
            r2_premises["rank-one slot lemma"] = rank_one_holds
            r2_premises["hexagon identity"] = all(ok for _, ok in hexagons)
        computed = sum(
            size[a] * size[b] if a < b else size[a] * (size[a] + 1) // 2 for a, b in halves
        )
        r1_premises = {"rank-one slot lemma": rank_one_holds, "R4": not any(r4)}
        report.certify(
            "R1 products collapse through the Cartan component",
            (),
            2 * sum(size) ** 2,
            f"the rank-one slot lemma ({rank_one} rank-one cases) and R4",
            r1_premises,
            rank_one,
        )
        report.certify(
            "R2 cross relations through the braiding",
            r2(),
            sum(size) ** 2 - computed,
            r2_by,
            r2_premises,
            hexagon,
            spent=hexagon_s,
        )
        report.certify(
            "R3 unitality",
            r3(),
            len(lams) - len(atoms),
            "R3 at the atoms and R1 at the peelings",
            r1_premises if peelings else {},
        )
        report.certify("R4 adjoint pairing", r4, spent=r4_s)
        return report

    def verify_graph_algebra(
        self, graph: HigherRankGraph, bound: Sequence[int]
    ) -> VerificationReport:
        """Exact checks of the graph-algebra relations KP1-KP4 and the grading.

        S_e and S_e* are built only for the edges, the paths of a unit degree
        eps_c.  KP2's range half, the KP3 diagonal, KP4 and the S_e half of
        the grading are multiplied out on edges alone; their cases at a
        composite degree are implied, and so are the rest of KP1, KP2 and
        KP3.  Each certified check fails by name, with no implied cases, when
        a premise fails.

        - KP1 computes P_v P_w = 0 only for v before w.  P_w P_v is its
          adjoint, since each P_v is self-adjoint (computed in KP1 itself).
        - KP2, source half: with x the element of e, S_e = v_x P_s(e) is
          how ``path_operator`` defines S_e, and stored-term products are
          associative (the slot basis is an inverse semigroup in B(H)), so
          it follows from P_s(e) idempotent, computed in KP1:

            S_e P_s(e) = v_x (P_s(e) P_s(e)) = v_x P_s(e) = S_e.

        - KP2, composition half: S_e' S_e = S_e'e for r(e) = s(e') with
          d(e) + d(e') within the bound.  With x' the element of e' and m the
          image of (x, x') in the compose table,

            S_e' S_e = v_x' P_s(e') v_x P_s(e) = v_x' v_x P_s(e)
                     = v_m P_s(e) = S_e'e,

          where the second step is the range half of e, P_r(e) S_e = S_e,
          and the third is the v-half of R1 for (lam(d(e)), lam(d(e'))),
          which the rank-one slot lemma of `verify_relations` implies.
        - Unique factorization: each composite degree n is split once as
          n = m + eps_c, c its last colour, and `check_factorization(m,
          eps_c)` must pass: the compose table maps the pairs of an edge e
          of degree eps_c and a path e' of degree m with r(e) = s(e')
          one-to-one onto the paths f of degree n, with r(f) = r(e') and
          s(f) = s(e).
        - The rest is proved by induction on |n|.  At a unit degree the
          range half, the KP3 diagonal, KP4 and the grading of S_e are
          computed.  At a composite n = m + eps_c, with every degree of
          smaller size done, take f = e'e as above, in this order:

          1. S_f = S_e' S_e, the composition half for (e, e'): it reads the
             range half of the edge e, which is computed.
          2. Range half: P_r(f) S_f = P_r(e') S_e' S_e = S_e' S_e = S_f, by
             r(f) = r(e') and the range half at m.
          3. KP3 diagonal: S_f* S_f = S_e* (S_e'* S_e') S_e
             = S_e* P_r(e) S_e = S_e* S_e = P_s(f), by the diagonal at m,
             s(e') = r(e), the range half and the diagonal of the edge e,
             and s(f) = s(e).
          4. KP4 at degree n and vertex v: the bijection gives
             sum_f S_f S_f* = sum_e' S_e' (sum_e S_e S_e*) S_e'*
             = sum_e' S_e' P_s(e') S_e'* = sum_e' S_e' S_e'* = P_v, by KP4
             at eps_c and at m and the source half.
          5. Grading: torus labels add under ``__mul__``, so S_f = S_e' S_e
             is homogeneous of degree -lam(m) - lam(eps_c) = -lam(n).

          The composition half for a pair whose first path e is composite
          reads e's range half, which step 2 gave one step earlier.
          Premises of KP2: the rank-one slot lemma for the string lengths
          of the degree weights that compose, every P_v idempotent, every
          composable pair being a key of the compose table, and unique
          factorization.  Where no pair composes, the only premise is
          idempotent P_v.  KP4 and the grading rest on KP2 and unique
          factorization.
        - KP3 (S_e* S_f = delta_{e,f} P_s(e) for paths e, f of one degree)
          also implies its off-diagonal, in B(H), where ``adjoint`` is the
          true adjoint and two elements are equal exactly when their
          operators are (the normal form's slot basis is linearly
          independent):

          - KP1: each P_v is a self-adjoint idempotent and P_v P_w = 0 for
            v != w.
          - The diagonal then makes each S_e a partial isometry, so
            Q_e = S_e S_e* is a projection.
          - KP4: the sum of Q_e over r(e) = v, d(e) = n is P_v.  A finite sum
            of projections that is itself a projection has pairwise
            orthogonal summands, so Q_e Q_f = 0 for e != f with one range.
          - For different ranges, S_e = P_r(e) S_e (the range half of KP2)
            and KP1 give Q_e Q_f = Q_e P_r(e) P_r(f) Q_f = 0.
          - Hence S_e* S_f = S_e* Q_e Q_f S_f = 0.

          Its premises are KP1, KP2, KP4 and unique factorization.
        """
        report = VerificationReport()
        colours = graph.colours
        bound = tuple(bound)
        vertices = graph.vertices
        P = {v: self.projection(colours, v) for v in vertices}
        self_adjoint = {v: p.adjoint() == p for v, p in P.items()}
        idempotent: dict[Vertex, bool] = {}  # filled by KP1, a premise of KP2

        def kp1() -> Iterator[str]:
            for v, p in P.items():
                fails = f"P_{v} is not a self-adjoint idempotent"
                yield "" if self_adjoint[v] else fails
                idempotent[v] = p * p == p
                yield "" if idempotent[v] else fails
            for k, v in enumerate(vertices):
                for w in vertices[k + 1 :]:
                    yield "" if P[v] * P[w] == self.zero else f"P_{v} P_{w} != 0"
            total = self.zero
            for p in P.values():
                total = total + p
            yield "" if total == self.one else "sum of vertex projections is not 1"

        kp1_check = report.certify(
            "KP1 vertex projections",
            kp1(),
            len(vertices) * (len(vertices) - 1) // 2,
            "adjoints of self-adjoint P_v",
            {"P_v = P_v*": all(self_adjoint.values())},
        )

        degrees = graph.nonzero_degrees(bound)
        units = [d for d in degrees if sum(d) == 1]
        # the split (m, eps_c) of each composite degree n = m + eps_c, c its last colour
        splits = []
        for n in degrees:
            if sum(n) > 1:
                c = max(k for k, x in enumerate(n) if x)
                unit = tuple(int(k == c) for k in range(len(n)))
                splits.append((tuple(x - y for x, y in zip(n, unit)), unit))
        factorization = all(graph.check_factorization(m, unit).passed for m, unit in splits)
        S = {e: self.path_operator(colours, e) for d in units for e in graph.paths(d)}
        S_adj = {e: s.adjoint() for e, s in S.items()}
        # paths of every degree by (range, degree), each list in path order
        ending: dict[tuple[Vertex, Degree], list[GraphPath]] = {}
        for d in degrees:
            for e in graph.paths(d):
                ending.setdefault((graph.range(e), d), []).append(e)
        paths = sum(len(graph.paths(d)) for d in degrees)
        # for each degree d, the degrees d2 with d + d2 within the bound
        fits = {
            d: [d2 for d2 in degrees if all(x + y <= c for x, y, c in zip(d, d2, bound))]
            for d in degrees
        }
        # the composable pairs: e2 then e1, with r(e2) = s(e1)
        composable = 0
        in_table = True
        weight_pairs = set()
        for d1 in degrees:
            for d2 in fits[d1]:
                table = graph.compose_table(d2, d1)
                weight_pairs.add((colours.weight_of(d2), colours.weight_of(d1)))
                for e1 in graph.paths(d1):
                    for e2 in ending.get((e1.source, d2), ()):
                        composable += 1
                        in_table = in_table and (e2.element, e1.element) in table

        def kp2() -> Iterator[str]:
            for e, s in S.items():
                yield "" if P[graph.range(e)] * s == s else f"vertex-path relation fails at {e}"

        def kp3_diagonal() -> Iterator[str]:
            for e, s in S.items():
                if S_adj[e] * s == P[e.source]:
                    yield ""
                else:
                    yield f"isometry relation fails at {e}, {e}"

        def kp4() -> Iterator[str]:
            for degree in units:
                for v in vertices:
                    total = self.zero
                    for e in ending.get((v, degree), ()):
                        total = total + S[e] * S_adj[e]
                    if total == P[v]:
                        yield ""
                    else:
                        yield f"range decomposition fails at {v}, degree {degree}"

        def grading() -> Iterator[str]:
            for v, p in P.items():
                invariant = p.supported_in({(0,) * self.rank})
                yield "" if invariant else f"P_{v} is not gauge-invariant"
            for e, s in S.items():
                lam = colours.weight_of(e.degree)
                if s.supported_in({neg_weights(lam)}):
                    yield ""
                else:
                    yield f"S_{e} is not homogeneous of degree {neg_weights(lam)}"

        # the source half rests on idempotent P_v alone; the composition
        # half and the composite range halves, where there are any, also on
        # the lemma, the compose table and unique factorization
        kp2_by = "idempotent P_v"
        kp2_premises = {"P_v idempotent": all(idempotent.values())}
        rank_one = 0
        if composable:
            rank_one, rank_one_holds = self._rank_one_premise(sorted(weight_pairs))
            kp2_by = (
                f"the rank-one slot lemma ({rank_one} rank-one cases), the range half,"
                f" {kp2_by}, the compose table and unique factorization"
            )
            kp2_premises = {
                "rank-one slot lemma": rank_one_holds,
                **kp2_premises,
                "compose table": in_table,
                "unique factorization": factorization,
            }
        kp2_check = report.certify(
            "KP2 path composition",
            kp2(),
            2 * paths - len(S) + composable,
            kp2_by,
            kp2_premises,
            rank_one,
        )
        # what KP4 and the grading at composite degrees rest on
        composite_by = "unique factorization and KP2"
        composite_premises = (
            {"KP2": kp2_check.passed, "unique factorization": factorization} if splits else {}
        )
        clock = perf_counter()
        kp4_results = list(kp4())  # a premise of KP3, reported after it
        kp4_s = perf_counter() - clock
        kp3_by = "KP1, KP2 and KP4"
        kp3_premises = {
            "KP1": kp1_check.passed,
            "KP2": kp2_check.passed,
            "KP4": not any(kp4_results) and all(composite_premises.values()),
        }
        if splits:
            kp3_by = "KP1, KP2, KP4 and unique factorization"
            kp3_premises["unique factorization"] = factorization
        report.certify(
            "KP3 orthogonal isometries",
            kp3_diagonal(),
            sum(len(graph.paths(d)) ** 2 for d in degrees) - len(S),
            kp3_by,
            kp3_premises,
        )
        report.certify(
            "KP4 range decomposition",
            kp4_results,
            len(splits) * len(vertices),
            composite_by,
            composite_premises,
            spent=kp4_s,
        )
        report.certify(
            "grading: P_v invariant, S_e of degree -d(e)",
            grading(),
            paths - len(S),
            composite_by,
            composite_premises,
        )
        return report

    def verify_suite(self, colours: ColourSet, bound: Sequence[int]) -> VerificationReport:
        """Relation checks (R1)-(R4) plus KP1-KP4 and the grading."""
        report = self.verify_relations(colours)
        report.extend(self.verify_graph_algebra(graph_of(colours), bound))
        return report

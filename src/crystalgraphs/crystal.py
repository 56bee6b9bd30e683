"""Crystals of highest-weight modules, and their tensor products under the
Kashiwara two-factor rule.

B(lam) is generated by Littelmann's path model, which only draws its
f-edges.  A path is stored as its chain of turning points (the origin is
implicit), with exact rational coordinates in the fundamental-weight basis.
Chains are kept in a canonical form - no zero steps, no two consecutive steps
along the same ray - so equality of elements is equality of tuples.  Once
built, a crystal keeps per colour only the table of its strings, which
f, e, eps, phi and the tensor rule all read.

The absorbing value 0 of crystal combinatorics is represented by ``None`` and
propagates through every operation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Iterator, Union

from .memo import memo
from .rootdata import (
    Coords,
    RootDatum,
    add_weights,
    sub_weights,
    weyl_dim,
)

QVec = tuple[Fraction, ...]
Chain = tuple[QVec, ...]

SIZE_CAP = 100_000  # the most elements highest_weight_crystal builds


def _to_q(v) -> QVec:
    return tuple(Fraction(x) for x in v)


def _same_ray(u: QVec, v: QVec) -> bool:
    # u = c*v with c > 0, for nonzero u, v
    k = next((i for i, x in enumerate(v) if x != 0), None)
    if k is None or u[k] == 0:
        return False
    c = Fraction(u[k], 1) / v[k]
    if c <= 0:
        return False
    return all(a == c * b for a, b in zip(u, v))


def _chain_from_steps(steps: Iterable[QVec]) -> Chain:
    merged: list[QVec] = []
    for u in steps:
        if all(x == 0 for x in u):
            continue
        if merged and _same_ray(u, merged[-1]):
            merged[-1] = tuple(a + b for a, b in zip(merged[-1], u))
        else:
            merged.append(u)
    points: list[QVec] = []
    cur = None
    for u in merged:
        cur = u if cur is None else tuple(a + b for a, b in zip(cur, u))
        points.append(cur)
    return tuple(points)


def _breakpoints(chain: Chain, rank: int) -> tuple[QVec, ...]:
    origin = (Fraction(0),) * rank
    return (origin,) + chain


def _rebuild(datum: RootDatum, pts, reflected, after, i: int) -> Chain:
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


def f_path(datum: RootDatum, i: int, chain: Chain) -> Chain | None:
    """Lowering root operator on a path; None when it vanishes."""
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


# per colour i: the i-strings, each from its top down, and per element its
# (string id, position from the top, string length)
StringTable = tuple[list[list], dict]


def _string_table(elements: Iterable, lower, is_top) -> StringTable:
    """The strings of one colour, walked down by `lower` (None below the
    bottom) from the elements where `is_top` holds, taken in element order."""
    lines: list[list] = []
    data: dict = {}
    for top in elements:
        if not is_top(top):
            continue
        line = [top]
        while (b := lower(line[-1])) is not None:
            line.append(b)
        for pos, b in enumerate(line):
            data[b] = (len(lines), pos, len(line) - 1)
        lines.append(line)
    return lines, data


class Crystal:
    """The crystal of an irreducible highest-weight module.

    Elements are integers 1..size, with 1 the highest-weight element; the
    indexing is the breadth-first discovery order from the highest-weight
    path, exploring colours in increasing order.  The crystal keeps its
    weights and, per colour, its string table, which f, e, eps and phi read.
    """

    def __init__(self, datum: RootDatum, highest_weight: Coords, weights: list[Coords],
                 f_edges: dict[tuple[int, int], int]):
        self.datum = datum
        self.highest_weight = highest_weight
        self._weights = weights
        lowered = {(i, j) for (i, _), j in f_edges.items()}
        self._strings = {
            i: _string_table(
                self.elements(), lambda b: f_edges.get((i, b)), lambda b: (i, b) not in lowered
            )
            for i in datum.colours
        }

    @property
    def size(self) -> int:
        return len(self._weights)

    def __len__(self) -> int:
        return self.size

    @property
    def highest(self) -> int:
        return 1

    def elements(self) -> range:
        return range(1, self.size + 1)

    def weight(self, b: int) -> Coords:
        return self._weights[b - 1]

    def _check_colour(self, i: int) -> None:
        if not 1 <= i <= self.datum.rank:
            raise ValueError(f"invalid colour index {i} for {self.datum.label}")

    def string_table(self, i: int) -> StringTable:
        """The i-string table, built with the crystal."""
        self._check_colour(i)
        return self._strings[i]

    def f(self, i: int, b: int | None) -> int | None:
        lines, data = self.string_table(i)
        if b is None:
            return None
        sid, pos, length = data[b]
        return lines[sid][pos + 1] if pos < length else None

    def e(self, i: int, b: int | None) -> int | None:
        lines, data = self.string_table(i)
        if b is None:
            return None
        sid, pos, _ = data[b]
        return lines[sid][pos - 1] if pos else None

    def eps(self, i: int, b: int) -> int:
        _, pos, _ = self.string_table(i)[1][b]
        return pos

    def phi(self, i: int, b: int) -> int:
        _, pos, length = self.string_table(i)[1][b]
        return length - pos

    def __repr__(self) -> str:
        return f"Crystal({self.datum.label}, {self.highest_weight}, size={self.size})"


def highest_weight_crystal(datum: RootDatum, lam: Coords) -> Crystal:
    """Generate B(lam) by closing the straight-line path under root operators;
    the size cap is checked before anything is built."""
    lam = tuple(lam)
    dim = weyl_dim(datum, lam)
    if dim > SIZE_CAP:
        raise ValueError(f"crystal of weight {lam} has {dim} elements, above cap {SIZE_CAP}")
    return _build_crystal(datum, lam, dim)


@memo
def _build_crystal(datum: RootDatum, lam: Coords, dim: int) -> Crystal:
    """B(lam) from the f-edges of the path model: each element found is its
    parent's weight minus alpha_i, and no path outlives the build."""
    seed = _chain_from_steps([_to_q(lam)])
    chains = [seed]
    index = {seed: 1}
    weights = [lam]
    f_edges: dict[tuple[int, int], int] = {}
    pos = 0
    while pos < len(chains):
        b = pos + 1
        here = chains[pos]
        for i in datum.colours:
            nxt = f_path(datum, i, here)
            if nxt is None:
                continue
            j = index.get(nxt)
            if j is None:
                chains.append(nxt)
                weights.append(sub_weights(weights[pos], datum.simple_root(i)))
                j = len(chains)
                index[nxt] = j
            f_edges[i, b] = j
        pos += 1
    if len(chains) != dim:
        raise RuntimeError(
            f"path model generated {len(chains)} elements for {lam}, expected {dim}"
        )
    return Crystal(datum, lam, weights, f_edges)


TensorElement = Union[tuple, None]


def _common_datum(factors: tuple[Crystal, ...]) -> RootDatum:
    if not factors:
        raise ValueError("tensor product needs at least one factor")
    datum = factors[0].datum
    if any(c.datum != datum for c in factors):
        raise ValueError("tensor factors live over different root data")
    return datum


class TensorCrystal:
    """Tensor product of irreducible crystals; elements are index tuples."""

    def __init__(self, factors: Iterable[Crystal]):
        factors = tuple(factors)
        datum = _common_datum(factors)
        self.factors = factors
        self.datum = datum
        hw = datum.zero
        for c in factors:
            hw = add_weights(hw, c.highest_weight)
        self.highest_weight = hw
        # per colour, the string table of each factor, which the tensor rule reads
        self._tables = {i: tuple(c.string_table(i) for c in factors) for i in datum.colours}

    @property
    def size(self) -> int:
        n = 1
        for c in self.factors:
            n *= c.size
        return n

    @property
    def highest(self) -> tuple:
        return (1,) * len(self.factors)

    def elements(self) -> Iterator[tuple]:
        return iter_product(*(c.elements() for c in self.factors))

    def weight(self, t: tuple) -> Coords:
        w = self.datum.zero
        for c, b in zip(self.factors, t):
            w = add_weights(w, c.weight(b))
        return w

    # one colour check per call; the factor tables are then read directly
    _check_colour = Crystal._check_colour

    def _lowering(self, i: int, t: tuple) -> tuple[int, int]:
        """(eps_i of t, the factor f_i acts on, or -1 when f_i t = 0), in one
        backward pass of the signature rule: factor k reads as eps_k minus
        signs then phi_k plus signs, adjacent (+, -) pairs cancel, and f_i
        lowers the factor of the leftmost plus left over, the leftmost k with
        phi_k above the eps of the factors after it."""
        eps = 0
        acts = -1
        tables = self._tables[i]
        for k in range(len(t) - 1, -1, -1):
            _, ex, length = tables[k][1][t[k]]
            px = length - ex
            if px > eps:
                eps, acts = ex, k
            else:
                eps += ex - px
        return eps, acts

    def _raising(self, i: int, t: tuple) -> tuple[int, int]:
        """(phi_i of t, the factor e_i acts on, or -1 when e_i t = 0), in one
        forward pass of the signature rule: e_i raises the factor of the
        rightmost minus left over, the rightmost k with eps_k above the phi
        of the factors before it."""
        phi = 0
        acts = -1
        for k, (_, data) in enumerate(self._tables[i]):
            _, ex, length = data[t[k]]
            if ex > phi:
                phi, acts = length - ex, k
            else:
                phi += length - 2 * ex
        return phi, acts

    def eps(self, i: int, t: tuple) -> int:
        self._check_colour(i)
        return self._lowering(i, t)[0]

    def phi(self, i: int, t: tuple) -> int:
        self._check_colour(i)
        return self._raising(i, t)[0]

    def f(self, i: int, t: TensorElement) -> TensorElement:
        if t is None:
            return None
        self._check_colour(i)
        return self._move(i, t, self._lowering(i, t)[1], 1)

    def e(self, i: int, t: TensorElement) -> TensorElement:
        if t is None:
            return None
        self._check_colour(i)
        return self._move(i, t, self._raising(i, t)[1], -1)

    def _move(self, i: int, t: tuple, k: int, step: int) -> TensorElement:
        """t with factor k moved step places down its i-string; None if k < 0."""
        if k < 0:
            return None
        lines, data = self._tables[i][k]
        sid, pos, _ = data[t[k]]
        return t[:k] + (lines[sid][pos + step],) + t[k + 1 :]

    @memo
    def string_table(self, i: int) -> StringTable:
        """The i-string table, walked once off f and e like a crystal's."""
        return _string_table(
            self.elements(), lambda t: self.f(i, t), lambda t: self.e(i, t) is None
        )

    def eta(self, t: TensorElement) -> int:
        """Indicator of the Cartan component (0 on the absorbing value)."""
        return int(t in canonical_morphism(self, self))

    def __repr__(self) -> str:
        hw = "x".join(str(c.highest_weight) for c in self.factors)
        return f"TensorCrystal({self.datum.label}, {hw})"


def tensor_of(datum: RootDatum, weights: Iterable[Coords]) -> TensorCrystal:
    return _tensor_of(datum, tuple(map(tuple, weights)))


@memo
def _tensor_of(datum: RootDatum, weights: tuple[Coords, ...]) -> TensorCrystal:
    return TensorCrystal(highest_weight_crystal(datum, w) for w in weights)


def canonical_morphism(source, target, top=None) -> dict:
    """The unique crystal isomorphism from the component of ``top`` in source
    (default: its highest element) onto the component of ``target.highest``.

    Computed by a lockstep lowering walk from the two tops, so its keys are
    exactly the source component.  Every f-edge the walk meets is checked:
    f_i x and f_i y are defined together, and an f_i x reached before must
    map to f_i y.  The element map is memoized and shared between callers;
    do not mutate it.
    """
    return _walk(source, source.highest if top is None else top, target)


@memo
def _walk(source, top, target) -> dict:
    colours = source.datum.colours
    if any(source.e(i, top) is not None for i in colours):
        raise ValueError(f"{top} is not a highest-weight element of {source!r}")
    weight = source.weight(top)
    if weight != target.highest_weight:
        raise ValueError(
            f"mismatched highest weights {weight} vs {target.highest_weight}"
        )
    walk = {top: target.highest}
    queue = [top]
    pos = 0
    while pos < len(queue):
        x = queue[pos]
        pos += 1
        y = walk[x]
        for i in colours:
            fx = source.f(i, x)
            fy = target.f(i, y)
            if (fx is None) != (fy is None):
                raise RuntimeError("components are not isomorphic")
            if fx is None:
                continue
            seen = walk.get(fx)
            if seen is None:
                walk[fx] = fy
                queue.append(fx)
            elif seen != fy:
                raise RuntimeError("components are not isomorphic")
    return walk

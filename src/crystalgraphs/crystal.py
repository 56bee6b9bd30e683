"""Crystals of highest-weight modules via piecewise-linear paths, and their
tensor products under the Kashiwara two-factor rule.

A path is stored as its chain of turning points (the origin is implicit), with
exact rational coordinates in the fundamental-weight basis.  Chains are kept
in a canonical form - no zero steps, no two consecutive steps along the same
ray - so equality of elements is equality of tuples.

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
    weyl_dim,
)

QVec = tuple[Fraction, ...]
Chain = tuple[QVec, ...]

DEFAULT_SIZE_CAP = 100_000


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


def _min_level(chain: Chain, i: int) -> Fraction:
    m = Fraction(0)
    for p in chain:
        if p[i - 1] < m:
            m = p[i - 1]
    return m


def path_weight(chain: Chain, rank: int) -> Coords:
    if not chain:
        return (0,) * rank
    end = chain[-1]
    if any(x.denominator != 1 for x in end):
        raise ValueError(f"path ends at the non-integral weight {end}")
    return tuple(int(x) for x in end)


def eps_path(chain: Chain, i: int) -> int:
    m = _min_level(chain, i)
    if m.denominator != 1:
        raise ValueError(f"path has the non-integral minimum {m} in colour {i}")
    return -int(m)


def phi_path(chain: Chain, i: int) -> int:
    m = _min_level(chain, i)
    last = chain[-1][i - 1] if chain else Fraction(0)
    val = last - m
    if val.denominator != 1:
        raise ValueError(f"path has the non-integral rise {val} in colour {i}")
    return int(val)


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


class Crystal:
    """The crystal of an irreducible highest-weight module.

    Elements are integers 1..size, with 1 the highest-weight element; the
    indexing is the breadth-first discovery order from the highest-weight
    path, exploring colours in increasing order.
    """

    def __init__(self, datum: RootDatum, highest_weight: Coords, chains: list[Chain],
                 f_edges: dict, e_edges: dict):
        self.datum = datum
        self.highest_weight = highest_weight
        self._chains = chains
        self._f = f_edges
        self._e = e_edges
        self._weights = [path_weight(c, datum.rank) for c in chains]
        self._eps = {}
        self._phi = {}
        for i in datum.colours:
            for b, chain in enumerate(chains, start=1):
                self._eps[i, b] = eps_path(chain, i)
                self._phi[i, b] = phi_path(chain, i)
        self._lowest = None

    @property
    def size(self) -> int:
        return len(self._chains)

    def __len__(self) -> int:
        return self.size

    @property
    def highest(self) -> int:
        return 1

    @property
    def lowest(self) -> int:
        if self._lowest is None:
            lows = [
                b
                for b in self.elements()
                if all(self._phi[i, b] == 0 for i in self.datum.colours)
            ]
            if len(lows) != 1:
                raise RuntimeError(f"{self!r} has {len(lows)} lowest-weight elements")
            self._lowest = lows[0]
        return self._lowest

    def elements(self) -> range:
        return range(1, self.size + 1)

    def chain(self, b: int) -> Chain:
        return self._chains[b - 1]

    def weight(self, b: int) -> Coords:
        return self._weights[b - 1]

    def _check_colour(self, i: int) -> None:
        if not 1 <= i <= self.datum.rank:
            raise ValueError(f"invalid colour index {i} for {self.datum.label}")

    def f(self, i: int, b: int | None) -> int | None:
        self._check_colour(i)
        if b is None:
            return None
        return self._f.get((i, b))

    def e(self, i: int, b: int | None) -> int | None:
        self._check_colour(i)
        if b is None:
            return None
        return self._e.get((i, b))

    def eps(self, i: int, b: int) -> int:
        self._check_colour(i)
        return self._eps[i, b]

    def phi(self, i: int, b: int) -> int:
        self._check_colour(i)
        return self._phi[i, b]

    def __repr__(self) -> str:
        return f"Crystal({self.datum.label}, {self.highest_weight}, size={self.size})"


def highest_weight_crystal(
    datum: RootDatum, lam: Coords, size_cap: int = DEFAULT_SIZE_CAP
) -> Crystal:
    """Generate B(lam) by closing the straight-line path under root operators."""
    lam = tuple(lam)
    dim = weyl_dim(datum, lam)
    if dim > size_cap:
        raise ValueError(f"crystal of weight {lam} has {dim} elements, above cap {size_cap}")
    return _build_crystal(datum, lam, dim)


@memo
def _build_crystal(datum: RootDatum, lam: Coords, dim: int) -> Crystal:
    seed = _chain_from_steps([_to_q(lam)])
    chains = [seed]
    index = {seed: 1}
    f_edges: dict[tuple[int, int], int] = {}
    e_edges: dict[tuple[int, int], int] = {}
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
                j = len(chains)
                index[nxt] = j
            f_edges[i, b] = j
            e_edges[i, j] = b
        pos += 1
    if len(chains) != dim:
        raise RuntimeError(
            f"path model generated {len(chains)} elements for {lam}, expected {dim}"
        )
    return Crystal(datum, lam, chains, f_edges, e_edges)


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

    def _suffix_tables(self, i: int, t: tuple) -> tuple[list[int], list[int]]:
        n = len(t)
        eps_suf = [0] * (n + 1)
        phi_suf = [0] * (n + 1)
        for k in range(n - 1, -1, -1):
            factor = self.factors[k]
            ex = factor._eps[i, t[k]]
            px = factor._phi[i, t[k]]
            eps_suf[k] = ex + max(0, eps_suf[k + 1] - px)
            phi_suf[k] = phi_suf[k + 1] + max(0, px - eps_suf[k + 1])
        return eps_suf, phi_suf

    def eps(self, i: int, t: tuple) -> int:
        self._check_colour(i)
        return self._suffix_tables(i, t)[0][0]

    def phi(self, i: int, t: tuple) -> int:
        self._check_colour(i)
        return self._suffix_tables(i, t)[1][0]

    def f(self, i: int, t: TensorElement) -> TensorElement:
        if t is None:
            return None
        self._check_colour(i)
        eps_suf, phi_suf = self._suffix_tables(i, t)
        if phi_suf[0] == 0:
            return None
        last = len(t) - 1
        for k, factor in enumerate(self.factors):
            if k == last or factor._phi[i, t[k]] > eps_suf[k + 1]:
                moved = factor._f.get((i, t[k]))
                if moved is None:
                    raise RuntimeError(f"tensor rule lowers factor {k} of {t}, which is lowest")
                return t[:k] + (moved,) + t[k + 1 :]
        raise AssertionError("unreachable")

    def e(self, i: int, t: TensorElement) -> TensorElement:
        if t is None:
            return None
        self._check_colour(i)
        eps_suf, _ = self._suffix_tables(i, t)
        if eps_suf[0] == 0:
            return None
        last = len(t) - 1
        for k, factor in enumerate(self.factors):
            if k == last or factor._phi[i, t[k]] >= eps_suf[k + 1]:
                moved = factor._e.get((i, t[k]))
                if moved is None:
                    raise RuntimeError(f"tensor rule raises factor {k} of {t}, which is highest")
                return t[:k] + (moved,) + t[k + 1 :]
        raise AssertionError("unreachable")

    def eta(self, t: TensorElement) -> int:
        """Indicator of the Cartan component (0 on the absorbing value)."""
        return int(t in canonical_morphism(self, self))

    def __repr__(self) -> str:
        hw = "x".join(str(c.highest_weight) for c in self.factors)
        return f"TensorCrystal({self.datum.label}, {hw})"


def tensor_crystal(factors: Iterable[Crystal]) -> TensorCrystal:
    """Tensor product of crystals over one root datum (cached by weights)."""
    factors = tuple(factors)
    return tensor_of(_common_datum(factors), (c.highest_weight for c in factors))


def tensor_of(datum: RootDatum, weights: Iterable[Coords]) -> TensorCrystal:
    return _tensor_of(datum, tuple(map(tuple, weights)))


@memo
def _tensor_of(datum: RootDatum, weights: tuple[Coords, ...]) -> TensorCrystal:
    return TensorCrystal(highest_weight_crystal(datum, w) for w in weights)


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


def canonical_morphism(source, target, top=None) -> dict:
    """The unique crystal isomorphism from the component of ``top`` in source
    (default: its highest element) onto the component of ``target.highest``.

    Computed by a lockstep lowering walk from the two tops, so its keys are
    exactly the source component.  The element map is memoized and shared
    between callers; do not mutate it.
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
            if fx is not None and fx not in walk:
                walk[fx] = fy
                queue.append(fx)
    return walk


def cartan_project(tc: TensorCrystal, t: TensorElement) -> tuple[int, object]:
    """Indicator of the Cartan component together with the image under the
    unique surjective morphism onto the crystal of the total highest weight."""
    image = canonical_morphism(
        tc, highest_weight_crystal(tc.datum, tc.highest_weight)
    ).get(t)
    return (0, None) if image is None else (1, image)


def apply_kashiwara(crystal_like, direction: str, i: int, b):
    """Apply a Kashiwara operator ('lower' for F, 'raise' for E); None propagates."""
    if direction == "lower":
        return crystal_like.f(i, b)
    if direction == "raise":
        return crystal_like.e(i, b)
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")

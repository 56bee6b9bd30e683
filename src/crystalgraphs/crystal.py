"""Crystals of highest-weight modules, and their tensor products under the
Kashiwara two-factor rule.

B(lam) is built over the integers by lowering walks.  A minuscule or
quasi-minuscule crystal is read off its weights: f_i w = w - alpha_i where
<w, alpha_i^vee> = 1, and f_i runs alpha_i -> z_i -> -alpha_i through one
zero-weight element z_i per short simple root.  Every other B(lam) is the
component of a highest element in a tensor product of two smaller crystals.
Once built, a crystal keeps per colour one step table, b -> (eps_i b,
phi_i b, f_i b, e_i b), which f, e, eps, phi and the tensor rule all read.

The absorbing value 0 of crystal combinatorics is represented by ``None`` and
propagates through every operation.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterable, Iterator, Union

from .memo import memo
from .rootdata import (
    Coords,
    RootDatum,
    add_weights,
    neg_weights,
    sub_weights,
    weyl_dim,
)

SIZE_CAP = 100_000  # the most elements highest_weight_crystal builds


def _check_colour(datum: RootDatum, i: int) -> None:
    if not 1 <= i <= datum.rank:
        raise ValueError(f"invalid colour index {i} for {datum.label}")


class Crystal:
    """The crystal of an irreducible highest-weight module.

    Elements are integers 1..size, with 1 the highest-weight element; the
    indexing is the breadth-first discovery order from the highest-weight
    path, exploring colours in increasing order.  The crystal keeps its
    weights and, per colour i, its step table b -> (eps_i b, phi_i b, f_i b,
    e_i b), so f, e, eps and phi are one lookup each; the colour is checked
    only when that lookup misses.
    """

    def __init__(self, datum: RootDatum, highest_weight: Coords, weights: list[Coords],
                 f_edges: dict[int, dict[int, int]]):
        self.datum = datum
        self.highest_weight = highest_weight
        self._weights = weights
        self._steps = {}
        for i in datum.colours:
            down = f_edges[i]
            up = {j: b for b, j in down.items()}
            steps = self._steps[i] = {}
            for top in self.elements():  # each i-string, walked down from its top
                if top in up:
                    continue
                line = [top]
                while (b := down.get(line[-1])) is not None:
                    line.append(b)
                last = len(line) - 1
                for pos, b in enumerate(line):
                    steps[b] = (pos, last - pos, down.get(b), up.get(b))

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

    def f(self, i: int, b: int | None) -> int | None:
        try:
            return self._steps[i][b][2]
        except KeyError:
            _check_colour(self.datum, i)
            if b is not None:
                raise
            return None

    def e(self, i: int, b: int | None) -> int | None:
        try:
            return self._steps[i][b][3]
        except KeyError:
            _check_colour(self.datum, i)
            if b is not None:
                raise
            return None

    def eps(self, i: int, b: int) -> int:
        try:
            return self._steps[i][b][0]
        except KeyError:
            _check_colour(self.datum, i)
            raise

    def phi(self, i: int, b: int) -> int:
        try:
            return self._steps[i][b][1]
        except KeyError:
            _check_colour(self.datum, i)
            raise

    def __repr__(self) -> str:
        return f"Crystal({self.datum.label}, {self.highest_weight}, size={self.size})"


def over_cap(datum: RootDatum, lam: Coords) -> str | None:
    """Why B(lam) is too large to build, or None when it is within the cap."""
    dim = weyl_dim(datum, lam)
    if dim > SIZE_CAP:
        return f"crystal of weight {tuple(lam)} has {dim} elements, above cap {SIZE_CAP}"
    return None


def highest_weight_crystal(datum: RootDatum, lam: Coords) -> Crystal:
    """B(lam), built by integer lowering walks (see `_build_crystal`); the
    size cap is checked before anything is built."""
    lam = tuple(lam)
    reason = over_cap(datum, lam)
    if reason is not None:
        raise ValueError(reason)
    return _build_crystal(datum, lam, weyl_dim(datum, lam))


@memo
def _build_crystal(datum: RootDatum, lam: Coords, dim: int) -> Crystal:
    """B(lam) from one lowering walk, whose element count must be dim: on
    the weights when lam is minuscule or quasi-minuscule, else on the
    component of a highest element in a product of two smaller crystals."""
    walk = _small_walk(datum, lam)
    if walk is None:
        first, second, top = _factors(datum, lam)
        walk = _walk_down(datum, top, lam, TensorCrystal((first, second)).f)
    weights, f_edges = walk
    if len(weights) != dim:
        raise RuntimeError(f"lowering walk found {len(weights)} elements for {lam}, expected {dim}")
    return Crystal(datum, lam, weights, f_edges)


def _walk_down(datum: RootDatum, top, weight: Coords, lower) -> tuple[list, dict]:
    """The weights and f-edges of everything ``lower(i, x)`` (None where f_i
    vanishes) reaches from top, numbered 1.. in breadth-first order with
    colours in increasing order; each weight is its parent's minus alpha_i.
    The f-edges are one dict per colour, b -> f_i b.  The order depends only
    on the crystal graph, so every construction of B(lam) numbers its
    elements alike."""
    found, index, weights = [top], {top: 1}, [weight]
    f_edges = {i: {} for i in datum.colours}
    colours = [(i, datum.simple_root(i), f_edges[i]) for i in datum.colours]
    for b, x in enumerate(found, start=1):  # found grows as it is read
        for i, alpha, edges in colours:
            y = lower(i, x)
            if y is None:
                continue
            j = index.get(y)
            if j is None:
                found.append(y)
                j = index[y] = len(found)
                weights.append(sub_weights(weights[b - 1], alpha))
            edges[b] = j
    return weights, f_edges


def _small_walk(datum: RootDatum, lam: Coords) -> tuple[list, dict] | None:
    """The walk of B(lam) on its weights, or None unless lam is minuscule
    (the elements are the Weyl orbit) or quasi-minuscule (the short roots,
    and one zero-weight z_i per short simple root).  An element is (w, 0),
    or (0, i) for z_i: f_i w = w - alpha_i where <w, alpha_i^vee> = 1,
    f_i alpha_i = z_i, f_i z_i = -alpha_i, and no other f acts.  Any other
    lam has a weight that pairs to 2 or more with a simple coroot away from
    a simple root."""
    blocked = []

    def lower(i: int, x: tuple) -> tuple | None:
        w, z = x
        alpha = datum.simple_root(i)
        if z:
            return (neg_weights(alpha), 0) if z == i else None
        if w[i - 1] == 1:
            return sub_weights(w, alpha), 0
        if w[i - 1] >= 2:
            if w == alpha:
                return datum.zero, i
            blocked.append(w)
        return None

    walk = _walk_down(datum, (lam, 0), lam, lower)
    return None if blocked else walk


def _factors(datum: RootDatum, lam: Coords) -> tuple[Crystal, Crystal, tuple]:
    """(first, second, top) with B(lam) the component of the highest element
    top of first x second.

    A weight of two or more fundamentals splits as B(mu) x B(lam - mu), top
    (1, 1), with mu = floor(lam / 2) coordinatewise, or the first
    fundamental in lam when that is 0, so deep weights recurse only
    logarithmically.  A fundamental lam is B(varpi_k) x base, top (1, c),
    with wt(c) = lam - varpi_k and eps_i(c) <= <varpi_k, alpha_i^vee> for
    every i.  The base is the smallest fundamental crystal, minuscule or
    quasi-minuscule in every type, and k is found by closing outwards from
    the base over such tops, through fundamentals within the size cap,
    smallest first, so each fundamental is reached from the smallest one
    reached so far that has such a top.
    """
    if sum(lam) > 1:
        mu = tuple(x // 2 for x in lam)
        if not any(mu):
            mu = datum.fundamental_weights[next(k for k, x in enumerate(lam) if x)]
        first = highest_weight_crystal(datum, mu)
        return first, highest_weight_crystal(datum, sub_weights(lam, mu)), (1, 1)
    base_weight = min(datum.fundamental_weights, key=lambda w: weyl_dim(datum, w))
    base = highest_weight_crystal(datum, base_weight)
    parts = {base_weight: None}
    pending = [base_weight]
    while pending:
        k = min(pending, key=lambda w: weyl_dim(datum, w))
        pending.remove(k)
        for c in base.elements():
            w = add_weights(k, base.weight(c))
            if (
                w in datum.fundamental_weights
                and w not in parts
                and weyl_dim(datum, w) <= SIZE_CAP
                and all(base.eps(i, c) <= k[i - 1] for i in datum.colours)
            ):
                parts[w] = (k, c)
                pending.append(w)
    k, c = parts[lam]
    return highest_weight_crystal(datum, k), base, (1, c)


TensorElement = Union[tuple, None]


def _common_datum(factors: tuple[Crystal, ...]) -> RootDatum:
    if not factors:
        raise ValueError("tensor product needs at least one factor")
    datum = factors[0].datum
    if any(c.datum != datum for c in factors):
        raise ValueError("tensor factors live over different root data")
    return datum


class TensorCrystal:
    """Tensor product of irreducible crystals; elements are index tuples.

    The tensor rule reads the factors' step tables directly.  For a pair it
    is one comparison: f_i(c x b) = f_i c x b when phi_i(c) > eps_i(b), and
    c x f_i b otherwise; e_i(c x b) = c x e_i b when eps_i(b) > phi_i(c),
    and e_i c x b otherwise.  For n factors it is one pass of the signature
    rule: factor k reads as eps_k minus signs then phi_k plus signs, adjacent
    (+, -) pairs cancel, f_i lowers the factor of the leftmost plus left
    over (backward, the leftmost k whose phi exceeds the eps of the factors
    after it) and e_i raises the factor of the rightmost minus (forward, the
    rightmost k whose eps exceeds the phi of the factors before it).
    """

    def __init__(self, factors: Iterable[Crystal]):
        factors = tuple(factors)
        datum = _common_datum(factors)
        self.factors = factors
        self.datum = datum
        hw = datum.zero
        for c in factors:
            hw = add_weights(hw, c.highest_weight)
        self.highest_weight = hw
        # per colour, the step table of each factor
        self._steps = {i: tuple(c._steps[i] for c in factors) for i in datum.colours}
        self._pair = len(factors) == 2

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

    def _check_length(self, t: tuple) -> None:
        if len(t) != len(self.factors):
            raise ValueError(
                f"tensor element {t} has {len(t)} entries, expected {len(self.factors)}"
            )

    def weight(self, t: tuple) -> Coords:
        self._check_length(t)
        w = self.datum.zero
        for c, b in zip(self.factors, t):
            w = add_weights(w, c.weight(b))
        return w

    def _colour_steps(self, i: int) -> tuple:
        """The factors' step tables of colour i, checking i only on a miss."""
        try:
            return self._steps[i]
        except KeyError:
            _check_colour(self.datum, i)
            raise

    def _backward(self, steps: tuple, t: tuple) -> tuple[int, int]:
        """(eps_i of t, the factor f_i acts on, or -1 when f_i t = 0), in one
        backward pass of the signature rule over the colour's step tables."""
        self._check_length(t)
        eps, acts = 0, -1
        for k in range(len(t) - 1, -1, -1):
            ex, px, _, _ = steps[k][t[k]]
            if px > eps:
                eps, acts = ex, k
            else:
                eps += ex - px
        return eps, acts

    def _forward(self, steps: tuple, t: tuple) -> tuple[int, int]:
        """(phi_i of t, the factor e_i acts on, or -1 when e_i t = 0), in one
        forward pass of the signature rule over the colour's step tables."""
        self._check_length(t)
        phi, acts = 0, -1
        for k, x in enumerate(t):
            ex, px, _, _ = steps[k][x]
            if ex > phi:
                phi, acts = px, k
            else:
                phi += px - ex
        return phi, acts

    def f(self, i: int, t: TensorElement) -> TensorElement:
        try:  # inline, not _colour_steps: this is every lockstep walk's step
            steps = self._steps[i]
        except KeyError:
            _check_colour(self.datum, i)
            raise
        if t is None:
            return None
        if self._pair:
            c, b = t
            first, second = steps
            step = first[c]
            if step[1] > second[b][0]:
                return step[2], b
            fb = second[b][2]
            return None if fb is None else (c, fb)
        k = self._backward(steps, t)[1]
        if k < 0:
            return None
        return t[:k] + (steps[k][t[k]][2],) + t[k + 1 :]

    def e(self, i: int, t: TensorElement) -> TensorElement:
        steps = self._colour_steps(i)
        if t is None:
            return None
        if self._pair:
            c, b = t
            first, second = steps
            step = second[b]
            if step[0] > first[c][1]:
                return c, step[3]
            ec = first[c][3]
            return None if ec is None else (ec, b)
        k = self._forward(steps, t)[1]
        if k < 0:
            return None
        return t[:k] + (steps[k][t[k]][3],) + t[k + 1 :]

    def eps(self, i: int, t: tuple) -> int:
        return self._backward(self._colour_steps(i), t)[0]

    def phi(self, i: int, t: tuple) -> int:
        return self._forward(self._colour_steps(i), t)[0]

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
    map to f_i y.  When source and target are both pair products, both sides
    are lowered inline from the factors' step tables (`_pair_walk`); any
    other walk goes through ``f``.  The element map is memoized and shared
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
    if _is_pair(source) and _is_pair(target):
        return _pair_walk(source, top, target)
    walk = {top: target.highest}
    queue = [top]
    lower_source, lower_target = source.f, target.f
    for x in queue:  # queue grows as it is read
        y = walk[x]
        for i in colours:
            fx = lower_source(i, x)
            fy = lower_target(i, y)
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


def _is_pair(crystal) -> bool:
    return isinstance(crystal, TensorCrystal) and crystal._pair


def _pair_walk(source: TensorCrystal, top: tuple, target: TensorCrystal) -> dict:
    """The lockstep walk of `_walk` between two pair products, with the pair
    rule of `TensorCrystal.f` inlined on both sides: f_i(c x b) is
    (f_i c, b) when phi_i(c) > eps_i(b), else (c, f_i b), or None.  Each
    colour's four factor step tables are bound once; the checks are those
    of the generic walk."""
    tables = [source._steps[i] + target._steps[i] for i in source.datum.colours]
    walk = {top: target.highest}
    queue = [top]
    for x in queue:  # queue grows as it is read
        c, b = x
        d, a = walk[x]
        for first, second, first_t, second_t in tables:
            step = first[c]
            if step[1] > second[b][0]:
                fx = step[2], b
            else:
                fx = second[b][2]
                if fx is not None:
                    fx = c, fx
            step = first_t[d]
            if step[1] > second_t[a][0]:
                fy = step[2], a
            else:
                fy = second_t[a][2]
                if fy is not None:
                    fy = d, fy
            if fx is None:
                if fy is None:
                    continue
                raise RuntimeError("components are not isomorphic")
            if fy is None:
                raise RuntimeError("components are not isomorphic")
            seen = walk.get(fx)
            if seen is None:
                walk[fx] = fy
                queue.append(fx)
            elif seen != fy:
                raise RuntimeError("components are not isomorphic")
    return walk

"""The Cartan braiding on pairs of irreducible crystals, the induced partial
symmetric-group action, and the right ends."""

from __future__ import annotations

from typing import Iterable, Sequence

from .crystal import (
    Crystal,
    TensorCrystal,
    canonical_morphism,
    highest_weight_crystal,
    tensor_of,
)
from .rootdata import Coords, RootDatum, sub_weights


def pair_braiding(datum: RootDatum, lam: Coords, lamp: Coords) -> dict:
    """The braiding table of a pair of irreducible crystals.

    The canonical matching of the Cartan component of B(lam) x B(lamp) onto
    that of B(lamp) x B(lam): its keys are exactly that component, and a pair
    off it, where the braiding is zero, is missing (``.get`` reads None).  It
    is the memoized ``canonical_morphism`` dict itself; do not mutate it.
    """
    return canonical_morphism(tensor_of(datum, (lam, lamp)), tensor_of(datum, (lamp, lam)))


def sigma_word(tc: TensorCrystal, word: Sequence[int], b):
    """Compose the adjacent braidings sigma_k along a word of transposition
    indices (1-based, applied in list order); None propagates."""
    factors = list(tc.factors)
    n = len(factors)
    cur = b
    for k in word:
        if not 1 <= k <= n - 1:
            raise ValueError(f"transposition index {k} out of range for {n} factors")
        if cur is not None:
            left, right = factors[k - 1], factors[k]
            table = pair_braiding(tc.datum, left.highest_weight, right.highest_weight)
            image = table.get((cur[k - 1], cur[k]))
            cur = None if image is None else cur[: k - 1] + image + cur[k + 1 :]
        factors[k - 1], factors[k] = factors[k], factors[k - 1]
    return cur


def longest_permutation_word(n: int) -> tuple[int, ...]:
    """A reduced word for the order-reversing permutation of n letters."""
    word: list[int] = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return tuple(word)


def right_ends(crystal_like, b, weights: Iterable[Coords]):
    """For each mu in weights, the B(mu)-factor of b under the embedding of
    B(lam) into B(lam-mu) (x) B(mu); None off the Cartan component of the
    ambient product."""
    if b is None:
        return None
    datum = crystal_like.datum
    lam = crystal_like.highest_weight
    if isinstance(crystal_like, Crystal):
        source = crystal_like
    else:
        source = highest_weight_crystal(datum, lam)
        b = canonical_morphism(crystal_like, source).get(b)
        if b is None:
            return None
    ends = []
    for mu in weights:
        nu = sub_weights(lam, mu)
        if not datum.is_dominant(nu):
            raise ValueError(f"difference {nu} of {lam} and {mu} is not dominant")
        ends.append(canonical_morphism(source, tensor_of(datum, (nu, mu)))[b][1])
    return tuple(ends)

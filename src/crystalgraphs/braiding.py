"""The Cartan braiding on tensor products of crystals, the induced partial
symmetric-group action, and the left/right ends."""

from __future__ import annotations

from typing import Iterable, Sequence

from .crystal import (
    Crystal,
    TensorCrystal,
    canonical_morphism,
    highest_weight_crystal,
    raise_to_top,
    tensor_of,
)
from .memo import memo
from .rootdata import Coords, RootDatum, sub_weights


def pair_braiding(datum: RootDatum, lam: Coords, lamp: Coords) -> dict:
    """Full braiding table for a pair of irreducible crystals.

    Maps each element of B(lam) x B(lamp) to its image in B(lamp) x B(lam):
    the canonical matching of Cartan components, None elsewhere.
    """
    return _pair_braiding(datum, tuple(lam), tuple(lamp))


@memo
def _pair_braiding(datum: RootDatum, lam: Coords, lamp: Coords) -> dict:
    source = tensor_of(datum, (lam, lamp))
    match = canonical_morphism(source, tensor_of(datum, (lamp, lam)))
    return {t: match.get(t) for t in source.elements()}


def _standardize(crystal_like, element):
    """Locate an element inside its component, identified with the standalone
    crystal of the component's highest weight.

    Returns (component weight, standardized element, the element map into the
    standalone crystal, or None if the ambient object is already irreducible)."""
    if isinstance(crystal_like, Crystal):
        return crystal_like.highest_weight, element, None
    top = raise_to_top(crystal_like, element)
    mu = crystal_like.weight(top)
    to_std = canonical_morphism(
        crystal_like, highest_weight_crystal(crystal_like.datum, mu), top
    )
    return mu, to_std[element], to_std


def _restore(to_std, element) -> tuple:
    if to_std is None:
        return (element,)
    return next(x for x, y in to_std.items() if y == element)


def cartan_braiding(B, Bp, b, bp):
    """Braiding of products of irreducibles, evaluated at b (x) bp.

    The result is a flat tuple over the factors of Bp followed by those of B,
    or None.  Writing (lam, lamp) for the highest weights of B and Bp and
    (mu, mup) for those of the components containing b and bp, the value is
    zero unless the bilinear pairings (mu, mup) and (lam, lamp) agree, and is
    otherwise the canonical matching of the Cartan components of
    B(mu) (x) B(mup) and B(mup) (x) B(mu) transported along the component
    identifications.
    """
    if b is None or bp is None:
        return None
    datum = B.datum
    if Bp.datum != datum:
        raise ValueError("braiding operands live over different root data")
    lam, lamp = B.highest_weight, Bp.highest_weight
    mu, x, back = _standardize(B, b)
    mup, xp, backp = _standardize(Bp, bp)
    if datum.bilinear(mu, mup) != datum.bilinear(lam, lamp):
        return None
    image = pair_braiding(datum, mu, mup)[(x, xp)]
    if image is None:
        return None
    yp, y = image
    return _restore(backp, yp) + _restore(back, y)


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
            image = table[(cur[k - 1], cur[k])]
            cur = None if image is None else cur[: k - 1] + image + cur[k + 1 :]
        factors[k - 1], factors[k] = factors[k], factors[k - 1]
    return cur


def longest_permutation_word(n: int) -> tuple[int, ...]:
    """A reduced word for the order-reversing permutation of n letters."""
    word: list[int] = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return tuple(word)


def _ends(crystal_like, b, weights: Iterable[Coords], side: int):
    """For each mu in weights, the B(mu)-factor of b under the embedding of
    B(lam) into B(lam-mu) (x) B(mu) (side 1) or B(mu) (x) B(lam-mu) (side 0);
    None off the Cartan component of the ambient product."""
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
        pair = (nu, mu) if side else (mu, nu)
        ends.append(canonical_morphism(source, tensor_of(datum, pair))[b][side])
    return tuple(ends)


def right_end(crystal_like, b, mu: Coords):
    """The B(mu)-factor of b under the embedding into B(lam-mu) (x) B(mu)."""
    ends = _ends(crystal_like, b, (mu,), 1)
    return None if ends is None else ends[0]


def left_end(crystal_like, b, mu: Coords):
    """The B(mu)-factor of b under the embedding into B(mu) (x) B(lam-mu)."""
    ends = _ends(crystal_like, b, (mu,), 0)
    return None if ends is None else ends[0]


def right_ends(crystal_like, b, weights: Iterable[Coords]):
    """Tuple of right ends over a family of weights; None off the Cartan
    component of the ambient product."""
    return _ends(crystal_like, b, weights, 1)


def left_ends(crystal_like, b, weights: Iterable[Coords]):
    return _ends(crystal_like, b, weights, 0)

"""Exact root-system and Weyl-group arithmetic for the finite Cartan types.

Weights are integer coordinate tuples in the fundamental-weight basis, so the
natural pairing with a simple coroot is a coordinate lookup.  Everything
derived from the Cartan matrix (bilinear form, Weyl dimensions) is computed
over `fractions.Fraction`; no floating point enters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .memo import memo

Coords = tuple[int, ...]

WEYL_CAP = 51840  # the most elements weyl_group enumerates


class CartanTypeError(ValueError):
    """Raised for labels that do not name a finite Cartan type."""


class WeylSizeError(ValueError):
    """Raised when a Weyl group would exceed the enumeration cap."""


def parse_cartan_label(label: str) -> tuple[str, int]:
    """Parse a label like "A2" or "G2" into (family, rank)."""
    text = label.strip().upper()
    if len(text) < 2 or text[0] not in "ABCDEFG" or not text[1:].isdigit():
        raise CartanTypeError(
            f"{label!r} is not a finite Cartan type label (expected e.g. 'A2', 'C2', 'B3')"
        )
    family, rank = text[0], int(text[1:])
    low, high = {
        "A": (1, None),
        "B": (2, None),
        "C": (2, None),
        "D": (3, None),
        "E": (6, 8),
        "F": (4, 4),
        "G": (2, 2),
    }[family]
    if rank < low or (high is not None and rank > high):
        raise CartanTypeError(f"{family}{rank} is not a finite Cartan type")
    return family, rank


def _cartan_data(family: str, rank: int) -> tuple[list[list[int]], list[int]]:
    # a[i][j] = 2(alpha_i, alpha_j)/(alpha_i, alpha_i); d[i] = (alpha_i, alpha_i)/2
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def single(i: int, j: int) -> None:
        a[i][j] = a[j][i] = -1

    d = [1] * rank
    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            single(i, i + 1)
        if family == "B":  # last simple root short
            a[rank - 2][rank - 1] = -1
            a[rank - 1][rank - 2] = -2
            d = [2] * (rank - 1) + [1]
        elif family == "C":  # last simple root long
            a[rank - 2][rank - 1] = -2
            a[rank - 1][rank - 2] = -1
            d = [1] * (rank - 1) + [2]
    elif family == "D":
        for i in range(rank - 2):
            single(i, i + 1)
        single(rank - 3, rank - 1)
    elif family == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (6, 7), (7, 8)][: rank - 1]:
            single(i - 1, j - 1)
    elif family == "F":
        single(0, 1)
        a[1][2] = -1
        a[2][1] = -2
        single(2, 3)
        d = [2, 2, 1, 1]
    elif family == "G":
        a[0][1] = -3
        a[1][0] = -1
        d = [1, 3]
    for i in range(rank):
        for j in range(rank):
            if d[i] * a[i][j] != d[j] * a[j][i]:
                raise RuntimeError(f"{d} does not symmetrize the {family}{rank} Cartan matrix")
    return a, d


def _row_reduce(rows) -> tuple[list[list[Fraction]], int]:
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


def invert_rational(matrix: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Invert a square matrix by row reducing (matrix | identity)."""
    n = len(matrix)
    reduced, _ = _row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    )
    # a singular matrix leaves a pivot in the identity half
    if any(row[i] != 1 for i, row in enumerate(reduced)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def rational_rank(rows: list[tuple[Fraction, ...]]) -> int:
    """Rank of a matrix given as a list of rows, over the rationals."""
    return _row_reduce(rows)[1]


def _positive_roots(a: list[list[int]], rank: int) -> list[Coords]:
    # closure of the simple roots under simple reflections, keeping positives;
    # coordinates are in the simple-root basis
    roots = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        fresh = []
        for c in frontier:
            for i in range(rank):
                pairing = sum(c[j] * a[i][j] for j in range(rank))
                refl = list(c)
                refl[i] -= pairing
                t = tuple(refl)
                if all(x >= 0 for x in t) and t not in roots:
                    roots.add(t)
                    fresh.append(t)
        frontier = fresh
    return sorted(roots, key=lambda c: (sum(c), c))


class RootDatum(NamedTuple):
    """Cartan data of a finite type: matrix, symmetrizers, roots, weights."""

    label: str
    family: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizers: tuple[int, ...]
    simple_roots: tuple[Coords, ...]  # alpha_j in fundamental-weight coordinates
    fundamental_weights: tuple[Coords, ...]
    positive_roots: tuple[Coords, ...]  # fundamental-weight coordinates
    positive_root_coeffs: tuple[Coords, ...]  # simple-root coordinates
    rho: Coords
    gram: tuple[tuple[Fraction, ...], ...]  # (varpi_i, varpi_j)

    def __hash__(self) -> int:
        # every cache keyed by a datum hashes it; the label determines the
        # rest, so equal data hash alike without rehashing Fraction matrices
        return hash(self.label)

    @property
    def zero(self) -> Coords:
        return (0,) * self.rank

    @property
    def colours(self) -> range:
        return range(1, self.rank + 1)

    def simple_root(self, i: int) -> Coords:
        return self.simple_roots[i - 1]

    def fundamental_weight(self, i: int) -> Coords:
        return self.fundamental_weights[i - 1]

    def pairing(self, weight: Coords, i: int) -> int:
        """<weight, alpha_i^vee> in the fundamental-weight basis."""
        return weight[i - 1]

    def reflect(self, weight, i: int):
        """Simple reflection s_i applied to a weight (int or Fraction coords)."""
        c = weight[i - 1]
        alpha = self.simple_roots[i - 1]
        return tuple(w - c * ai for w, ai in zip(weight, alpha))

    def is_dominant(self, weight: Coords) -> bool:
        return all(x >= 0 for x in weight)

    def bilinear(self, mu: Coords, nu: Coords) -> Fraction:
        """Invariant bilinear form normalized so short roots have
        (alpha, alpha) = 2."""
        g = self.gram
        return sum(
            mu[i] * nu[j] * g[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
            if mu[i] and nu[j]
        ) or Fraction(0)


def add_weights(u: Coords, v: Coords) -> Coords:
    return tuple(a + b for a, b in zip(u, v))


def sub_weights(u: Coords, v: Coords) -> Coords:
    return tuple(a - b for a, b in zip(u, v))


def neg_weights(u: Coords) -> Coords:
    return tuple(-a for a in u)


@memo
def build_root_datum(label: str) -> RootDatum:
    """Construct the root datum for a label like "A2", "C2", "B3"."""
    family, rank = parse_cartan_label(label)
    a, d = _cartan_data(family, rank)
    ainv = invert_rational([[Fraction(x) for x in row] for row in a])
    pos_coeffs = _positive_roots(a, rank)
    simple = tuple(tuple(a[i][j] for i in range(rank)) for j in range(rank))

    def root_weight(coeffs: Coords) -> Coords:
        return tuple(
            sum(c * simple[j][i] for j, c in enumerate(coeffs)) for i in range(rank)
        )

    gram = tuple(
        tuple(d[j] * ainv[j][i] for j in range(rank)) for i in range(rank)
    )
    return RootDatum(
        label=f"{family}{rank}",
        family=family,
        rank=rank,
        cartan_matrix=tuple(tuple(row) for row in a),
        symmetrizers=tuple(d),
        simple_roots=simple,
        fundamental_weights=tuple(
            tuple(int(i == j) for i in range(rank)) for j in range(rank)
        ),
        positive_roots=tuple(root_weight(c) for c in pos_coeffs),
        positive_root_coeffs=tuple(pos_coeffs),
        rho=(1,) * rank,
        gram=gram,
    )


def weyl_dim(datum: RootDatum, lam: Coords) -> int:
    """Dimension of the irreducible module of highest weight lam (Weyl formula)."""
    return _weyl_dim(datum, tuple(lam))


@memo
def _weyl_dim(datum: RootDatum, lam: Coords) -> int:
    if len(lam) != datum.rank or not datum.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant for {datum.label}")
    d = datum.symmetrizers
    num = 1
    den = 1
    for coeffs in datum.positive_root_coeffs:
        num *= sum(c * dj * (lj + 1) for c, dj, lj in zip(coeffs, d, lam))
        den *= sum(c * dj for c, dj in zip(coeffs, d))
    dim, remainder = divmod(num, den)
    if remainder:
        raise RuntimeError(f"Weyl dimension formula is not integral at {lam}")
    return dim


class WeylElement(NamedTuple):
    images: tuple[Coords, ...]  # images of the fundamental weights
    word: tuple[int, ...]  # lexicographically least reduced word


class WeylGroup:
    """A finite Weyl group, fully enumerated with one reduced word per element."""

    def __init__(self, datum: RootDatum, elements: list[WeylElement]):
        self.datum = datum
        self.elements = tuple(elements)
        self.longest = len(elements) - 1

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def longest_word(self) -> tuple[int, ...]:
        return self.elements[self.longest].word

    def apply(self, k: int, weight: Coords) -> Coords:
        images = self.elements[k].images
        rank = self.datum.rank
        return tuple(
            sum(weight[j] * images[j][i] for j in range(rank)) for i in range(rank)
        )

    def word_action(self, word: tuple[int, ...]) -> tuple[Coords, ...]:
        """Images of the fundamental weights under s_{i_1} ... s_{i_k}."""
        images = list(self.datum.fundamental_weights)
        for i in reversed(word):
            images = [self.datum.reflect(w, i) for w in images]
        return tuple(images)

    def is_reduced_word_for_longest(self, word: tuple[int, ...]) -> bool:
        if len(word) != len(self.datum.positive_roots):
            return False
        if any(i < 1 or i > self.datum.rank for i in word):
            return False
        return self.word_action(word) == self.elements[self.longest].images

    def stabilizer_order(self, weight: Coords) -> int:
        return sum(1 for k in range(self.order) if self.apply(k, weight) == weight)


@memo
def weyl_group(datum: RootDatum) -> WeylGroup:
    """Enumerate the Weyl group by breadth-first closure of simple reflections.

    The stored word of each element is the lexicographically smallest among its
    shortest words; the last element enumerated is the longest element.
    """
    identity = WeylElement(datum.fundamental_weights, ())
    elements = [identity]
    seen = {identity.images: 0}
    frontier = [0]
    while frontier:
        fresh = []
        for k in frontier:
            el = elements[k]
            for i in datum.colours:
                # (w s_i)(varpi_j) differs from w(varpi_j) only at j = i
                w_alpha = tuple(
                    sum(
                        datum.simple_root(i)[m] * el.images[m][t]
                        for m in range(datum.rank)
                    )
                    for t in range(datum.rank)
                )
                images = list(el.images)
                images[i - 1] = sub_weights(images[i - 1], w_alpha)
                images = tuple(images)
                if images not in seen:
                    if len(elements) >= WEYL_CAP:
                        raise WeylSizeError(
                            f"Weyl group of {datum.label} exceeds the cap {WEYL_CAP}"
                        )
                    seen[images] = len(elements)
                    elements.append(WeylElement(images, el.word + (i,)))
                    fresh.append(seen[images])
        frontier = fresh
    group = WeylGroup(datum, elements)
    if len(group.longest_word) != len(datum.positive_roots):
        raise RuntimeError(f"longest word of {datum.label} is not of length |positive roots|")
    return group

"""Exact root-system and Weyl-group arithmetic for the finite Cartan types.

Weights are integer coordinate tuples in the fundamental-weight basis, so the
natural pairing with a simple coroot is a coordinate lookup.  Everything
derived from the Cartan matrix (roots, the order and longest word of the Weyl
group, Weyl dimensions, ranks) is integer arithmetic; no fraction or floating
point enters, and nothing enumerates the Weyl group.
"""

from __future__ import annotations

from typing import NamedTuple

from .memo import memo

Coords = tuple[int, ...]


class CartanTypeError(ValueError):
    """Raised for labels that do not name a finite Cartan type."""


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


def integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix given as a list of rows,
    by fraction-free (Bareiss) elimination: after each pivot every entry
    below it is a minor of the matrix, so each division is exact."""
    work = [list(row) for row in rows]
    rank, previous = 0, 1
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for r in range(rank + 1, len(work)):
            lead = work[r][col]
            work[r] = [(top[col] * x - lead * y) // previous for x, y in zip(work[r], top)]
        previous = top[col]
        rank += 1
    return rank


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

    def __hash__(self) -> int:
        # every cache keyed by a datum hashes it; the label determines the
        # rest, so equal data hash alike without rehashing the root lists
        return hash(self.label)

    @property
    def zero(self) -> Coords:
        return (0,) * self.rank

    @property
    def colours(self) -> range:
        return range(1, self.rank + 1)

    def simple_root(self, i: int) -> Coords:
        return self.simple_roots[i - 1]

    def pairing(self, weight: Coords, i: int) -> int:
        """<weight, alpha_i^vee> in the fundamental-weight basis."""
        return weight[i - 1]

    def reflect(self, weight: Coords, i: int) -> Coords:
        """Simple reflection s_i applied to a weight."""
        c = weight[i - 1]
        alpha = self.simple_roots[i - 1]
        return tuple(w - c * ai for w, ai in zip(weight, alpha))

    def is_dominant(self, weight: Coords) -> bool:
        return all(x >= 0 for x in weight)


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
    pos_coeffs = _positive_roots(a, rank)
    simple = tuple(tuple(a[i][j] for i in range(rank)) for j in range(rank))

    def root_weight(coeffs: Coords) -> Coords:
        return tuple(
            sum(c * simple[j][i] for j, c in enumerate(coeffs)) for i in range(rank)
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


class WeylGroup(NamedTuple):
    """The Weyl data the package reads, off the root datum alone: the order
    and the lexicographically least reduced word for the longest element."""

    datum: RootDatum
    order: int
    longest_word: tuple[int, ...]

    def is_reduced_word_for_longest(self, word: tuple[int, ...]) -> bool:
        """A word of |positive roots| letters is reduced for w0 exactly when
        s_{i_1} ... s_{i_k} sends rho to -rho: rho is regular, so only w0
        does."""
        if len(word) != len(self.datum.positive_roots):
            return False
        if any(i < 1 or i > self.datum.rank for i in word):
            return False
        x = self.datum.rho
        for i in reversed(word):
            x = self.datum.reflect(x, i)
        return x == neg_weights(self.datum.rho)


@memo
def weyl_group(datum: RootDatum) -> WeylGroup:
    """|W| and the longest word, with nothing enumerated.

    i is a left descent of w exactly when <w(rho), alpha_i^vee> < 0, so the
    least reduced word for w0 starts from w0(rho) = -rho, strips the least
    such i and repeats until rho.  |W| is the product over the positive
    roots of (ht + 1) / ht, which is the product of (m + 1) over the
    exponents m.
    """
    word, x = [], neg_weights(datum.rho)
    while x != datum.rho:  # x = w(rho) is regular, so it has a negative coordinate
        i = next(j for j, c in enumerate(x, start=1) if c < 0)
        word.append(i)
        x = datum.reflect(x, i)
    num = den = 1
    for coeffs in datum.positive_root_coeffs:
        num *= sum(coeffs) + 1
        den *= sum(coeffs)
    order, remainder = divmod(num, den)
    if remainder:
        raise RuntimeError(f"Weyl group order of {datum.label} is not integral")
    if len(word) != len(datum.positive_roots):
        raise RuntimeError(f"longest word of {datum.label} is not of length |positive roots|")
    return WeylGroup(datum, order, tuple(word))

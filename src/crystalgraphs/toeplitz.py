"""Exact arithmetic in tensor powers of the algebra generated by the right
shift T, with an integral torus-weight label on each pure tensor.

Each slot carries an element of the inverse semigroup of partial isometries
{T^a T*^b} ∪ {T^a P0 T*^b}, where P0 = 1 - T T* projects onto the bottom
basis vector.  A term is stored as one flat integer tuple
(a_1, b_1, p_1, ..., a_l, b_l, p_l, t_1, ..., t_r): p = 1 marks the P0 form
and t is the torus weight.  The product of two basis tensors is one basis
tensor or zero, slot by slot, so multiplication never cancels.

The stored basis is linearly dependent, T^a T*^b = T^(a-1) T*^(b-1) -
T^(a-1) P0 T*^(b-1), so equality, zero tests and degrees read a normal form
over the per-slot basis {T^n, T*^n} ∪ {E_ab = T^a P0 T*^b}, which is
linearly independent (a nonzero combination of the T^n and T*^n is not of
finite rank, and the E_ab are the matrix units).  With c = min(a, b),

    T^a T*^b = T^(a-c) T*^(b-c) - sum_{k<c} E_(a-c+k, b-c+k),

so a P0 slot, or a slot with c = 0, stays one term; normal-form keys keep
the stored layout.  The normal form is computed once per element;
arithmetic never rewrites.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class OperatorElement:
    """Integer combination of pure tensors over the per-slot basis
    {T^a T*^b} ∪ {T^a P0 T*^b}, with a torus label."""

    __slots__ = ("slots", "rank", "terms", "_normal")

    def __init__(self, slots: int, rank: int, terms: dict[tuple[int, ...], int]):
        self.slots = slots
        self.rank = rank
        self.terms = terms
        self._normal: dict[tuple[int, ...], int] | None = None

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, slots: int, rank: int) -> "OperatorElement":
        return cls(slots, rank, {})

    @classmethod
    def monomial(
        cls,
        monos: Sequence[tuple[int, ...]],
        tau: Sequence[int] | None = None,
        rank: int = 0,
        coeff: int = 1,
    ) -> "OperatorElement":
        """One pure tensor; each slot is (a, b) for T^a T*^b or (a, b, 1)
        for T^a P0 T*^b."""
        if tau is None:
            tau = (0,) * rank
        tau = tuple(tau)
        key: list[int] = []
        for a, b, *p in monos:
            key += (a, b, p[0] if p else 0)
        terms = {tuple(key) + tau: coeff} if coeff else {}
        return cls(len(monos), len(tau), terms)

    @classmethod
    def unit(cls, slots: int, rank: int) -> "OperatorElement":
        return cls.monomial(((0, 0),) * slots, (0,) * rank)

    # structure --------------------------------------------------------

    def normal_form(self) -> dict[tuple[int, ...], int]:
        """Normal form over the per-slot basis {T^n, T*^n} ∪ {T^a P0 T*^b}:
        keys in the stored layout with no slot (a, b, 0) where a, b > 0, zero
        coefficients dropped.  Computed once and shared, so callers must not
        mutate it."""
        if self._normal is not None:
            return self._normal
        starts = range(0, 3 * self.slots, 3)
        out: dict[tuple[int, ...], int] = {}
        for key, c in self.terms.items():
            partial = [((), c)]
            done = 0  # key[:done] is spliced into partial
            for s in starts:
                a, b = key[s], key[s + 1]
                if key[s + 2] or not (a and b):
                    continue
                k = min(a, b)
                a, b = a - k, b - k
                head = key[done:s]
                forms = [((a, b, 0), 1)] + [((a + j, b + j, 1), -1) for j in range(k)]
                partial = [(m + head + f, x * sign) for m, x in partial for f, sign in forms]
                done = s + 3
            tail = key[done:]
            for m, x in partial:
                key = m + tail
                acc = out.get(key, 0) + x
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        self._normal = out
        return out

    def __bool__(self) -> bool:
        return bool(self.normal_form())

    def degrees(self) -> set[tuple[int, ...]]:
        """Set of torus weights appearing in the support."""
        cut = 3 * self.slots
        return {key[cut:] for key in self.normal_form()}

    def supported_in(self, degrees: Iterable[tuple[int, ...]]) -> bool:
        """Whether every torus weight of the support lies in degrees, that is
        ``self.degrees() <= set(degrees)``.

        The normal form keeps each term's torus label, and terms of different
        labels never cancel, so only the stored terms labelled outside
        degrees are rewritten: the answer is whether they sum to 0.
        """
        allowed = set(degrees)
        cut = 3 * self.slots
        stray = {key: c for key, c in self.terms.items() if key[cut:] not in allowed}
        return not OperatorElement(self.slots, self.rank, stray)

    # arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "OperatorElement") -> None:
        if self.slots != other.slots or self.rank != other.rank:
            raise ValueError(
                f"incompatible shapes: {self.slots} slots/rank {self.rank} vs "
                f"{other.slots} slots/rank {other.rank}"
            )

    def __add__(self, other: "OperatorElement") -> "OperatorElement":
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            acc = terms.get(key, 0) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return OperatorElement(self.slots, self.rank, terms)

    def __mul__(self, other: "OperatorElement") -> "OperatorElement":
        """Slot by slot, (a, b, p)(c, d, r) is (a + c - b, d, p | r) when
        c >= b, zero if p = 1 and c != b; and (a, d + b - c, p) when c < b,
        zero if r = 1."""
        self._check_compatible(other)
        cut = 3 * self.slots
        slots = range(0, cut, 3)
        torus = range(cut, cut + self.rank)
        out: dict[tuple[int, ...], int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                parts: list[int] = []
                for s in slots:
                    b = k1[s + 1]
                    c = k2[s]
                    if c >= b:
                        if c != b and k1[s + 2]:
                            break
                        parts += (k1[s] + c - b, k2[s + 1], k1[s + 2] | k2[s + 2])
                    elif k2[s + 2]:
                        break
                    else:
                        parts += (k1[s], k2[s + 1] + b - c, k1[s + 2])
                else:
                    parts += [k1[t] + k2[t] for t in torus]
                    key = tuple(parts)
                    acc = out.get(key, 0) + c1 * c2
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return OperatorElement(self.slots, self.rank, out)

    def adjoint(self) -> "OperatorElement":
        """Slotwise (a, b, p) -> (b, a, p); negates the torus label."""
        cut = 3 * self.slots
        out = {}
        for key, c in self.terms.items():
            parts: list[int] = []
            for s in range(0, cut, 3):
                parts += (key[s + 1], key[s], key[s + 2])
            out[tuple(parts) + tuple(-x for x in key[cut:])] = c
        return OperatorElement(self.slots, self.rank, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperatorElement)
            and self.slots == other.slots
            and self.rank == other.rank
            and (self.terms == other.terms or self.normal_form() == other.normal_form())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"OperatorElement({self.slots}, {self.rank}, {self.terms})"


def string_slot(m: int, i: int, j: int) -> tuple[int, int, int] | None:
    """The basis slot (a, b, p) of the limit of the (i, j) matrix coefficient
    of a string of length m, or None where the limit is 0.

    Positions are counted from the top of the string, 0-based: the value is
    T^j P0 T*^(m-i) for i > j, T^i T*^(m-i) for i = j, and 0 for i < j.
    """
    if not (0 <= i <= m and 0 <= j <= m):
        raise ValueError(f"positions ({i}, {j}) out of range for string length {m}")
    if i < j:
        return None
    if i == j:
        return (i, m - i, 0)
    return (j, m - i, 1)


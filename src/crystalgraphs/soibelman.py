"""Shift-operator model of the crystal-limit generators, the vertex and path
projections of the graph algebra, and the machine verification suites.

Each generator is assembled from rank-one string data: the module restricted
to the SU(2) of one simple root splits into strings, and along a fixed reduced
word for the longest Weyl element the matrix-coefficient chains contribute one
tensor slot per letter, with the torus slot pinning the final index.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Sequence

from .braiding import pair_braiding
from .crystal import (
    Crystal,
    cartan_project,
    highest_weight_crystal,
    tensor_of,
)
from .hrgraph import ColourSet, GraphPath, HigherRankGraph, Vertex, graph_of
from .memo import memo
from .report import VerificationReport
from .rootdata import Coords, RootDatum, add_weights, neg_weights, weyl_group
from .toeplitz import OperatorElement, sl2_limit, string_slot


@memo
def strings(crystal: Crystal, i: int) -> list[list[int]]:
    """The i-strings of a crystal, each listed from its top element down."""
    out: list[list[int]] = []
    for b in crystal.elements():
        if crystal.eps(i, b) == 0:
            string = [b]
            cur = b
            while (cur := crystal.f(i, cur)) is not None:
                string.append(cur)
            out.append(string)
    return out


@memo
def string_data(crystal: Crystal, i: int) -> dict[int, tuple[int, int, int]]:
    """Per element: (string id, position from the top, string length)."""
    return {
        b: (sid, pos, len(string) - 1)
        for sid, string in enumerate(strings(crystal, i))
        for pos, b in enumerate(string)
    }


def restriction_limit(crystal: Crystal, i: int, a: int, b: int) -> OperatorElement:
    """Limit of the (a, b) matrix coefficient restricted to the SU(2) of
    colour i: zero across different i-strings, a string coefficient within."""
    data = string_data(crystal, i)
    sid_a, pos_a, length = data[a]
    sid_b, pos_b, _ = data[b]
    rank = crystal.datum.rank
    if sid_a != sid_b:
        return OperatorElement.zero(1, rank)
    return sl2_limit(length, pos_a, pos_b, rank)


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
        return self._generator(tuple(lam), a, kind)

    @memo
    def _generator(self, lam: Coords, a: int, kind: str) -> OperatorElement:
        if kind not in ("f", "v"):
            raise ValueError(f"kind must be 'f' or 'v', got {kind!r}")
        if kind == "v":
            return self.pi0_generator(lam, a, "f").adjoint()
        crystal = highest_weight_crystal(self.datum, lam)
        # element reached so far -> {slot triples of the letters read: coefficient}
        frontier: dict[int, dict[tuple[int, ...], int]] = {a: {(): 1}}
        for i in self.word:
            data = string_data(crystal, i)
            lines = strings(crystal, i)
            fresh: dict[int, dict[tuple[int, ...], int]] = {}
            for k, acc in frontier.items():
                sid, pos, length = data[k]
                line = lines[sid]
                for new_pos in range(pos + 1):  # on or below the diagonal: never 0
                    slot = string_slot(length, pos, new_pos)
                    out = fresh.setdefault(line[new_pos], {})
                    for key, c in acc.items():
                        key += slot
                        out[key] = out.get(key, 0) + c
            frontier = fresh
        value = frontier.get(crystal.highest, {})
        return OperatorElement(
            self.length, self.rank, {key + lam: c for key, c in value.items()}
        )

    def projection(self, colours: ColourSet, v: Vertex) -> OperatorElement:
        """P_v: the product over colours of v-generator times f-generator."""
        return self._projection(colours, tuple(v))

    @memo
    def _projection(self, colours: ColourSet, v: Vertex) -> OperatorElement:
        out = self.one
        for theta, b in zip(colours.colours, v):
            out = out * self.pi0_generator(theta, b, "v")
            out = out * self.pi0_generator(theta, b, "f")
        return out

    @memo
    def path_operator(self, colours: ColourSet, e: GraphPath) -> OperatorElement:
        """S_e = v-generator of the path element times P_{s(e)}."""
        lam = colours.weight_of(e.degree)
        return self.pi0_generator(lam, e.element, "v") * self.projection(colours, e.source)

    # verification -------------------------------------------------------

    def _default_lambdas(self, colours: ColourSet) -> list[Coords]:
        out = [self.datum.zero]
        for theta in colours.colours:
            if theta not in out:
                out.append(theta)
        if colours.rho not in out:
            out.append(colours.rho)
        return out

    def verify_relations(
        self, colours: ColourSet, lambdas: Sequence[Coords] | None = None
    ) -> VerificationReport:
        """Exact checks of the generator relations (R1)-(R4)."""
        report = VerificationReport()
        lams = [tuple(l) for l in (lambdas or self._default_lambdas(colours))]
        gen = self.pi0_generator

        cases = 0
        bad = ""
        for lam, lamp in iter_product(lams, lams):
            pair = tensor_of(self.datum, (lam, lamp))
            total = add_weights(lam, lamp)
            for i, j in pair.elements():
                eta, m = cartan_project(pair, (i, j))
                expected_f = gen(total, m, "f") if eta else self.zero
                expected_v = gen(total, m, "v") if eta else self.zero
                cases += 2
                if gen(lam, i, "f") * gen(lamp, j, "f") != expected_f:
                    bad = bad or f"f-product at {lam},{lamp},({i},{j})"
                if gen(lamp, j, "v") * gen(lam, i, "v") != expected_v:
                    bad = bad or f"v-product at {lam},{lamp},({i},{j})"
        report.add("R1 products collapse through the Cartan component", not bad, cases, bad)

        cases = 0
        bad = ""
        for lam, lamp in iter_product(lams, lams):
            table = pair_braiding(self.datum, lam, lamp)
            groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for (l, j), image in table.items():
                if image is not None:
                    k, i = image
                    groups.setdefault((i, j), []).append((k, l))
            size = highest_weight_crystal(self.datum, lam).size
            sizep = highest_weight_crystal(self.datum, lamp).size
            for i in range(1, size + 1):
                for j in range(1, sizep + 1):
                    lhs = gen(lam, i, "f") * gen(lamp, j, "v")
                    rhs = self.zero
                    for k, l in groups.get((i, j), ()):
                        rhs = rhs + gen(lamp, k, "v") * gen(lam, l, "f")
                    cases += 1
                    if lhs != rhs:
                        bad = bad or f"cross relation at {lam},{lamp},({i},{j})"
        report.add("R2 cross relations through the braiding", not bad, cases, bad)

        cases = 0
        bad = ""
        for lam in lams:
            size = highest_weight_crystal(self.datum, lam).size
            total = self.zero
            for i in range(1, size + 1):
                total = total + gen(lam, i, "v") * gen(lam, i, "f")
            cases += 1
            if total != self.one:
                bad = bad or f"sum over B({lam})"
        report.add("R3 unitality", not bad, cases, bad)

        cases = 0
        bad = ""
        for lam in lams:
            size = highest_weight_crystal(self.datum, lam).size
            for i in range(1, size + 1):
                cases += 1
                if gen(lam, i, "f").adjoint() != gen(lam, i, "v"):
                    bad = bad or f"adjoint pairing at {lam}, {i}"
        report.add("R4 adjoint pairing", not bad, cases, bad)
        return report

    def verify_graph_algebra(
        self, graph: HigherRankGraph, bound: Sequence[int]
    ) -> VerificationReport:
        """Exact checks of the graph-algebra relations KP1-KP4 and the grading.

        KP3 (S_e* S_f = delta_{e,f} P_s(e) for paths e, f of one degree)
        computes only its diagonal S_e* S_e = P_s(e).  The off-diagonal cases
        follow from this lemma in B(H), where ``adjoint`` is the true adjoint
        and two elements are equal exactly when their operators are (the
        normal-form monomials are linearly independent):

        - KP1: each P_v is a self-adjoint idempotent and P_v P_w = 0 for
          v != w.
        - The diagonal then makes each S_e a partial isometry, so
          Q_e = S_e S_e* is a projection.
        - KP4: the sum of Q_e over r(e) = v, d(e) = n is P_v.  A finite sum of
          projections that is itself a projection has pairwise orthogonal
          summands, so Q_e Q_f = 0 for e != f with one range.
        - For different ranges, S_e = P_r(e) S_e (the range half of KP2) and
          KP1 give Q_e Q_f = Q_e P_r(e) P_r(f) Q_f = 0.
        - Hence S_e* S_f = S_e* Q_e Q_f S_f = 0.

        KP3 passes only if all four premises hold: the diagonal, KP1, the
        range half of KP2 and KP4.  Its report counts the off-diagonal cases
        as implied, apart from the computed ones.  A failed premise fails KP3
        by name; nothing falls back to multiplying every pair.
        """
        report = VerificationReport()
        colours = graph.colours
        bound = tuple(bound)
        P = {v: self.projection(colours, v) for v in graph.vertices}

        bad = ""
        cases = 0
        for v in graph.vertices:
            cases += 2
            if P[v].adjoint() != P[v] or P[v] * P[v] != P[v]:
                bad = bad or f"P_{v} is not a self-adjoint idempotent"
        for v, w in iter_product(graph.vertices, graph.vertices):
            if v != w:
                cases += 1
                if P[v] * P[w] != self.zero:
                    bad = bad or f"P_{v} P_{w} != 0"
        total = self.zero
        for v in graph.vertices:
            total = total + P[v]
        cases += 1
        if total != self.one:
            bad = bad or "sum of vertex projections is not 1"
        kp1 = report.add("KP1 vertex projections", not bad, cases, bad)

        degrees = graph.nonzero_degrees(bound)
        S = {
            e: self.path_operator(colours, e)
            for degree in degrees
            for e in graph.paths(degree)
        }

        bad = ""
        cases = 0
        range_half = True  # S_e = P_r(e) S_e for every e, a premise of KP3
        for e, s_e in S.items():
            cases += 2
            in_range = P[graph.range(e)] * s_e == s_e
            range_half = range_half and in_range
            if not in_range or s_e * P[e.source] != s_e:
                bad = bad or f"vertex-path relation fails at {e}"
        ending_at: dict[Vertex, list[GraphPath]] = {}
        for e2 in S:
            ending_at.setdefault(graph.range(e2), []).append(e2)
        for e1 in S:
            for e2 in ending_at.get(e1.source, ()):
                degree = tuple(a + b for a, b in zip(e1.degree, e2.degree))
                if any(a > b for a, b in zip(degree, bound)):
                    continue
                cases += 1
                if S[e1] * S[e2] != self.path_operator(colours, graph.compose(e1, e2)):
                    bad = bad or f"composition relation fails at {e1}, {e2}"
        report.add("KP2 path composition", not bad, cases, bad)

        diagonal_bad = ""
        computed = implied = 0
        for degree in degrees:
            paths = graph.paths(degree)
            computed += len(paths)
            implied += len(paths) * (len(paths) - 1)
            for e in paths:
                if S[e].adjoint() * S[e] != P[e.source]:
                    diagonal_bad = diagonal_bad or f"isometry relation fails at {e}, {e}"

        kp4_bad = ""
        kp4_cases = 0
        for degree in degrees:
            by_range: dict[Vertex, list[GraphPath]] = {v: [] for v in graph.vertices}
            for e in graph.paths(degree):
                by_range[graph.range(e)].append(e)
            for v in graph.vertices:
                total = self.zero
                for e in by_range[v]:
                    total = total + S[e] * S[e].adjoint()
                kp4_cases += 1
                if total != P[v]:
                    kp4_bad = kp4_bad or f"range decomposition fails at {v}, degree {degree}"

        premises = {"KP1": kp1.passed, "the range half of KP2": range_half, "KP4": not kp4_bad}
        reasons = [diagonal_bad] if diagonal_bad else []
        reasons += [
            f"premise {premise} fails, so off-diagonal orthogonality is not certified"
            for premise, held in premises.items()
            if not held
        ]
        name = "KP3 orthogonal isometries"
        if reasons:
            report.add(name, False, computed, "; ".join(reasons))
        else:
            report.add(name, True, computed + implied, "", implied, "KP1+KP4")
        report.add("KP4 range decomposition", not kp4_bad, kp4_cases, kp4_bad)

        bad = ""
        cases = 0
        for v in graph.vertices:
            cases += 1
            if P[v].degrees() not in (set(), {(0,) * self.rank}):
                bad = bad or f"P_{v} is not gauge-invariant"
        for e, s_e in S.items():
            cases += 1
            lam = colours.weight_of(e.degree)
            if s_e.degrees() not in (set(), {neg_weights(lam)}):
                bad = bad or f"S_{e} is not homogeneous of degree {neg_weights(lam)}"
        report.add("grading: P_v invariant, S_e of degree -d(e)", not bad, cases, bad)
        return report

    def verify_suite(
        self,
        colours: ColourSet,
        bound: Sequence[int],
        lambdas: Sequence[Coords] | None = None,
    ) -> VerificationReport:
        """Relation checks (R1)-(R4) plus KP1-KP4 and the grading."""
        report = self.verify_relations(colours, lambdas)
        report.extend(self.verify_graph_algebra(graph_of(colours), bound))
        return report

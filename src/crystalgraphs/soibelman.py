"""Shift-operator model of the crystal-limit generators, the vertex and path
projections of the graph algebra, and the machine verification suites.

Each generator is assembled from rank-one string data: the module restricted
to the SU(2) of one simple root splits into strings, and along a fixed reduced
word for the longest Weyl element the matrix-coefficient chains contribute one
tensor slot per letter, with the torus slot pinning the final index.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .braiding import pair_braiding
from .crystal import Crystal, highest_weight_crystal
from .hrgraph import ColourSet, Degree, GraphPath, HigherRankGraph, Vertex, graph_of
from .memo import memo
from .report import Check, VerificationReport
from .rootdata import Coords, RootDatum, add_weights, neg_weights, weyl_group
from .toeplitz import OperatorElement, string_slot


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


def _irreducible_strings(crystal: Crystal, i: int) -> Callable[[int], tuple[int, int, list[int]]]:
    """The i-string reader of B(lam), from its own string tables: y -> (the
    position of y on its i-string from the top, the string's length, the
    string from y down: y, f_i y, f_i^2 y, ...)."""
    data = string_data(crystal, i)
    lines = strings(crystal, i)

    def below(y: int) -> tuple[int, int, list[int]]:
        sid, top, length = data[y]
        return top, length, lines[sid][top:]

    return below


def _component_strings(
    first: Crystal, second: Crystal, i: int
) -> Callable[[tuple[int, int]], tuple[int, int, list[tuple[int, int]]]]:
    """The i-string reader of B(lam) x B(lam'), from the string tables of its
    two factors by the tensor rule: with eps/phi the distances to the top and
    bottom of each factor's string, eps = eps1 + max(0, eps2 - phi1) and
    phi = phi2 + max(0, phi1 - eps2), and walking down the string f_i acts
    max(0, phi1 - eps2) times on the first factor, then on the second."""
    data1, lines1 = string_data(first, i), strings(first, i)
    data2, lines2 = string_data(second, i), strings(second, i)

    def below(y: tuple[int, int]) -> tuple[int, int, list[tuple[int, int]]]:
        y1, y2 = y
        sid1, eps1, length1 = data1[y1]
        sid2, eps2, length2 = data2[y2]
        phi1 = length1 - eps1
        moves = max(0, phi1 - eps2)
        top = eps1 + max(0, eps2 - phi1)
        line1 = lines1[sid1][eps1 : eps1 + moves + 1]
        low1 = line1[-1]
        string = [(x1, y2) for x1 in line1] + [(low1, x2) for x2 in lines2[sid2][eps2 + 1 :]]
        return top, top + len(string) - 1, string

    return below


def _mutually_inverse(table: dict, back: dict) -> bool:
    """Whether two partial maps (None where undefined) are mutually inverse
    partial bijections: back undoes table on its domain, and table undoes
    back on its."""
    return all(y is None or back[y] == x for x, y in table.items()) and all(
        x is None or table[x] == y for y, x in back.items()
    )


def _certified(
    report: VerificationReport,
    name: str,
    results: Iterable[str],
    implied: int = 0,
    implied_by: str = "",
    premises: dict[str, bool] | None = None,
) -> Check:
    """Add check `name` from its computed cases and its certificate, if any.

    `results` yields one entry per computed case: empty when the case holds,
    else why it fails; the first failure is the detail.  `implied` further
    cases follow from `premises` (name -> held) by the lemma `implied_by`.
    The check passes with computed + implied cases only when every computed
    case and every premise holds.  Otherwise it fails with the computed count
    alone and names the first failed case and each failed premise.
    """
    computed = 0
    failure = ""
    for result in results:
        computed += 1
        failure = failure or result
    reasons = [failure] if failure else []
    reasons += [
        f"premise {premise} fails, so {implied} implied cases are not certified"
        for premise, held in (premises or {}).items()
        if not held
    ]
    if reasons:
        return report.add(name, False, computed, "; ".join(reasons))
    return report.add(name, True, computed + implied, "", implied, implied_by)


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
        reach = self._sweep(crystal.highest, lam, lambda i: _irreducible_strings(crystal, i))
        return tuple(
            OperatorElement(self.length, self.rank, reach[a]) if a in reach else self.zero
            for a in crystal.elements()
        )

    @memo
    def _component_table(self, lam: Coords, lamp: Coords, kind: str) -> dict:
        """The generator images of the Cartan component C of B(lam) x B(lam'),
        keyed by its elements (i, j); kind 'f' or 'v'.

        The f-images come from `_sweep` over C from (1, 1) with the torus
        label lam+lam'; elements it does not reach have no key.  The v-images
        are their adjoints.  The sweep reads only string lengths and
        positions along the word, and the canonical isomorphism of C onto
        B(lam+lam') preserves both, so the image of x is term for term
        `pi0_generator(lam+lam', m, kind)` for the element m that x maps to.
        """
        if kind == "v":
            return {x: f.adjoint() for x, f in self._component_table(lam, lamp, "f").items()}
        first = highest_weight_crystal(self.datum, lam)
        second = highest_weight_crystal(self.datum, lamp)
        reach = self._sweep(
            (first.highest, second.highest),
            add_weights(lam, lamp),
            lambda i: _component_strings(first, second, i),
        )
        return {x: OperatorElement(self.length, self.rank, terms) for x, terms in reach.items()}

    def _sweep(
        self, highest: Hashable, label: Coords, reader: Callable[[int], Callable]
    ) -> dict[Hashable, dict[tuple[int, ...], int]]:
        """The f-image terms of a highest-weight crystal whose i-strings
        `reader(i)` reads, keyed by every element with a nonzero image.

        The f-image of x sums, over the paths that climb from x to the
        highest element one letter of the word at a time (at letter i, from
        z to any y at or above z on z's i-string), the key of one
        `string_slot` per letter followed by the torus label.  The paths are
        swept backward from the highest element over the reversed word, so
        only paths that reach it are ever built.
        """
        # element -> {slot triples of the letters still to read, then label: coefficient}
        reach: dict[Hashable, dict[tuple[int, ...], int]] = {highest: {label: 1}}
        for i in reversed(self.word):
            below = reader(i)
            fresh: dict[Hashable, dict[tuple[int, ...], int]] = {}
            for y, suffixes in reach.items():
                top, length, string = below(y)
                # on or below the diagonal: never 0
                for pos, x in enumerate(string, top):
                    slot = string_slot(length, pos, top)
                    out = fresh.setdefault(x, {})
                    for key, c in suffixes.items():
                        key = slot + key
                        out[key] = out.get(key, 0) + c
            reach = fresh
        return reach

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

    def _adjoint_pairing(self, lams: Iterable[Coords]) -> list[str]:
        """One result per element a of each B(lam): v_a = f_a* or why not."""
        gen = self.pi0_generator
        return [
            "" if gen(lam, a, "f").adjoint() == gen(lam, a, "v")
            else f"adjoint pairing at {lam}, {a}"
            for lam in lams
            for a in range(1, highest_weight_crystal(self.datum, lam).size + 1)
        ]

    def verify_relations(
        self, colours: ColourSet, lambdas: Sequence[Coords] | None = None
    ) -> VerificationReport:
        """Exact checks of the generator relations (R1)-(R4).

        R3 and R4 are multiplied out in full.  R1 and R2 multiply out one
        half of the cases that the adjoint pairs up and certify the other
        half by this lemma: ``adjoint`` is an anti-involution ((xy)* = y* x*,
        x** = x), and x == y exactly when x* == y* (equality compares the
        expansions over the linearly independent shift monomials, which the
        adjoint permutes).

        - R1 computes the f-products f_i f'_j = f_(i,j) over
          B(lam) x B(lam'), where f_(i,j) is the image of (i, j) in the
          component table of the Cartan component C, and 0 off C.  By the
          lemma of `_component_table`, f_(i,j) is f_m for the element m of
          B(lam+lam') that (i, j) maps to, so this is R1 as stated, with no
          B(lam+lam') built.  The adjoints are the v-products
          v'_j v_i = v_(i,j) (or 0).  Premises: R4 (v = f* on every B(lam) of
          the list) and v = f* on the component tables of each pair whose
          sum is not in the list; the latter are not counted as R4 cases.
          (For a sum in the list the same lemma reads v = f* off R4.)
        - R2 computes R2(lam, lam')(i, j) only for lam before lam' in the
          list and, for lam' the same entry as lam, only for i <= j.  The
          adjoint of R2(lam, lam')(i, j) is R2(lam', lam)(j, i).  Premises:
          R4, and the braiding tables of (lam, lam') and (lam', lam) are
          mutually inverse partial bijections, compared entry by entry.

        Each status line keeps the full case count, and the line below it
        gives the computed/implied split.  A failed premise fails its check
        by name with no implied cases; nothing falls back to multiplying
        every case out.
        """
        if lambdas is None:
            lambdas = self._default_lambdas(colours)
        lams = [tuple(l) for l in lambdas]
        if not lams:
            raise ValueError("verify_relations needs at least one weight")
        report = VerificationReport()
        gen = self.pi0_generator
        size = [highest_weight_crystal(self.datum, lam).size for lam in lams]
        # the entry pairs (a, b) with a <= b: R2 computes only these
        halves = [(a, b) for a in range(len(lams)) for b in range(a, len(lams))]

        r4 = self._adjoint_pairing(lams)
        table = self._component_table
        sums_paired = all(
            f.adjoint() == table(lam, lamp, "v")[x]
            for lam, lamp in iter_product(lams, lams)
            if add_weights(lam, lamp) not in lams
            for x, f in table(lam, lamp, "f").items()
        )
        inverse_braidings = all(
            _mutually_inverse(
                pair_braiding(self.datum, lams[a], lams[b]),
                pair_braiding(self.datum, lams[b], lams[a]),
            )
            for a, b in halves
        )

        def r1() -> Iterator[str]:
            for a, b in iter_product(range(len(lams)), repeat=2):
                lam, lamp = lams[a], lams[b]
                images = table(lam, lamp, "f")
                for i, j in iter_product(range(1, size[a] + 1), range(1, size[b] + 1)):
                    if gen(lam, i, "f") * gen(lamp, j, "f") == images.get((i, j), self.zero):
                        yield ""
                    else:
                        yield f"f-product at {lam},{lamp},({i},{j})"

        def r2() -> Iterator[str]:
            for a, b in halves:
                lam, lamp = lams[a], lams[b]
                groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
                for (l, j), image in pair_braiding(self.datum, lam, lamp).items():
                    if image is not None:
                        k, i = image
                        groups.setdefault((i, j), []).append((k, l))
                for i in range(1, size[a] + 1):
                    for j in range(i if a == b else 1, size[b] + 1):
                        lhs = gen(lam, i, "f") * gen(lamp, j, "v")
                        rhs = self.zero
                        for k, l in groups.get((i, j), ()):
                            rhs = rhs + gen(lamp, k, "v") * gen(lam, l, "f")
                        yield "" if lhs == rhs else f"cross relation at {lam},{lamp},({i},{j})"

        def r3() -> Iterator[str]:
            for lam, n in zip(lams, size):
                total = self.zero
                for i in range(1, n + 1):
                    total = total + gen(lam, i, "v") * gen(lam, i, "f")
                yield "" if total == self.one else f"sum over B({lam})"

        _certified(
            report,
            "R1 products collapse through the Cartan component",
            r1(),
            sum(size) ** 2,
            "adjoints under R4",
            {"R4": not any(r4), "v = f* at the sums lam+lam'": sums_paired},
        )
        _certified(
            report,
            "R2 cross relations through the braiding",
            r2(),
            sum(size[a] * size[b] for a, b in halves if a != b)
            + sum(n * (n - 1) // 2 for n in size),
            "adjoints under R4 and inverse braidings",
            {"R4": not any(r4), "inverse braidings": inverse_braidings},
        )
        _certified(report, "R3 unitality", r3())
        _certified(report, "R4 adjoint pairing", r4)
        return report

    def verify_graph_algebra(
        self, graph: HigherRankGraph, bound: Sequence[int]
    ) -> VerificationReport:
        """Exact checks of the graph-algebra relations KP1-KP4 and the grading.

        Two checks multiply out only part of their cases and certify the rest;
        each fails by name, with no implied cases, when a premise fails.

        - KP1 computes P_v P_w = 0 only for v before w.  P_w P_v is its
          adjoint, since each P_v is self-adjoint (computed in KP1 itself).
        - KP3 (S_e* S_f = delta_{e,f} P_s(e) for paths e, f of one degree)
          computes only its diagonal S_e* S_e = P_s(e).  The off-diagonal
          follows from this lemma in B(H), where ``adjoint`` is the true
          adjoint and two elements are equal exactly when their operators are
          (the normal-form monomials are linearly independent):

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

          Its premises are KP1, the range half of KP2 and KP4.

        KP2 keeps both vertex-path halves computed: S_e P_s(e) = S_e holds
        only by the way ``path_operator`` is built, which no certificate may
        assume.
        """
        report = VerificationReport()
        colours = graph.colours
        bound = tuple(bound)
        vertices = graph.vertices
        P = {v: self.projection(colours, v) for v in vertices}
        self_adjoint = {v: p.adjoint() == p for v, p in P.items()}

        def kp1() -> Iterator[str]:
            for v, p in P.items():
                fails = f"P_{v} is not a self-adjoint idempotent"
                yield "" if self_adjoint[v] else fails
                yield "" if p * p == p else fails
            for k, v in enumerate(vertices):
                for w in vertices[k + 1 :]:
                    yield "" if P[v] * P[w] == self.zero else f"P_{v} P_{w} != 0"
            total = self.zero
            for p in P.values():
                total = total + p
            yield "" if total == self.one else "sum of vertex projections is not 1"

        kp1_check = _certified(
            report,
            "KP1 vertex projections",
            kp1(),
            len(vertices) * (len(vertices) - 1) // 2,
            "adjoints of self-adjoint P_v",
            {"P_v = P_v*": all(self_adjoint.values())},
        )

        degrees = graph.nonzero_degrees(bound)
        S = {
            e: self.path_operator(colours, e)
            for degree in degrees
            for e in graph.paths(degree)
        }
        S_adj = {e: s.adjoint() for e, s in S.items()}
        # paths by (range, degree), each list in the order of S
        ending: dict[tuple[Vertex, Degree], list[GraphPath]] = {}
        for e in S:
            ending.setdefault((graph.range(e), e.degree), []).append(e)
        # for each degree d, the degrees d2 with d + d2 within the bound
        fits = {
            d: [d2 for d2 in degrees if all(x + y <= c for x, y, c in zip(d, d2, bound))]
            for d in degrees
        }
        in_range = {e: P[graph.range(e)] * s == s for e, s in S.items()}

        def kp2() -> Iterator[str]:
            for e, s in S.items():
                fails = f"vertex-path relation fails at {e}"
                yield "" if in_range[e] else fails
                yield "" if s * P[e.source] == s else fails
            for e1, s1 in S.items():
                for d2 in fits[e1.degree]:
                    for e2 in ending.get((e1.source, d2), ()):
                        if s1 * S[e2] == self.path_operator(colours, graph.compose(e1, e2)):
                            yield ""
                        else:
                            yield f"composition relation fails at {e1}, {e2}"

        def kp3_diagonal() -> Iterator[str]:
            for e, s in S.items():
                if S_adj[e] * s == P[e.source]:
                    yield ""
                else:
                    yield f"isometry relation fails at {e}, {e}"

        def kp4() -> Iterator[str]:
            for degree in degrees:
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

        kp4_results = list(kp4())  # a premise of KP3, reported after it
        _certified(report, "KP2 path composition", kp2())
        _certified(
            report,
            "KP3 orthogonal isometries",
            kp3_diagonal(),
            sum(len(graph.paths(d)) * (len(graph.paths(d)) - 1) for d in degrees),
            "KP1+KP4",
            {
                "KP1": kp1_check.passed,
                "the range half of KP2": all(in_range.values()),
                "KP4": not any(kp4_results),
            },
        )
        _certified(report, "KP4 range decomposition", kp4_results)
        _certified(report, "grading: P_v invariant, S_e of degree -d(e)", grading())
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

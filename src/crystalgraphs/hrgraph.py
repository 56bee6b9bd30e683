"""Higher-rank graphs built from right ends of crystal elements.

Vertices are tuples of right ends of B(rho_C); a path of degree lam is a pair
(vertex, element of B(lam)) subject to the per-colour Cartan-component
condition.  The graph is an infinite category; slices are materialized on
demand by degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, NamedTuple

from .braiding import right_ends
from .crystal import (
    canonical_morphism,
    highest_weight_crystal,
    tensor_of,
)
from .memo import memo
from .report import VerificationReport
from .rootdata import (
    Coords,
    RootDatum,
    add_weights,
    rational_rank,
    weyl_group,
)

Vertex = tuple[int, ...]
Degree = tuple[int, ...]

_DOT_PALETTE = (
    "red",
    "blue",
    "forestgreen",
    "darkorange",
    "purple",
    "saddlebrown",
    "deeppink",
    "teal",
)


def dot_colour(i: int) -> str:
    """The DOT edge colour of colour index i, counted from 1."""
    return _DOT_PALETTE[(i - 1) % len(_DOT_PALETTE)]


class ColourSet(NamedTuple):
    """An ordered tuple of linearly independent dominant weights."""

    datum: RootDatum
    colours: tuple[Coords, ...]

    @property
    def n(self) -> int:
        return len(self.colours)

    @property
    def rho(self) -> Coords:
        total = self.datum.zero
        for c in self.colours:
            total = add_weights(total, c)
        return total

    def weight_of(self, degree: Degree) -> Coords:
        return self._weight_of(tuple(degree))

    @memo
    def _weight_of(self, degree: Degree) -> Coords:
        if len(degree) != self.n or any(x < 0 for x in degree):
            raise ValueError(f"degree {degree} is outside the colour monoid")
        total = self.datum.zero
        for k, c in zip(degree, self.colours):
            total = add_weights(total, tuple(k * x for x in c))
        return total


def colour_set(datum: RootDatum, colours: Iterable[Coords]) -> ColourSet:
    colours = tuple(tuple(c) for c in colours)
    if not colours:
        raise ValueError("at least one colour is required")
    for c in colours:
        if len(c) != datum.rank or not datum.is_dominant(c) or not any(c):
            raise ValueError(f"colour {c} is not a nonzero dominant weight")
    rows = [tuple(Fraction(x) for x in c) for c in colours]
    if rational_rank(rows) != len(colours):
        raise ValueError("colours are not linearly independent")
    return ColourSet(datum, colours)


class GraphPath(NamedTuple):
    source: Vertex
    element: int
    degree: Degree


class HigherRankGraph:
    """The rank-N graph attached to a root datum and a colour set."""

    def __init__(self, colours: ColourSet):
        self.colours = colours
        self.datum = colours.datum
        rho_crystal = highest_weight_crystal(self.datum, colours.rho)
        verts = {
            right_ends(rho_crystal, b, colours.colours)
            for b in rho_crystal.elements()
        }
        self.vertices: tuple[Vertex, ...] = tuple(sorted(verts))
        self.vertex_ids = {v: k for k, v in enumerate(self.vertices)}

    @memo
    def _slice(self, degree: Degree) -> dict[GraphPath, Vertex]:
        """The paths of one degree, ordered by (source vertex, element), each
        mapped to its range.

        For each colour theta_i, the canonical matching of the Cartan components
        of B(theta_i) (x) B(lam) and B(lam) (x) B(theta_i), lam of the degree,
        has (v_i, b) as a key iff it lies in the Cartan component; the
        B(theta_i) factor of its image is the right end of the projection to
        B(theta_i+lam), that is the i-th entry of the range.
        """
        lam = self.colours.weight_of(degree)
        matchings = [
            canonical_morphism(
                tensor_of(self.datum, (theta, lam)), tensor_of(self.datum, (lam, theta))
            )
            for theta in self.colours.colours
        ]
        elements = highest_weight_crystal(self.datum, lam).elements()
        out = {}
        for v in self.vertices:
            for b in elements:
                images = [m.get((c, b)) for c, m in zip(v, matchings)]
                if None not in images:
                    out[GraphPath(v, b, degree)] = tuple(image[1] for image in images)
        return out

    def paths(self, degree: Degree) -> tuple[GraphPath, ...]:
        """All paths of the given degree, ordered by (source vertex, element)."""
        return tuple(self._slice(tuple(degree)))

    def range(self, e: GraphPath) -> Vertex:
        vertex = self._slice(e.degree).get(e)
        if vertex is None:
            raise ValueError(f"{e} is not a path of this graph")
        return vertex

    def compose(self, eprime: GraphPath, e: GraphPath) -> GraphPath:
        """The composite eprime . e (e traversed first); degrees add."""
        if self.range(e) != eprime.source:
            raise ValueError("paths are not composable: range/source mismatch")
        matching, degree = self._composition(e.degree, tuple(eprime.degree))
        if not any(e.degree):
            return eprime
        if not any(eprime.degree):
            return e
        image = matching.get((e.element, eprime.element))
        if image is None:
            raise RuntimeError("composition left the Cartan component")
        return GraphPath(e.source, image, degree)

    def compose_table(self, degree: Degree, degree_p: Degree) -> dict:
        """The table `compose` reads for a path e of `degree` followed by e'
        of `degree_p`, both nonzero: (element of e, element of e') -> the
        element of e'.e.  A composable pair that is not a key makes
        `compose` raise."""
        matching, _ = self._composition(tuple(degree), tuple(degree_p))
        if matching is None:
            raise ValueError("compose_table needs two nonzero degrees")
        return matching

    @memo
    def _composition(self, degree: Degree, degree_p: Degree) -> tuple[dict | None, Degree]:
        """For paths e of `degree` and e' of `degree_p`: the Cartan matching of
        B(lam) (x) B(lam') onto B(lam + lam') (None when either weight is 0)
        and the degree of e'.e."""
        lam = self.colours.weight_of(degree)
        lamp = self.colours.weight_of(degree_p)
        total = tuple(a + b for a, b in zip(degree, degree_p))
        if not any(lam) or not any(lamp):
            return None, total
        pair = tensor_of(self.datum, (lam, lamp))
        top = highest_weight_crystal(self.datum, pair.highest_weight)
        return canonical_morphism(pair, top), total

    def check_factorization(self, m: Degree, n: Degree) -> VerificationReport:
        """Unique factorization in degrees (m, n): every path f of degree
        m + n is e1.e2 for exactly one pair of a path e2 of degree n and a
        path e1 of degree m with r(e2) = s(e1), and r(f) = r(e1).  `compose`
        gives e1.e2 the source of e2, so s(f) = s(e2) holds when e1.e2 is a
        path at all.

        One case per path of degree m + n, which fails unless the path has
        exactly one factorization and keeps the range of its e1; each pair
        whose composite is no path of degree m + n adds a failed case."""
        m, n = tuple(m), tuple(n)
        total = tuple(a + b for a, b in zip(m, n))
        # the range r(e1) of each factorization of each path
        tops: dict[GraphPath, list[Vertex]] = {f: [] for f in self.paths(total)}
        strays = []
        by_source: dict[Vertex, list[GraphPath]] = {}
        for e1 in self.paths(m):
            by_source.setdefault(e1.source, []).append(e1)
        for e2 in self.paths(n):
            for e1 in by_source.get(self.range(e2), ()):
                try:
                    f = self.compose(e1, e2)
                except RuntimeError:  # the pair is not in the compose table
                    f = None
                found = tops.get(f)
                if found is None:
                    strays.append(f"{e1} after {e2} composes to no path of degree {total}")
                else:
                    found.append(self.range(e1))

        def results():
            for f, found in tops.items():
                if len(found) != 1:
                    yield f"path {f} has {len(found)} factorizations"
                elif found[0] != self.range(f):
                    yield (
                        f"path {f} has range {self.range(f)}, not the range {found[0]}"
                        f" of its factor of degree {m}"
                    )
                else:
                    yield ""
            yield from strays

        report = VerificationReport()
        report.certify(f"factorization {m}+{n}", results())
        return report

    def degree_counts_and_sources(self, bound: Degree) -> VerificationReport:
        """Row-finiteness and absence of sources/sinks up to a degree bound:
        one case per path of each degree, and a failed case for each vertex
        that is not both a range and a source there."""
        report = VerificationReport()
        for degree in iter_product(*(range(b + 1) for b in bound)):
            paths = self.paths(degree)
            with_range = {self.range(e) for e in paths}
            with_source = {e.source for e in paths}
            missing = [
                f"vertex {v} has no path"
                for v in self.vertices
                if v not in with_range or v not in with_source
            ]
            report.certify(f"no sources/sinks at degree {degree}", [""] * len(paths) + missing)
        return report

    def nonzero_degrees(self, bound: Degree) -> list[Degree]:
        out = [
            deg
            for deg in iter_product(*(range(b + 1) for b in bound))
            if any(deg)
        ]
        return sorted(out)

    def export_json(self, bound: Degree) -> str:
        data = {
            "type": self.datum.label,
            "colours": [list(c) for c in self.colours.colours],
            "vertices": [
                {"id": k, "tuple": list(v)} for k, v in enumerate(self.vertices)
            ],
            "paths": [
                {
                    "source": self.vertex_ids[e.source],
                    "degree": list(e.degree),
                    "element": e.element,
                    "range": self.vertex_ids[self.range(e)],
                }
                for degree in self.nonzero_degrees(bound)
                for e in self.paths(degree)
            ],
        }
        import json  # only JSON export pays for the import

        return json.dumps(data)

    def export_dot(self, bound: Degree) -> str:
        lines = ["digraph hrgraph {"]
        for k in range(len(self.vertices)):
            lines.append(f'  v{k} [label="v{k}"];')
        for i in range(self.colours.n):
            if bound[i] < 1:
                continue
            delta = tuple(int(j == i) for j in range(self.colours.n))
            colour = dot_colour(i + 1)
            for e in self.paths(delta):
                s = self.vertex_ids[e.source]
                r = self.vertex_ids[self.range(e)]
                lines.append(f'  v{s} -> v{r} [color="{colour}", label="{i + 1}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(datum: RootDatum, colours: Iterable[Coords]) -> HigherRankGraph:
    return HigherRankGraph(colour_set(datum, colours))


@memo
def graph_of(colours: ColourSet) -> HigherRankGraph:
    """The graph of a colour set, built once and shared, so that its slices
    are computed once however many suites run on it."""
    return HigherRankGraph(colours)


def weyl_vertex_map(graph: HigherRankGraph) -> dict[int, Vertex]:
    """Map each Weyl group element w to the right-end tuple of the extremal
    element of weight w(rho_C); injective on cosets of the stabilizer."""
    datum = graph.datum
    group = weyl_group(datum)
    rho = graph.colours.rho
    crystal = highest_weight_crystal(datum, rho)
    out: dict[int, Vertex] = {}
    for k, element in enumerate(group.elements):
        b = crystal.highest
        for i in reversed(element.word):
            for _ in range(crystal.phi(i, b)):
                b = crystal.f(i, b)
        out[k] = right_ends(crystal, b, graph.colours.colours)
    cosets = group.order // group.stabilizer_order(rho)
    if len(set(out.values())) != cosets:
        raise RuntimeError("Weyl vertex map is not injective on cosets")
    return out


def graph_tables_from_json(text: str):
    """Reconstruct (vertices, paths) tables from an export for round-tripping."""
    import json

    data = json.loads(text)
    vertices = tuple(tuple(entry["tuple"]) for entry in data["vertices"])
    paths = tuple(
        (entry["source"], tuple(entry["degree"]), entry["element"], entry["range"])
        for entry in data["paths"]
    )
    return vertices, paths

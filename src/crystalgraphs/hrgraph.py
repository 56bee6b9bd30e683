"""Higher-rank graphs built from right ends of crystal elements.

Vertices are tuples of right ends of B(rho_C): the B(theta) factor of each
element under the inverse of the Cartan projection of
B(rho_C - theta) (x) B(theta) onto B(rho_C), one projection per colour
theta.  A path of degree lam is a pair (vertex, element of B(lam)) subject to
the per-colour Cartan-component condition.  The graph is an infinite
category; slices are materialized on demand by degree, as one row per
source vertex (element -> range).  `GraphPath` is the view of a path that
`paths` and `range` offer callers; the slices, the export and the
factorization check key paths by (source, element) instead.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterable, NamedTuple

from .braiding import cartan_projection, pair_braiding
from .memo import memo
from .report import VerificationReport
from .rootdata import Coords, RootDatum, add_weights, integer_rank, sub_weights

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
    if integer_rank(colours) != len(colours):
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
        # each projection reaches all of B(rho_C) = 1..|B(rho_C)|, and
        # rho_C - theta, the sum of the other colours, is dominant; ends[k]
        # maps b - 1 to the B(theta_k) factor of b's key
        ends = []
        for theta in colours.colours:
            into = cartan_projection(self.datum, sub_weights(colours.rho, theta), theta)
            end = [0] * len(into)
            for (_, c), b in into.items():
                end[b - 1] = c
            ends.append(end)
        self.vertices: tuple[Vertex, ...] = tuple(sorted(set(zip(*ends))))
        self.vertex_ids = {v: k for k, v in enumerate(self.vertices)}

    @memo
    def _slice(self, degree: Degree) -> dict[Vertex, dict[int, Vertex]]:
        """The paths of one degree as one row per vertex, in the order of
        `vertices`: each row maps the elements of the paths from that vertex,
        ascending, to their ranges.

        For each colour theta_i, the braiding table of (theta_i, lam), lam of
        the degree, has (c, b) as a key iff it lies in the Cartan component;
        the B(theta_i) factor of its image is the right end of the projection
        to B(theta_i+lam), that is the i-th entry of the range.  The table is
        read into one row per entry c of B(theta_i), mapping each such b to
        that factor.  The paths from a vertex v are then the elements b that
        every row_i[v_i] has, in ascending order.
        """
        lam = self.colours.weight_of(degree)
        rows = []
        for theta in self.colours.colours:
            row: dict[int, dict[int, int]] = {}
            for (c, b), image in pair_braiding(self.datum, theta, lam).items():
                row.setdefault(c, {})[b] = image[1]
            rows.append(row)
        out = {}
        for v in self.vertices:
            hits = [row.get(c, {}) for row, c in zip(rows, v)]
            common = hits[0].keys()
            for hit in hits[1:]:
                common = common & hit.keys()
            common = sorted(common)
            columns = [list(map(hit.__getitem__, common)) for hit in hits]
            out[v] = dict(zip(common, zip(*columns)))
        return out

    def paths(self, degree: Degree) -> tuple[GraphPath, ...]:
        """All paths of the given degree, ordered by (source vertex, element)."""
        degree = tuple(degree)
        return tuple(
            GraphPath(v, b, degree) for v, row in self._slice(degree).items() for b in row
        )

    def range(self, e: GraphPath) -> Vertex:
        vertex = self._slice(e.degree).get(e.source, {}).get(e.element)
        if vertex is None:
            raise ValueError(f"{e} is not a path of this graph")
        return vertex

    def compose_table(self, degree: Degree, degree_p: Degree) -> dict:
        """The composition table of a path e of `degree` followed by e' of
        `degree_p`: (element of e, element of e') -> the element of e'.e,
        whose source is that of e.  It is the Cartan projection of
        B(lam) (x) B(lam') onto B(lam + lam'), lam and lam' the weights of
        the degrees; B(0) has the one element 1, so an identity composes as
        (1, b) -> b.  A composable pair that is not a key has no composite."""
        weight_of = self.colours.weight_of
        return cartan_projection(self.datum, weight_of(degree), weight_of(degree_p))

    def check_factorization(self, m: Degree, n: Degree) -> VerificationReport:
        """Unique factorization in degrees (m, n): every path f of degree
        m + n is e1.e2 for exactly one pair of a path e2 of degree n and a
        path e1 of degree m with r(e2) = s(e1), and r(f) = r(e1).  The
        composite e1.e2 is read off the compose table with the source of
        e2, so s(f) = s(e2) holds when e1.e2 is a path at all.

        One case per path of degree m + n, which fails unless the path has
        exactly one factorization and keeps the range of its e1; each pair
        whose composite is no path of degree m + n adds a failed case.  Paths
        are read off the slice rows by (source, element); a `GraphPath` is
        built only to name a failing case."""
        m, n = tuple(m), tuple(n)
        matching = self.compose_table(n, m)
        total = tuple(a + b for a, b in zip(m, n))
        rows = self._slice(total)
        rows_m = self._slice(m)
        # the range r(e1) of each factorization of each path, by (source, element)
        tops = {v: {b: [] for b in row} for v, row in rows.items()}
        strays = []
        for s2, row2 in self._slice(n).items():
            top = tops.get(s2, {})
            for b2, r2 in row2.items():
                for b1, r1 in rows_m.get(r2, {}).items():
                    image = matching.get((b2, b1))
                    found = None if image is None else top.get(image)
                    if found is None:
                        e1, e2 = GraphPath(r2, b1, m), GraphPath(s2, b2, n)
                        strays.append(f"{e1} after {e2} composes to no path of degree {total}")
                    else:
                        found.append(r1)

        def results():
            for v, top in tops.items():
                row = rows[v]
                for b, found in top.items():
                    if len(found) != 1:
                        yield f"path {GraphPath(v, b, total)} has {len(found)} factorizations"
                    elif found[0] != row[b]:
                        yield (
                            f"path {GraphPath(v, b, total)} has range {row[b]}, not the range"
                            f" {found[0]} of its factor of degree {m}"
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
        """Every nonzero degree up to bound, in lexicographic order."""
        return [deg for deg in iter_product(*(range(b + 1) for b in bound)) if any(deg)]

    def export_json(self, bound: Degree) -> str:
        """The graph as compact JSON: its type, colours and vertices, then one
        record per path of each nonzero degree within bound, in slice order.
        Each record is written straight from the slice rows."""
        import json  # only JSON export pays for the import

        head = {
            "type": self.datum.label,
            "colours": [list(c) for c in self.colours.colours],
            "vertices": [
                {"id": k, "tuple": list(v)} for k, v in enumerate(self.vertices)
            ],
        }
        ids = self.vertex_ids
        records = []
        for degree in self.nonzero_degrees(bound):
            tag = json.dumps(list(degree), separators=(",", ":"))
            for v, row in self._slice(degree).items():
                source = ids[v]
                records.extend(
                    f'{{"source":{source},"degree":{tag},"element":{b},"range":{ids[r]}}}'
                    for b, r in row.items()
                )
        head_text = json.dumps(head, separators=(",", ":"))
        # the head object without its closing brace, then the "paths" member
        return f'{head_text[:-1]},"paths":[{",".join(records)}]}}'

    def export_dot(self, bound: Degree) -> str:
        lines = ["digraph hrgraph {"]
        for k in range(len(self.vertices)):
            lines.append(f'  v{k} [label="v{k}"];')
        ids = self.vertex_ids
        for i in range(self.colours.n):
            if bound[i] < 1:
                continue
            delta = tuple(int(j == i) for j in range(self.colours.n))
            colour = dot_colour(i + 1)
            for v, row in self._slice(delta).items():
                s = ids[v]
                for r in row.values():
                    lines.append(f'  v{s} -> v{ids[r]} [color="{colour}", label="{i + 1}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

@memo
def graph_of(colours: ColourSet) -> HigherRankGraph:
    """The graph of a colour set, built once and shared, so that its slices
    are computed once however many suites run on it."""
    return HigherRankGraph(colours)


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

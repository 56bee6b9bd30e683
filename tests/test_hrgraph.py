import json
from itertools import product as iter_product

import pytest

from crystalgraphs.crystal import highest_weight_crystal, tensor_of
from crystalgraphs.hrgraph import (
    GraphPath,
    HigherRankGraph,
    colour_set,
    graph_of,
    graph_tables_from_json,
)
from crystalgraphs.rootdata import build_root_datum

from helpers import (
    composite,
    lowest,
    right_ends,
    scanned_slice,
    transport,
    weyl_bfs,
    weyl_vertex_map,
)

A2 = build_root_datum("A2")
C2 = build_root_datum("C2")

A2_VERTICES = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3))
A2_COLOUR1_EDGES = {
    (1, 1): 1,
    (2, 2): 1,
    (3, 1): 1,
    (3, 3): 1,
    (4, 2): 1,
    (4, 4): 1,
    (5, 2): 1,
    (5, 3): 1,
    (5, 5): 1,
    (6, 2): 1,
    (6, 4): 1,
    (6, 6): 1,
}


def a2_graph():
    return graph_of(colour_set(A2, A2.fundamental_weights))


def c2_graph():
    return graph_of(colour_set(C2, C2.fundamental_weights))


def test_colour_set_validation():
    with pytest.raises(ValueError):
        colour_set(A2, [(1, 0), (2, 0)])  # dependent
    with pytest.raises(ValueError):
        colour_set(A2, [(0, 0)])  # zero
    with pytest.raises(ValueError):
        colour_set(A2, [(-1, 1)])  # not dominant
    with pytest.raises(ValueError):
        colour_set(A2, [])
    cs = colour_set(A2, [(1, 0), (0, 1)])
    assert cs.rho == (1, 1)
    assert cs.weight_of((2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        cs.weight_of((1, -1))


def test_a2_vertex_table():
    assert a2_graph().vertices == A2_VERTICES


def test_c2_vertex_table():
    g = c2_graph()
    assert len(g.vertices) == 10
    assert set(g.vertices) == {
        (1, 1),
        (1, 2),
        (2, 1),
        (1, 3),
        (2, 4),
        (3, 2),
        (3, 3),
        (3, 5),
        (4, 4),
        (4, 5),
    }


@pytest.mark.parametrize(
    "label, colours",
    [
        ("A1", None),
        ("A2", None),
        ("C2", None),
        ("G2", None),
        ("B3", None),
        ("A4", None),
        ("C2", ((0, 1), (1, 0))),
        ("A2", ((2, 0), (0, 1))),
        ("B3", ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
    ],
)
def test_vertices_match_the_right_ends_oracle(label, colours):
    # the graph reads its vertices off the inverse Cartan projections; the
    # oracle walks each element of B(rho_C) into every B(rho_C - theta) x B(theta)
    datum = build_root_datum(label)
    cs = colour_set(datum, colours or datum.fundamental_weights)
    rho_crystal = highest_weight_crystal(datum, cs.rho)
    want = {right_ends(rho_crystal, b, cs.colours) for b in rho_crystal.elements()}
    assert graph_of(cs).vertices == tuple(sorted(want))


def test_a2_single_colour_sphere_graph():
    g = graph_of(colour_set(A2, [(1, 0)]))
    assert g.vertices == ((1,), (2,), (3,))
    edges = {(e.source[0], g.range(e)[0]) for e in g.paths((1,))}
    assert edges == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i >= j}
    assert len(g.paths((1,))) == 6
    loops = [e for e in g.paths((1,)) if g.range(e) == e.source]
    assert len(loops) == 3


def test_a2_colour1_edge_slice_matches_listing():
    g = a2_graph()
    paths = g.paths((1, 0))
    assert len(paths) == 12
    ids = g.vertex_ids
    got = {(ids[e.source] + 1, ids[g.range(e)] + 1) for e in paths}
    assert got == set(A2_COLOUR1_EDGES)
    # ordering by (source, element) reproduces the printed listing e_1..e_12
    assert [(ids[e.source] + 1, e.element) for e in paths] == [
        (1, 1),
        (2, 1),
        (3, 1),
        (3, 2),
        (4, 1),
        (4, 2),
        (5, 1),
        (5, 2),
        (5, 3),
        (6, 1),
        (6, 2),
        (6, 3),
    ]
    assert g.range(paths[7]) == g.vertices[2]  # e_8 : (v_5, v_3)


def test_degree_zero_paths_are_vertices():
    g = a2_graph()
    zeros = g.paths((0, 0))
    assert [e.source for e in zeros] == list(g.vertices)
    assert all(e.element == 1 for e in zeros)
    assert all(g.range(e) == e.source for e in zeros)


def test_paths_reject_bad_degrees():
    g = a2_graph()
    with pytest.raises(ValueError):
        g.paths((1,))
    with pytest.raises(ValueError):
        g.paths((-1, 0))


def test_path_validity_matches_rho_tensor_condition():
    g = a2_graph()
    rho_crystal = highest_weight_crystal(A2, (1, 1))

    reps = {}
    for c in rho_crystal.elements():
        reps.setdefault(right_ends(rho_crystal, c, g.colours.colours), []).append(c)
    for degree in [(1, 0), (0, 1), (1, 1)]:
        lam = g.colours.weight_of(degree)
        pair = tensor_of(A2, ((1, 1), lam))
        valid = {(e.source, e.element) for e in g.paths(degree)}
        for v in g.vertices:
            for b in highest_weight_crystal(A2, lam).elements():
                etas = {bool(pair.eta((c, b))) for c in reps[v]}
                assert len(etas) == 1  # independent of the representative
                assert (((v, b) in valid)) == etas.pop()


def test_range_matches_projection_then_right_end():
    # the old route: project (v_i, b) into B(theta_i + lam), then embed that
    # into B(lam) (x) B(theta_i) and keep the B(theta_i) factor
    for datum in (A2, C2):
        g = graph_of(colour_set(datum, datum.fundamental_weights))
        for degree in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            lam = g.colours.weight_of(degree)
            for i, theta in enumerate(g.colours.colours):
                pair = tensor_of(datum, (theta, lam))
                total = highest_weight_crystal(datum, pair.highest_weight)
                swapped = tensor_of(datum, (lam, theta))
                for e in g.paths(degree):
                    projected = transport(
                        pair, pair.highest, total, 1, (e.source[i], e.element)
                    )
                    end = transport(total, 1, swapped, swapped.highest, projected)
                    assert g.range(e)[i] == end[1]


def test_range_rejects_paths_off_the_cartan_component():
    g = a2_graph()
    valid = set(g.paths((1, 0)))
    crystal = highest_weight_crystal(A2, (1, 0))
    bad = [
        GraphPath(v, b, (1, 0))
        for v in g.vertices
        for b in crystal.elements()
        if GraphPath(v, b, (1, 0)) not in valid
    ]
    assert bad
    for e in bad:
        with pytest.raises(ValueError):
            g.range(e)


def test_compose_identity_and_degree_additivity():
    g = a2_graph()
    edges = g.paths((1, 0))
    # a path of degree 0 is an identity: B(0) has the one element 1, so its
    # table is (1, b) -> b on either side, and each edge is its own one
    # factorization against the identities at either end
    elements = highest_weight_crystal(A2, (1, 0)).elements()
    assert g.compose_table((0, 0), (0, 0)) == {(1, 1): 1}
    assert g.compose_table((0, 0), (1, 0)) == {(1, b): b for b in elements}
    assert g.compose_table((1, 0), (0, 0)) == {(b, 1): b for b in elements}
    for degree, degree_p in (((0, 0), (1, 0)), ((1, 0), (0, 0))):
        check = g.check_factorization(degree_p, degree).checks[0]
        assert check.passed and check.cases == len(edges)
    loops = [e for e in edges if g.range(e) == e.source == g.vertices[0]]
    assert len(loops) == 1
    square = composite(g, loops[0], loops[0])
    assert square == GraphPath(g.vertices[0], 1, (2, 0))
    assert g.range(square) == g.vertices[0]


@pytest.mark.parametrize(
    "label, bound, order",
    [
        ("A2", (2, 2), (0, 1)),
        ("B2", (1, 2), (0, 1)),
        ("G2", (2, 1), (0, 1)),
        ("A3", (1, 1, 1), (0, 1, 2)),
        ("C2", (2, 1), (0, 1)),
        ("C2", (2, 1), (1, 0)),
    ],
)
def test_slices_match_the_scan_in_order(label, bound, order):
    datum = build_root_datum(label)
    g = graph_of(colour_set(datum, [datum.fundamental_weights[k] for k in order]))
    for degree in iter_product(*(range(b + 1) for b in bound)):
        assert list(g._slice(degree).items()) == list(scanned_slice(g, degree).items())


@pytest.mark.parametrize("degrees", [((1, 0), (0, 1)), ((0, 0), (1, 1)), ((1, 1), (1, 0))])
def test_factorization_small_splits(degrees):
    g = a2_graph()
    m, n = degrees
    report = g.check_factorization(m, n)
    assert report.passed, str(report)


def test_factorization_c2_single_colours():
    report = c2_graph().check_factorization((1, 0), (1, 0))
    assert report.passed, str(report)


def test_a_pair_missing_from_the_compose_table_fails_factorization_by_name(monkeypatch):
    g = a2_graph()
    # e of degree (0, 1), then e' of degree (1, 0): the first composable pair
    e = g.paths((0, 1))[0]
    eprime = next(f for f in g.paths((1, 0)) if f.source == g.range(e))
    lost = composite(g, eprime, e)
    original = HigherRankGraph.compose_table

    def short(self, degree, degree_p):
        matching = original(self, degree, degree_p)
        if (degree, degree_p) == ((0, 1), (1, 0)):
            matching = {k: v for k, v in matching.items() if k != (e.element, eprime.element)}
        return matching

    # the table keys elements, so every composable pair of these two
    # elements, at any source, loses its composite
    pairs = [
        (f, d)
        for d in g.paths((0, 1))
        for f in g.paths((1, 0))
        if (d.element, f.element) == (e.element, eprime.element) and f.source == g.range(d)
    ]
    monkeypatch.setattr(HigherRankGraph, "compose_table", short)
    check = g.check_factorization((1, 0), (0, 1)).checks[0]
    # each composite has no factorization left, and each pair adds a failed case
    assert not check.passed and check.failed == 2 * len(pairs)
    assert check.cases == len(g.paths((1, 1))) + len(pairs)
    assert check.detail.startswith(f"path {lost} has 0 factorizations")


def test_no_sources_or_sinks_and_loops():
    g = a2_graph()
    report = g.degree_counts_and_sources((1, 1))
    assert report.passed, str(report)
    # every A2 vertex carries a loop of each colour
    for degree in [(1, 0), (0, 1)]:
        loops = {e.source for e in g.paths(degree) if g.range(e) == e.source}
        assert loops == set(g.vertices)


def test_c2_loopless_vertices_still_have_paths():
    g = c2_graph()
    report = g.degree_counts_and_sources((1, 1))
    assert report.passed, str(report)
    for v in [(1, 3), (3, 3)]:
        for degree in [(1, 0), (0, 1)]:
            assert not any(
                e.source == v and g.range(e) == v for e in g.paths(degree)
            )
            assert any(g.range(e) == v for e in g.paths(degree))
            assert any(e.source == v for e in g.paths(degree))


def _below(g):
    """The componentwise lowering-reachability order on vertices: v <= w iff
    each v_i is reachable from w_i by lowering operators in B(theta_i)."""
    reach = []
    for theta in g.colours.colours:
        crystal = highest_weight_crystal(g.datum, theta)
        table = {}
        for b in crystal.elements():
            seen, queue = {b}, [b]
            while queue:
                x = queue.pop()
                for i in g.datum.colours:
                    y = crystal.f(i, x)
                    if y is not None and y not in seen:
                        seen.add(y)
                        queue.append(y)
            table[b] = seen
        reach.append(table)
    return lambda v, w: all(x in table[y] for x, y, table in zip(v, w, reach))


def test_source_below_range_and_extreme_vertices():
    for g in (a2_graph(), c2_graph()):
        leq = _below(g)
        top = (1,) * g.colours.n
        bottom = tuple(lowest(highest_weight_crystal(g.datum, c)) for c in g.colours.colours)
        for degree in [(1, 0), (0, 1), (1, 1)]:
            for e in g.paths(degree):
                assert leq(e.source, g.range(e))
        assert top in g.vertices
        assert bottom in g.vertices
        for v in g.vertices:
            assert leq(v, top)
            assert leq(bottom, v)


def test_weyl_vertex_map_a2_bijection():
    g = a2_graph()
    table = weyl_vertex_map(g)
    group = weyl_bfs(A2)
    assert len(table) == group.order == 6
    assert set(table.values()) == set(g.vertices)
    assert table[0] == (1, 1)  # identity hits the top tuple


def test_weyl_vertex_map_c2_image():
    g = c2_graph()
    table = weyl_vertex_map(g)
    image = set(table.values())
    assert len(image) == 8
    assert set(g.vertices) - image == {(1, 3), (3, 3)}


def test_weyl_vertex_map_minuscule_type_a_factor_tuples():
    # in type A every fundamental crystal is minuscule: the vertex of w is the
    # factor tuple of the extremal element itself
    for label in ("A2", "A3"):
        datum = build_root_datum(label)
        g = graph_of(colour_set(datum, datum.fundamental_weights))
        rho = g.colours.rho
        crystal = highest_weight_crystal(datum, rho)
        tensor = tensor_of(datum, g.colours.colours)
        from crystalgraphs.crystal import canonical_morphism

        iso = canonical_morphism(crystal, tensor)
        group = weyl_bfs(datum)
        table = weyl_vertex_map(g)
        for k in range(group.order):
            extremal = [
                b
                for b in crystal.elements()
                if crystal.weight(b) == group.apply(k, rho)
            ]
            assert len(extremal) == 1
            assert table[k] == iso[extremal[0]]


def test_export_dot_counts():
    g = a2_graph()
    dot = g.export_dot((1, 1))
    assert dot.count("label=\"1\"") == 12
    assert dot.count("label=\"2\"") == 12
    assert dot.count("[label=\"v") == 6
    vertex_only = g.export_dot((0, 0))
    assert "->" not in vertex_only
    assert vertex_only.count("[label=\"v") == 6


def test_export_json_round_trip_and_determinism():
    g = a2_graph()
    text = g.export_json((1, 1))
    vertices, paths = graph_tables_from_json(text)
    assert vertices == g.vertices
    expected_paths = tuple(
        (g.vertex_ids[e.source], e.degree, e.element, g.vertex_ids[g.range(e)])
        for degree in [(0, 1), (1, 0), (1, 1)]
        for e in g.paths(degree)
    )
    assert paths == expected_paths
    # byte-identical on a fresh graph over the same data
    again = HigherRankGraph(colour_set(A2, A2.fundamental_weights)).export_json((1, 1))
    assert text == again
    # compact: no whitespace between tokens
    assert text == json.dumps(json.loads(text), separators=(",", ":"))

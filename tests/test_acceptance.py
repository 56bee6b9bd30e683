"""Acceptance suite: golden tables and exhaustive property checks, with one
printed pass/fail line and a wall-clock budget per criterion."""

import time
from itertools import permutations, product as iter_product

from crystalgraphs.braiding import pair_braiding, sigma_word
from crystalgraphs.crystal import highest_weight_crystal, tensor_of
from crystalgraphs.hrgraph import colour_set, graph_of, weyl_vertex_map
from crystalgraphs.rootdata import build_root_datum, weyl_dim, weyl_group
from crystalgraphs.soibelman import SoibelmanModel

from helpers import cartan_braiding, monomial_matrix


def _report(number: int, limit: float, started: float, description: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {limit:.0f}s) {description}")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_01_su3_vertex_table():
    start = time.perf_counter()
    graph = graph_of(colour_set(build_root_datum("A2"), [(1, 0), (0, 1)]))
    assert graph.vertices == ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3))
    _report(1, 1.0, start, "SU(3) vertex table equals the six right ends")


def test_criterion_02_su3_edge_slices():
    start = time.perf_counter()
    graph = graph_of(colour_set(build_root_datum("A2"), [(1, 0), (0, 1)]))
    v = {k + 1: vertex for k, vertex in enumerate(graph.vertices)}
    expected_colour1 = sorted(
        (v[s], v[r])
        for s, r in [
            (1, 1), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4),
            (5, 2), (5, 3), (5, 5), (6, 2), (6, 4), (6, 6),
        ]
    )
    paths1 = graph.paths((1, 0))
    assert len(paths1) == 12
    got1 = sorted((e.source, graph.range(e)) for e in paths1)
    assert got1 == expected_colour1
    # the second colour is the Dynkin-diagram mirror of the first
    mirror = lambda vertex: (vertex[1], vertex[0])
    expected_colour2 = sorted((mirror(s), mirror(r)) for s, r in expected_colour1)
    paths2 = graph.paths((0, 1))
    assert len(paths2) == 12
    got2 = sorted((e.source, graph.range(e)) for e in paths2)
    assert got2 == expected_colour2
    _report(2, 1.0, start, "SU(3) colour slices match the edge listing and its mirror")


def test_criterion_03_su3_braiding_table():
    start = time.perf_counter()
    a2 = build_root_datum("A2")
    table = pair_braiding(a2, (1, 0), (0, 1))
    assert {t: table.get(t) for t in tensor_of(a2, ((1, 0), (0, 1))).elements()} == {
        (1, 1): (1, 1),
        (2, 1): (1, 2),
        (3, 1): (2, 2),
        (1, 2): (2, 1),
        (2, 2): (3, 1),
        (3, 2): (2, 3),
        (1, 3): None,
        (2, 3): (3, 2),
        (3, 3): (3, 3),
    }
    _report(3, 1.0, start, "SU(3) Cartan braiding table, including s(a1 x b3) = 0")


def test_criterion_04_c2_graph():
    start = time.perf_counter()
    graph = graph_of(colour_set(build_root_datum("C2"), [(1, 0), (0, 1)]))
    assert len(graph.vertices) == 10
    table = weyl_vertex_map(graph)
    image = set(table.values())
    assert len(image) == 8
    extra = set(graph.vertices) - image
    assert extra == {(1, 3), (3, 3)}
    for vertex in extra:
        for degree in [(1, 0), (0, 1)]:
            assert not any(
                e.source == vertex and graph.range(e) == vertex
                for e in graph.paths(degree)
            )
    _report(4, 5.0, start, "C2 graph: 10 vertices, two loopless non-Weyl vertices")


def test_criterion_05_sphere_graph():
    start = time.perf_counter()
    graph = graph_of(colour_set(build_root_datum("A2"), [(1, 0)]))
    edges = sorted((e.source[0], graph.range(e)[0]) for e in graph.paths((1,)))
    assert edges == sorted((i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i >= j)
    assert len(edges) == 6
    assert sum(1 for s, r in edges if s == r) == 3
    _report(5, 1.0, start, "sphere graph: one edge b_i -> b_j per i >= j")


def test_criterion_06_factorization():
    start = time.perf_counter()
    bound = (2, 2)
    for label in ("A2", "C2"):
        graph = graph_of(colour_set(build_root_datum(label), [(1, 0), (0, 1)]))
        for total in iter_product(range(bound[0] + 1), range(bound[1] + 1)):
            if not any(total):
                continue
            for m in iter_product(range(total[0] + 1), range(total[1] + 1)):
                n = tuple(t - a for t, a in zip(total, m))
                report = graph.check_factorization(m, n)
                assert report.passed, f"{label}: {report}"
    _report(6, 60.0, start, "unique factorization for all splits up to (2,2), A2 and C2")


def test_criterion_07_operator_relations():
    start = time.perf_counter()
    for label in ("A1", "A2", "C2"):
        datum = build_root_datum(label)
        model = SoibelmanModel(datum)
        colours = colour_set(datum, datum.fundamental_weights)
        lambdas = [datum.zero] + [
            w for w in datum.fundamental_weights
        ] + [datum.rho]
        deduped = []
        for lam in lambdas:
            if lam not in deduped:
                deduped.append(lam)
        assert model._relation_weights(colours) == deduped
        report = model.verify_suite(colours, (1,) * datum.rank)
        assert report.passed, f"{label}: {report}"
    _report(7, 120.0, start, "R1-R4 and KP1-KP4 pass exactly for A1, A2, C2")


def _fundamental_triples(datum):
    return list(iter_product(datum.fundamental_weights, repeat=3))


def test_criterion_08_braiding_laws():
    start = time.perf_counter()
    for label in ("A2", "C2"):
        datum = build_root_datum(label)
        for wa, wb, wc in _fundamental_triples(datum):
            a = highest_weight_crystal(datum, wa)
            c = highest_weight_crystal(datum, wc)
            ab = tensor_of(datum, (wa, wb))
            bc = tensor_of(datum, (wb, wc))
            tab_ab = pair_braiding(datum, wa, wb)
            tab_ac = pair_braiding(datum, wa, wc)
            tab_bc = pair_braiding(datum, wb, wc)
            triple = tensor_of(datum, (wa, wb, wc))
            for x, y, z in triple.elements():
                expected = None
                step = tab_ab.get((x, y))
                if step is not None:
                    y1, x1 = step
                    step2 = tab_ac.get((x1, z))
                    if step2 is not None:
                        z1, x2 = step2
                        expected = (y1, z1, x2)
                assert cartan_braiding(a, bc, x, (y, z)) == expected
                expected = None
                step = tab_bc.get((y, z))
                if step is not None:
                    z1, y1 = step
                    step2 = tab_ac.get((x, z1))
                    if step2 is not None:
                        z2, x1 = step2
                        expected = (z2, x1, y1)
                assert cartan_braiding(ab, c, (x, y), z) == expected
                assert sigma_word(triple, (1, 2, 1), (x, y, z)) == sigma_word(
                    triple, (2, 1, 2), (x, y, z)
                )
    # reduced-word independence, exhaustively on B(w1) x B(w2) x B(w1) for A2
    datum = build_root_datum("A2")
    triple = tensor_of(datum, ((1, 0), (0, 1), (1, 0)))
    assert triple.size == 27
    for t in triple.elements():
        assert sigma_word(triple, (1, 2, 1), t) == sigma_word(triple, (2, 1, 2), t)
    _report(8, 60.0, start, "hexagon and braid relations pointwise on all fundamental triples")


def test_criterion_09_longest_word_criterion():
    start = time.perf_counter()
    words = {
        (): (),
        (1,): (1,),
        (2,): (2,),
        (1, 2): (1, 2),
        (2, 1): (2, 1),
        (1, 2, 1): (1, 2, 1),
    }
    assert len(words) == len(list(permutations(range(3))))
    for label in ("A2", "C2"):
        datum = build_root_datum(label)
        for weights in _fundamental_triples(datum):
            triple = tensor_of(datum, weights)
            for t in triple.elements():
                in_cartan = bool(triple.eta(t))
                all_nonzero = all(
                    sigma_word(triple, word, t) is not None for word in words.values()
                )
                longest_nonzero = sigma_word(triple, (1, 2, 1), t) is not None
                assert in_cartan == all_nonzero == longest_nonzero
    _report(9, 60.0, start, "Cartan membership <=> all sigma_s nonzero <=> sigma_s0 nonzero")


def test_criterion_10_dimension_oracle():
    start = time.perf_counter()
    for label in ("A1", "A2", "A3", "B2", "C2", "G2"):
        datum = build_root_datum(label)
        group = weyl_group(datum)
        for lam in iter_product(range(3), repeat=datum.rank):
            crystal = highest_weight_crystal(datum, lam)
            assert crystal.size == weyl_dim(datum, lam)
            mult = {}
            for b in crystal.elements():
                w = crystal.weight(b)
                mult[w] = mult.get(w, 0) + 1
            for w, count in mult.items():
                for k in range(group.order):
                    assert mult.get(group.apply(k, w)) == count
    _report(10, 60.0, start, "crystal sizes match Weyl dimensions; multiplicities W-invariant")


def test_criterion_11_toeplitz_faithfulness():
    start = time.perf_counter()
    seen = {}
    for a, b in iter_product(range(6), repeat=2):
        key = tuple(tuple(row) for row in monomial_matrix((a, b), 13))
        assert key not in seen
        seen[key] = (a, b)
    assert len(seen) == 36
    _report(11, 1.0, start, "36 shift monomials distinct on the 13-dimensional cutoff")

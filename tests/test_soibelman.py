from itertools import product as iter_product

import pytest

from crystalgraphs.braiding import pair_braiding
from crystalgraphs.crystal import highest_weight_crystal, tensor_of
from crystalgraphs.hrgraph import GraphPath, HigherRankGraph, colour_set, graph_of
from crystalgraphs.memo import clear_caches
from crystalgraphs.rootdata import add_weights, build_root_datum, weyl_group
from crystalgraphs.soibelman import SoibelmanModel
from crystalgraphs.toeplitz import OperatorElement
from hypothesis import given, settings, strategies as st

from helpers import (
    act,
    braid_moved_word,
    cartan_project,
    component_strings,
    component_table,
    composite,
    exhaustive_grading,
    exhaustive_kp2,
    exhaustive_kp3,
    exhaustive_kp4,
    exhaustive_relations,
    hexagon_at_tops,
    operator_matrix,
    peelings,
    projection_p0,
    restriction_limit,
    right_ends,
    sl2_limit,
    slot_strings,
    slotwise_generator,
    string_table,
)

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
C2 = build_root_datum("C2")


def test_string_decomposition_a2():
    b = highest_weight_crystal(A2, (1, 0))
    lines, data = string_table(b, 1)
    assert lines == [[1, 2], [3]]
    assert string_table(b, 2)[0] == [[1], [2, 3]]
    assert data[1] == (0, 0, 1) and data[2] == (0, 1, 1) and data[3] == (1, 0, 0)


def test_restriction_limit_examples():
    b = highest_weight_crystal(A2, (1, 0))
    assert restriction_limit(b, 1, 3, 1) == OperatorElement.zero(1, 2)
    assert restriction_limit(b, 1, 3, 3) == OperatorElement.unit(1, 2)
    a1 = highest_weight_crystal(A1, (1,))
    assert restriction_limit(a1, 1, 2, 1) == projection_p0(1)
    assert restriction_limit(a1, 1, 1, 1) == sl2_limit(1, 0, 0, 1)


def test_a1_generators():
    m = SoibelmanModel(A1)
    f1 = m.pi0_generator((1,), 1, "f")
    f2 = m.pi0_generator((1,), 2, "f")
    assert f1 == OperatorElement.monomial(((0, 1),), (1,))
    # f2 = P0 = 1 - T T*
    assert f2 + OperatorElement.monomial(((1, 1),), (1,)) == OperatorElement.monomial(
        ((0, 0),), (1,)
    )
    assert m.pi0_generator((1,), 1, "v") == f1.adjoint()
    # v1 f1 + v2 f2 = T T* + P0 = 1
    total = f1.adjoint() * f1 + f2.adjoint() * f2
    assert total == m.one


def test_generator_kind_validation():
    with pytest.raises(ValueError):
        SoibelmanModel(A1).pi0_generator((1,), 1, "g")


@pytest.mark.parametrize("a", [0, 3, -1])
def test_generator_index_validation(a):
    # B(varpi1) of A1 has 2 elements, numbered 1 and 2
    with pytest.raises(ValueError, match=r"B\(\(1,\)\), which has 2 elements"):
        SoibelmanModel(A1).pi0_generator([1], a, "f")


@pytest.mark.parametrize("datum", [A1, A2, C2])
def test_generators_are_nonzero(datum):
    m = SoibelmanModel(datum)
    lams = [datum.zero] + list(datum.fundamental_weights) + [datum.rho]
    for lam in lams:
        crystal = highest_weight_crystal(datum, lam)
        for a in crystal.elements():
            for kind in ("f", "v"):
                assert m.pi0_generator(lam, a, kind)


@pytest.mark.parametrize("datum", [A1, A2, C2])
def test_generators_are_zero_one_matrices(datum):
    # with respect to the standard basis, every generator image is a partial
    # permutation: each column holds at most one nonzero entry, and it is 1
    m = SoibelmanModel(datum)
    for lam in list(datum.fundamental_weights) + [datum.rho]:
        crystal = highest_weight_crystal(datum, lam)
        for a in crystal.elements():
            matrix = operator_matrix(m.pi0_generator(lam, a, "f"), 5)
            for col in zip(*matrix):
                nonzero = [entry for entry in col if entry]
                assert nonzero in ([], [1])


def test_g2_fundamental_generators_store_few_terms():
    # in the partial-isometry basis no term of a generator cancels: the 14
    # f-generators of G2 varpi2 store 97 terms with coefficient 1 (1455 shift
    # monomials once every P0 is expanded)
    g2 = build_root_datum("G2")
    m = SoibelmanModel(g2)
    lam = g2.fundamental_weights[1]
    crystal = highest_weight_crystal(g2, lam)
    sizes = []
    for a in crystal.elements():
        terms = m.pi0_generator(lam, a, "f").terms
        assert set(terms.values()) == {1}
        sizes.append(len(terms))
    assert max(sizes) <= 15
    assert sum(sizes) <= 97


# the default word and one drawn by braid moves, per type
WORDS = [
    (label, word)
    for label in ("A2", "B2", "C2", "G2", "A3")
    for longest in [weyl_group(build_root_datum(label)).longest_word]
    for word in (None, braid_moved_word(build_root_datum(label), longest))
]


@pytest.mark.parametrize("label, word", WORDS)
def test_generators_store_the_slotwise_terms(label, word):
    # every weight verify_relations builds, the sums lam + lam' included, on
    # A2, B2 and C2; 0, the fundamentals and rho on G2 and A3
    datum = build_root_datum(label)
    m = SoibelmanModel(datum, word)
    lams = m._relation_weights(colour_set(datum, datum.fundamental_weights))
    if label in ("A2", "B2", "C2"):
        lams += [add_weights(lam, lamp) for lam, lamp in iter_product(lams, lams)]
    for lam in dict.fromkeys(lams):
        for a in highest_weight_crystal(datum, lam).elements():
            oracle = slotwise_generator(m, lam, a)
            assert m.pi0_generator(lam, a, "f").terms == oracle.terms
            assert m.pi0_generator(lam, a, "v").terms == oracle.adjoint().terms


@pytest.mark.parametrize("field", [0, 1], ids=["eps", "phi"])
def test_generator_images_ignore_a_tampered_eps_or_phi(monkeypatch, field):
    # the sweep walks its strings off e and f, so the images are a function
    # of the crystal graph: one stored eps_1 or phi_1 of B(rho_C) off by one
    # must leave every f-image of rho_C as it was
    clear_caches()
    try:
        graph_of(colour_set(C2, C2.fundamental_weights))
        expected = [f.terms for f in SoibelmanModel(C2)._generator_table((1, 1), "f")]
        steps = highest_weight_crystal(C2, (1, 1))._steps[1]
        step = steps[5]
        assert step[:2] == (1, 2)
        monkeypatch.setitem(steps, 5, step[:field] + (step[field] + 1,) + step[field + 1 :])
        tampered = [f.terms for f in SoibelmanModel(C2)._generator_table((1, 1), "f")]
    finally:
        clear_caches()  # no tampered crystal outlives the test
    assert tampered == expected


def _default_pairs(datum):
    """Every pair (lam, lam') that verify_relations builds by default: 0, the
    fundamentals and rho."""
    lams = SoibelmanModel(datum)._relation_weights(colour_set(datum, datum.fundamental_weights))
    return list(iter_product(lams, lams))


@pytest.mark.parametrize("label, word", WORDS)
def test_component_tables_store_the_cartan_projected_terms(label, word):
    # the step "C = B(lam+lam') preserves strings" of the R1 certificate: the
    # sweep over the Cartan component C, walked onto a path-model
    # B(lam+lam'), stores the images of B(lam+lam') term for term
    datum = build_root_datum(label)
    m = SoibelmanModel(datum, word)
    for lam, lamp in _default_pairs(datum):
        pair = tensor_of(datum, (lam, lamp))
        total = add_weights(lam, lamp)
        table = component_table(m, lam, lamp)
        component = set()
        for t in pair.elements():
            eta, image = cartan_project(pair, t)
            if not eta:
                continue
            component.add(t)
            f = table.get(t, m.zero)
            assert f.terms == m.pi0_generator(total, image, "f").terms
            assert f.adjoint().terms == m.pi0_generator(total, image, "v").terms
        assert set(table) <= component


@pytest.mark.parametrize("label", ["A2", "B2", "C2", "G2", "A3"])
def test_component_strings_follow_the_tensor_rule(label):
    # the string table of B(lam) x B(lam'), walked off its f and e, against
    # the closed-form two-factor rule and a walk down f_i from each element
    datum = build_root_datum(label)
    for lam, lamp in _default_pairs(datum):
        pair = tensor_of(datum, (lam, lamp))
        for i in datum.colours:
            below = component_strings(*pair.factors, i)
            lines, data = string_table(pair, i)
            assert sorted(data) == sorted(pair.elements())
            for t in pair.elements():
                walk = [t]
                while (lower := pair.f(i, walk[-1])) is not None:
                    walk.append(lower)
                top, length, string = below(t)
                assert (top, length - top, string) == (pair.eps(i, t), pair.phi(i, t), walk)
                sid, pos, size = data[t]
                assert (pos, size, lines[sid][pos:]) == (top, length, string)


def test_projection_examples():
    m = SoibelmanModel(A2)
    cs = colour_set(A2, A2.fundamental_weights)
    p = m.projection(cs, (1, 1))
    assert p
    assert p * p == p and p.adjoint() == p
    assert p.degrees() == {(0, 0)}
    # (a1, b3) is not a right end, so its projection vanishes
    assert not m.projection(cs, (1, 3))
    graph = HigherRankGraph(cs)
    total = m.zero
    for v in graph.vertices:
        total = total + m.projection(cs, v)
    assert total == m.one


def test_projection_needs_one_entry_per_colour():
    m = SoibelmanModel(A2)
    cs = colour_set(A2, A2.fundamental_weights)
    for v in [(1,), (1, 1, 1), ()]:
        with pytest.raises(ValueError, match="one entry per colour"):
            m.projection(cs, v)


def test_path_operator_examples():
    m = SoibelmanModel(A2)
    cs = colour_set(A2, A2.fundamental_weights)
    graph = HigherRankGraph(cs)
    v1 = graph.vertices[0]
    ident = GraphPath(v1, 1, (0, 0))
    assert m.path_operator(cs, ident) == m.projection(cs, v1)
    loop = next(
        e for e in graph.paths((1, 0)) if e.source == v1 and graph.range(e) == v1
    )
    s = m.path_operator(cs, loop)
    assert s.adjoint() * s == m.projection(cs, v1)
    # a non-path pair gives zero
    bogus = GraphPath((1, 2), 3, (1, 0))
    assert all(e != bogus for e in graph.paths((1, 0)))
    assert not m.path_operator(cs, bogus)


def test_projection_normal_form_over_larger_weights():
    m = SoibelmanModel(A2)
    cs = colour_set(A2, A2.fundamental_weights)
    graph = HigherRankGraph(cs)
    for lam in [(1, 1), (2, 1)]:
        crystal = highest_weight_crystal(A2, lam)
        for v in graph.vertices:
            total = m.zero
            for b in crystal.elements():
                if right_ends(crystal, b, cs.colours) == v:
                    total = total + m.pi0_generator(lam, b, "v") * m.pi0_generator(
                        lam, b, "f"
                    )
            assert total == m.projection(cs, v)


def test_projections_commute_across_weights():
    m = SoibelmanModel(A2)
    lams = [(1, 0), (0, 1), (1, 1)]
    for lam, lamp in iter_product(lams, lams):
        b = highest_weight_crystal(A2, lam)
        bp = highest_weight_crystal(A2, lamp)
        for x in b.elements():
            px = m.pi0_generator(lam, x, "v") * m.pi0_generator(lam, x, "f")
            for y in bp.elements():
                py = m.pi0_generator(lamp, y, "v") * m.pi0_generator(lamp, y, "f")
                assert px * py == py * px


def test_exchange_identity_through_braiding():
    m = SoibelmanModel(A2)
    for lam, lamp in [((1, 0), (0, 1)), ((1, 0), (1, 0))]:
        table = pair_braiding(A2, lam, lamp)
        for (b, bp), image in table.items():
            if image is None:
                continue
            cp, c = image
            lhs = m.pi0_generator(lam, b, "f") * m.pi0_generator(lamp, bp, "f")
            rhs = m.pi0_generator(lamp, cp, "f") * m.pi0_generator(lam, c, "f")
            assert lhs == rhs


def test_word_collapse_on_triples():
    m = SoibelmanModel(A2)
    weights = ((1, 0), (0, 1), (1, 0))
    t = tensor_of(A2, weights)
    for x in t.elements():
        product = m.one
        for lam, b in zip(weights, x):
            product = product * m.pi0_generator(lam, b, "f")
        eta, image = cartan_project(t, x)
        if eta:
            assert product == m.pi0_generator(t.highest_weight, image, "f")
        else:
            assert not product


def test_verify_suite_a1_and_a2():
    for datum, bound in [(A1, (1,)), (A2, (1, 1))]:
        m = SoibelmanModel(datum)
        cs = colour_set(datum, datum.fundamental_weights)
        report = m.verify_suite(cs, bound)
        assert report.passed, str(report)


def test_braid_moves_from_the_a3_word_reach_several_words():
    # from the default w0 word a rank-2 type has one braid move, so only a
    # rank-3 type makes the seeds of the test below draw different words
    datum = build_root_datum("A3")
    word = SoibelmanModel(datum).word
    assert len({braid_moved_word(datum, word, seed) for seed in range(20)}) >= 3


@settings(max_examples=20, deadline=None)
@given(label=st.sampled_from(["A2", "B2", "C2", "A3"]), seed=st.integers(0, 2**16))
def test_alternate_reduced_word_passes_identically(label, seed):
    datum = build_root_datum(label)
    cs = colour_set(datum, datum.fundamental_weights)
    bound = (1,) * datum.rank
    default = SoibelmanModel(datum)
    word = braid_moved_word(datum, default.word, seed)
    assert word != default.word
    expected = default.verify_suite(cs, bound)
    report = SoibelmanModel(datum, word=word).verify_suite(cs, bound)
    assert report.passed, str(report)
    # the same checks with the same case counts on every status line
    assert [(c.name, c.cases) for c in report.checks] == [
        (c.name, c.cases) for c in expected.checks
    ]


def a2_transition(n):
    """Lusztig's piecewise-linear transition map on A2, from coordinates of
    the reduced word (1, 2, 1) to those of (2, 1, 2); an involution."""
    a, b, c = n
    low = min(a, c)
    return (b + c - low, low, a + b - low)


def a2_intertwining_failures(perm):
    """(cases, failures) of perm as an intertwiner of the q=0 models of A2
    for the words (1, 2, 1) and (2, 1, 2): a case is one f- or v-generator of
    B(varpi1), B(varpi2) or B(rho) and one e_n with n in {0..4}^3, and it
    holds when the (2, 1, 2) image of e_perm(n) is the (1, 2, 1) image of
    e_n with every e_m moved to e_perm(m).

    A window check is not a proof: it says nothing about n outside the
    window, where a piecewise-linear map could break."""
    first, second = SoibelmanModel(A2, word=(1, 2, 1)), SoibelmanModel(A2, word=(2, 1, 2))
    cases = failures = 0
    for lam in ((1, 0), (0, 1), (1, 1)):
        for a in highest_weight_crystal(A2, lam).elements():
            for kind in ("f", "v"):
                x, y = first.pi0_generator(lam, a, kind), second.pi0_generator(lam, a, kind)
                for n in iter_product(range(5), repeat=3):
                    moved = {(perm(m), t): c for (m, t), c in act(x, n).items()}
                    cases += 1
                    failures += moved != act(y, perm(n))
    return cases, failures


def test_a2_transition_map_intertwines_the_two_reduced_words():
    assert SoibelmanModel(A2).word == (1, 2, 1)
    assert a2_intertwining_failures(a2_transition) == (3500, 0)


@pytest.mark.parametrize(
    "perm, failures",
    [(lambda n: n, 1034), (lambda n: n[::-1], 934)],
    ids=["identity", "reversal"],
)
def test_other_permutations_fail_to_intertwine_the_two_reduced_words(perm, failures):
    assert a2_intertwining_failures(perm) == (3500, failures)


def test_invalid_reduced_word_rejected():
    for word in [(1, 2), (1, 1, 2), (1, 2, 2), (1, 2, 3)]:
        with pytest.raises(ValueError):
            SoibelmanModel(A2, word=word)


def test_grading_reversal_of_path_operators():
    m = SoibelmanModel(A2)
    cs = colour_set(A2, A2.fundamental_weights)
    graph = HigherRankGraph(cs)
    for degree in [(1, 0), (0, 1), (1, 1)]:
        lam = cs.weight_of(degree)
        for e in graph.paths(degree):
            s = m.path_operator(cs, e)
            if s:
                assert s.degrees() == {tuple(-x for x in lam)}


def _check(report, tag):
    return next(c for c in report.checks if c.name.split()[0].rstrip(":") == tag)


def _edges(graph, bound):
    """The number of paths of unit degree within bound."""
    return sum(len(graph.paths(d)) for d in graph.nonzero_degrees(bound) if sum(d) == 1)


@pytest.mark.parametrize(
    "label, bound", [("A2", (1, 1)), ("B2", (1, 1)), ("C2", (1, 1)), ("C2", (2, 1))]
)
def test_kp3_certificate_covers_the_exhaustive_oracle(label, bound):
    datum = build_root_datum(label)
    m = SoibelmanModel(datum)
    graph = graph_of(colour_set(datum, datum.fundamental_weights))
    cases, failures = exhaustive_kp3(m, graph, bound)
    assert failures == []
    kp3 = _check(m.verify_graph_algebra(graph, bound), "KP3")
    assert kp3.passed and kp3.cases == cases
    # only the diagonal S_e* S_e = P_s(e) on edges is multiplied out
    assert kp3.computed == _edges(graph, bound)
    assert kp3.implied == cases - kp3.computed > 0


def _mutated_suite(monkeypatch, replace):
    """The C2 (1, 1) oracle failures and graph-algebra report with S_e replaced
    by replace(e, original) for every path e."""
    original = SoibelmanModel.path_operator
    monkeypatch.setattr(
        SoibelmanModel,
        "path_operator",
        lambda self, colours, e: replace(e, lambda path: original(self, colours, path)),
    )
    m = SoibelmanModel(C2)
    graph = graph_of(colour_set(C2, C2.fundamental_weights))
    _, failures = exhaustive_kp3(m, graph, (1, 1))
    return failures, m.verify_graph_algebra(graph, (1, 1))


def _twin_paths():
    """Two distinct nonzero paths of one degree with one source in C2 (1, 1)."""
    m = SoibelmanModel(C2)
    cs = colour_set(C2, C2.fundamental_weights)
    graph = graph_of(cs)
    seen = {}
    for degree in graph.nonzero_degrees((1, 1)):
        for e in graph.paths(degree):
            if not m.path_operator(cs, e):
                continue
            twin = seen.setdefault((degree, e.source), e)
            if twin != e:
                return twin, e
    raise AssertionError("no twin paths")


def test_kp3_certificate_fails_through_kp4_when_one_path_repeats(monkeypatch):
    e, f = _twin_paths()
    failures, report = _mutated_suite(monkeypatch, lambda p, s: s(f if p == e else p))
    assert any(x != y for x, y in failures)  # the oracle sees an off-diagonal pair
    kp3, kp4 = _check(report, "KP3"), _check(report, "KP4")
    assert not kp4.passed
    assert not kp3.passed and kp3.implied == 0
    # S_e* S_e = S_f* S_f = P_s(e) still holds: KP3 fails only through its premise
    assert kp3.detail.startswith("premise")
    assert "premise KP4 fails" in kp3.detail


def test_kp3_certificate_fails_through_the_diagonal_when_a_path_doubles(monkeypatch):
    e, _ = _twin_paths()
    _, report = _mutated_suite(monkeypatch, lambda p, s: s(p) + s(p) if p == e else s(p))
    kp3 = _check(report, "KP3")
    assert not kp3.passed and kp3.implied == 0
    assert kp3.detail.startswith(f"isometry relation fails at {e}, {e}")


@pytest.mark.parametrize(
    "label, colours",
    [pytest.param(label, None, id=label) for label in ("A1", "A2", "B2", "C2", "G2", "A3")]
    # permuted colours peel rho_C through the other factor order, and a
    # colour that is no fundamental weight has longer strings
    + [
        pytest.param("C2", ((0, 1), (1, 0)), id="C2-permuted"),
        pytest.param("A2", ((2, 0), (0, 1)), id="A2-non-fundamental"),
    ],
)
def test_relation_certificates_cover_the_exhaustive_oracle(label, colours):
    datum = build_root_datum(label)
    m = SoibelmanModel(datum)
    cs = colour_set(datum, colours or datum.fundamental_weights)
    lams = m._relation_weights(cs)
    oracle = exhaustive_relations(m, lams)
    report = m.verify_relations(cs)
    for tag in ("R1", "R2", "R3"):
        cases, failures = oracle[tag]
        check = _check(report, tag)
        assert failures == []
        assert check.passed and check.cases == cases
    r2 = _check(report, "R2")
    assert 0 < r2.implied < r2.cases
    # R2 multiplies out exactly the atom halves: pairs of 0 and the colours,
    # with i <= j on one weight
    atoms = [
        highest_weight_crystal(datum, lam).size
        for lam in lams
        if lam == datum.zero or lam in cs.colours
    ]
    assert r2.computed == sum(a * b for k, a in enumerate(atoms) for b in atoms[k + 1 :]) + sum(
        a * (a + 1) // 2 for a in atoms
    )
    # R1 multiplies out nothing: every case follows from the rank-one lemma
    r1 = _check(report, "R1")
    assert r1.computed == 0 and r1.implied == r1.cases
    assert r1.lemma_cases > 0
    # R3 sums at the atoms only; rho_C, when it is no colour, is implied,
    # and the oracle above summed it in full
    r3 = _check(report, "R3")
    assert r3.computed == len(atoms) and r3.implied == len(lams) - len(atoms)


@pytest.mark.parametrize(
    "label, bound",
    [("A1", (1,)), ("A2", (1, 1)), ("B2", (1, 1)), ("C2", (1, 1)), ("C2", (2, 1)),
     ("G2", (1, 1)), ("A3", (1, 1, 1))],
)
def test_kp2_certificate_covers_the_exhaustive_oracle(label, bound):
    datum = build_root_datum(label)
    m = SoibelmanModel(datum)
    graph = graph_of(colour_set(datum, datum.fundamental_weights))
    cases, failures = exhaustive_kp2(m, graph, bound)
    assert failures == []
    kp2 = _check(m.verify_graph_algebra(graph, bound), "KP2")
    assert kp2.passed and kp2.cases == cases
    # only the range half on edges is multiplied out, one product per edge;
    # the source half follows from idempotent P_v, the compositions from the
    # lemma, the composite range halves from unique factorization
    paths = sum(len(graph.paths(d)) for d in graph.nonzero_degrees(bound))
    assert kp2.computed == _edges(graph, bound)
    assert kp2.implied == cases - kp2.computed
    assert (kp2.lemma_cases > 0) == (kp2.implied > paths)


def test_kp2_certificate_fails_when_a_composable_pair_leaves_the_compose_table(monkeypatch):
    original = HigherRankGraph.compose_table

    def short(self, degree, degree_p):
        table = original(self, degree, degree_p)
        return dict(list(table.items())[1:])

    monkeypatch.setattr(HigherRankGraph, "compose_table", short)
    m = SoibelmanModel(C2)
    graph = graph_of(colour_set(C2, C2.fundamental_weights))
    kp2 = _check(m.verify_graph_algebra(graph, (1, 1)), "KP2")
    assert not kp2.passed and kp2.implied == 0
    # every vertex-path case still holds: KP2 fails only through its premise
    assert kp2.detail.startswith("premise compose table fails")


def test_kp2_certificate_fails_through_its_premise_when_a_projection_is_not_idempotent(
    monkeypatch,
):
    graph = graph_of(colour_set(C2, C2.fundamental_weights))
    v = graph.vertices[0]
    original = SoibelmanModel.projection

    def doubled(self, colours, w):
        p = original(self, colours, w)
        return p + p if tuple(w) == v else p

    monkeypatch.setattr(SoibelmanModel, "projection", doubled)
    m = SoibelmanModel(C2)
    _, failures = exhaustive_kp2(m, graph, (1, 1))
    # S_e P_v = 2 S_e for the paths e from v: the oracle sees the source half fail
    assert any(failure[0] == "source" and failure[1].source == v for failure in failures)
    kp2 = _check(m.verify_graph_algebra(graph, (1, 1)), "KP2")
    assert not kp2.passed and kp2.implied == 0
    assert "premise P_v idempotent fails" in kp2.detail


@pytest.mark.parametrize(
    "label, bound",
    [("A1", (1,)), ("A2", (1, 1)), ("B2", (1, 1)), ("C2", (2, 1)), ("G2", (1, 1)),
     ("A3", (1, 1, 1))],
)
def test_kp4_and_grading_certificates_cover_the_exhaustive_oracles(label, bound):
    datum = build_root_datum(label)
    m = SoibelmanModel(datum)
    graph = graph_of(colour_set(datum, datum.fundamental_weights))
    report = m.verify_graph_algebra(graph, bound)
    units = [d for d in graph.nonzero_degrees(bound) if sum(d) == 1]
    # KP4 is multiplied out at unit degrees, the grading of S_e on edges
    for tag, oracle, computed in (
        ("KP4", exhaustive_kp4, len(units) * len(graph.vertices)),
        ("grading", exhaustive_grading, len(graph.vertices) + _edges(graph, bound)),
    ):
        cases, failures = oracle(m, graph, bound)
        check = _check(report, tag)
        assert failures == []
        assert check.passed and check.cases == cases
        assert check.computed == computed
        assert check.implied == cases - computed
        # A1 at bound 1 has no composite degree to imply
        assert (check.implied > 0) == (label != "A1")


def _composite_tamper_report(monkeypatch, name, wrap):
    """The C2 (1, 1) graph-algebra report and factorization check, with the
    HigherRankGraph method `name` replaced by wrap(original)."""
    monkeypatch.setattr(HigherRankGraph, name, wrap(getattr(HigherRankGraph, name)))
    graph = graph_of(colour_set(C2, C2.fundamental_weights))
    report = SoibelmanModel(C2).verify_graph_algebra(graph, (1, 1))
    return report, graph.check_factorization((1, 0), (0, 1))


def _fail_through_unique_factorization(report):
    assert _check(report, "KP1").passed
    for tag in ("KP2", "KP3", "KP4", "grading"):
        check = _check(report, tag)
        assert not check.passed and check.implied == 0 and check.failed == 0
        # every computed case still holds: each fails only through premises
        assert check.detail.startswith("premise")
        assert "premise unique factorization fails" in check.detail


def test_a_compose_table_merging_two_pairs_fails_every_composite_certificate(monkeypatch):
    graph = graph_of(colour_set(C2, C2.fundamental_weights))
    # an edge e of degree (0, 1) followed by either of two edges of degree (1, 0)
    e, first, second = next(
        (e, *after[:2])
        for e in graph.paths((0, 1))
        for after in [[f for f in graph.paths((1, 0)) if f.source == graph.range(e)]]
        if len(after) > 1
    )
    keys = [(e.element, first.element), (e.element, second.element)]

    def wrap(original):
        def merged(self, degree, degree_p):
            matching = original(self, degree, degree_p)
            if (degree, degree_p) == ((0, 1), (1, 0)):
                matching = {**matching, keys[1]: matching[keys[0]]}
            return matching

        return merged

    report, factorization = _composite_tamper_report(monkeypatch, "compose_table", wrap)
    _fail_through_unique_factorization(report)
    # every composable pair is still a key of the table
    assert "premise compose table" not in _check(report, "KP2").detail
    merged = composite(graph, first, e)
    assert not factorization.passed
    assert factorization.checks[0].detail.startswith(f"path {merged} has 2 factorizations")


def test_a_composite_range_changed_fails_unique_factorization(monkeypatch):
    graph = graph_of(colour_set(C2, C2.fundamental_weights))
    f = graph.paths((1, 1))[0]
    r = graph.range(f)
    moved = next(v for v in graph.vertices if v != r)

    def wrap(original):
        def changed(self, degree):
            out = original(self, degree)
            if degree != (1, 1):
                return out
            return {**out, f.source: {**out[f.source], f.element: moved}}

        return changed

    report, factorization = _composite_tamper_report(monkeypatch, "_slice", wrap)
    _fail_through_unique_factorization(report)
    # f = e'e still has one factorization, but r(f) is no longer r(e')
    assert not factorization.passed
    assert factorization.checks[0].detail == (
        f"path {f} has range {moved}, not the range {r} of its factor of degree (1, 0)"
    )


def test_a_changed_edge_operator_fails_the_computed_cases_like_the_oracles(monkeypatch):
    graph = graph_of(colour_set(C2, C2.fundamental_weights))
    # S_e becomes S_f for an edge f of the other colour with another source
    # and another range
    e, f = next(
        (e, f)
        for e in graph.paths((0, 1))
        for f in graph.paths((1, 0))
        if e.source != f.source and graph.range(e) != graph.range(f)
    )
    original = SoibelmanModel.path_operator
    monkeypatch.setattr(
        SoibelmanModel,
        "path_operator",
        lambda self, colours, path: original(self, colours, f if path == e else path),
    )
    m = SoibelmanModel(C2)
    report = m.verify_graph_algebra(graph, (1, 1))
    expected = {
        "KP2": f"vertex-path relation fails at {e}",
        "KP3": f"isometry relation fails at {e}, {e}",
        "KP4": f"range decomposition fails at {graph.range(e)}, degree (0, 1)",
        "grading": f"S_{e} is not homogeneous of degree (0, -1)",
    }
    for tag, detail in expected.items():
        check = _check(report, tag)
        assert not check.passed and check.implied == 0
        assert check.failed == 1 and check.detail.startswith(detail)
    # the oracles, which multiply out every degree, fail at e too
    assert ("range", e) in exhaustive_kp2(m, graph, (1, 1))[1]
    assert (e, e) in exhaustive_kp3(m, graph, (1, 1))[1]
    assert (graph.range(e), (0, 1)) in exhaustive_kp4(m, graph, (1, 1))[1]
    assert e in exhaustive_grading(m, graph, (1, 1))[1]


def _slot_oracle(m1, m2, p1, t1, p2, t2):
    """The slot the rank-one lemma predicts for string_slot(m1, p1, t1) times
    string_slot(m2, p2, t2), with the strings of B(m1) x B(m2) read off the
    A1 tensor crystal (element b of B(m) sits at position b - 1)."""
    _, data = string_table(tensor_of(A1, ((m1,), (m2,))), 1)
    sid, pos, length = data[p1 + 1, p2 + 1]
    sid_t, top, _ = data[t1 + 1, t2 + 1]
    return sl2_limit(length, pos, top) if sid == sid_t else OperatorElement.zero(1, 0)


def test_slot_strings_follow_the_a1_tensor_crystal():
    # the strings _rank_one reads off the A1 tensor crystal, against the
    # closed form (element b of B(m) sits at position b - 1)
    for m1, m2 in iter_product(range(10), repeat=2):
        _, data = string_table(tensor_of(A1, ((m1,), (m2,))), 1)
        shifted = {(b1 - 1, b2 - 1): entry for (b1, b2), entry in data.items()}
        assert shifted == slot_strings(m1, m2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rank_one_slot_lemma_against_truncated_matrices(data):
    m1, m2 = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
    p1, t1 = data.draw(st.integers(0, m1)), data.draw(st.integers(0, m1))
    p2, t2 = data.draw(st.integers(0, m2)), data.draw(st.integers(0, m2))
    # every slot moves a basis index up by at most 9, so on the columns below
    # cutoff - 9 the product of truncations is the truncated product
    cutoff = 24
    left = operator_matrix(sl2_limit(m1, p1, t1), cutoff)
    right = operator_matrix(sl2_limit(m2, p2, t2), cutoff)
    expected = operator_matrix(_slot_oracle(m1, m2, p1, t1, p2, t2), cutoff)
    for col in range(cutoff - 9):
        for row in range(cutoff):
            entry = sum(left[row][k] * right[k][col] for k in range(cutoff))
            assert entry == expected[row][col], (m1, m2, p1, t1, p2, t2)


def test_rank_one_cases_cover_the_nonzero_slots_of_each_length_pair():
    m = SoibelmanModel(C2)
    # (m + 1)(m + 2) / 2 nonzero slots of a string of length m
    assert m._rank_one(2, 3) == (6 * 10, True)
    lams = m._relation_weights(colour_set(C2, C2.fundamental_weights))
    # C2's default weights have strings of lengths 0 to 3 in both colours
    assert m._rank_one_premise(list(iter_product(lams, lams))) == ((1 + 3 + 6 + 10) ** 2, True)


def _mutated_relations(monkeypatch, **patches):
    """The C2 oracle results and relation report with the names in patches
    replaced in the soibelman module (and in the oracle's helpers)."""
    import helpers
    from crystalgraphs import soibelman

    for name, value in patches.items():
        monkeypatch.setattr(soibelman, name, value)
        if hasattr(helpers, name):
            monkeypatch.setattr(helpers, name, value)
    m = SoibelmanModel(C2)
    cs = colour_set(C2, C2.fundamental_weights)
    return exhaustive_relations(m, m._relation_weights(cs)), m.verify_relations(cs)


def test_r2_certificate_fails_through_its_premise_when_a_braiding_is_not_inverted(
    monkeypatch,
):
    # the default weights are 0, varpi1, varpi2, rho: R2 multiplies out
    # (varpi1, varpi2) and certifies (varpi2, varpi1), whose table it reads
    # only to check that the two tables are mutually inverse
    late, early = C2.fundamental_weights[1], C2.fundamental_weights[0]

    def broken(datum, lam, lamp):
        table = pair_braiding(datum, lam, lamp)
        if (tuple(lam), tuple(lamp)) != (late, early):
            return table
        x, y = [key for key, image in table.items() if image is not None][:2]
        return {**table, x: table[y], y: table[x]}

    oracle, report = _mutated_relations(monkeypatch, pair_braiding=broken)
    assert all((lam, lamp) == (late, early) for lam, lamp, _, _ in oracle["R2"][1])
    assert oracle["R2"][1]  # the oracle sees the mirrored cases fail
    r2 = _check(report, "R2")
    assert not r2.passed and r2.implied == 0
    # every computed case still holds: R2 fails only through its premise
    assert r2.detail.startswith("premise inverse braidings fails")
    assert _check(report, "R1").passed and _check(report, "R4").passed


def test_relation_certificates_fail_when_a_v_generator_doubles(monkeypatch):
    lam = C2.fundamental_weights[0]
    original = SoibelmanModel.pi0_generator

    def doubled(self, weight, a, kind):
        image = original(self, weight, a, kind)
        return image + image if (tuple(weight), a, kind) == (lam, 1, "v") else image

    monkeypatch.setattr(SoibelmanModel, "pi0_generator", doubled)
    oracle, report = _mutated_relations(monkeypatch)
    assert any(kind == "v" for kind, *_ in oracle["R1"][1])
    assert oracle["R2"][1]
    r4 = _check(report, "R4")
    assert not r4.passed and r4.detail == f"adjoint pairing at {lam}, 1"
    for tag in ("R1", "R2", "R3"):
        check = _check(report, tag)
        assert not check.passed and check.implied == 0
        assert "premise R4 fails" in check.detail


def test_r2_certificate_fails_through_the_hexagon_identity_when_a_rho_table_changes(
    monkeypatch,
):
    # two images of sigma_{rho, varpi1} swapped, and the swap undone in its
    # inverse sigma_{varpi1, rho}, so the tables stay mutually inverse; R2
    # computes no case of either pair, and only the hexagon identity reads them
    rho, w1 = C2.rho, C2.fundamental_weights[0]
    table, back = pair_braiding(C2, rho, w1), pair_braiding(C2, w1, rho)
    x, y = [key for key, image in table.items() if image is not None][:2]
    tampered = {
        (rho, w1): {**table, x: table[y], y: table[x]},
        (w1, rho): {**back, table[x]: y, table[y]: x},
    }

    def broken(datum, lam, lamp):
        return tampered.get((tuple(lam), tuple(lamp))) or pair_braiding(datum, lam, lamp)

    oracle, report = _mutated_relations(monkeypatch, pair_braiding=broken)
    assert oracle["R2"][1]  # the oracle sees the changed cases fail
    assert all(rho in (lam, lamp) for lam, lamp, _, _ in oracle["R2"][1])
    r2 = _check(report, "R2")
    assert not r2.passed and r2.implied == 0 and r2.failed == 0
    assert r2.detail == "premise hexagon identity fails, so 621 implied cases are not certified"
    assert r2.lemma_cases == 416
    assert _check(report, "R1").passed and _check(report, "R4").passed


def test_r2_certificate_fails_through_its_premise_when_a_cartan_entry_is_missing(
    monkeypatch,
):
    # a braiding table holds the Cartan component only, so a lost entry reads
    # as a zero braiding; sigma_{varpi1, rho} still maps onto the lost pair,
    # so the two tables are no longer mutually inverse
    rho, w1 = C2.rho, C2.fundamental_weights[0]
    table = dict(pair_braiding(C2, rho, w1))
    del table[next(reversed(table))]

    def broken(datum, lam, lamp):
        if (tuple(lam), tuple(lamp)) == (rho, w1):
            return table
        return pair_braiding(datum, lam, lamp)

    oracle, report = _mutated_relations(monkeypatch, pair_braiding=broken)
    assert oracle["R2"][1]  # the oracle sees the lost case fail
    assert all((lam, lamp) == (rho, w1) for lam, lamp, _, _ in oracle["R2"][1])
    r2 = _check(report, "R2")
    assert not r2.passed and r2.implied == 0 and r2.failed == 0
    assert r2.detail.startswith("premise inverse braidings fails")
    # the hexagon identity reads every pair of each product, not the keys of
    # sigma_{rho, varpi1}, so it sees the lost entry and keeps its case count
    assert "premise hexagon identity fails" in r2.detail
    assert r2.lemma_cases == 416
    assert _check(report, "R1").passed and _check(report, "R4").passed


@pytest.mark.parametrize("label, cases", [("C2", 19), ("G2", 39), ("B3", 229)])
def test_the_hexagon_holds_at_the_highest_weight_elements(label, cases):
    # the chain at each top (1, b) of B(nu) x B(mu) is sigma_{nu,mu}(1, b):
    # (1, 1) at b = 1 and None at the top of every other component, on far
    # fewer cases than `_hexagon`'s every pair of the product
    datum = build_root_datum(label)
    model = SoibelmanModel(datum)
    cs = colour_set(datum, datum.fundamental_weights)
    assert hexagon_at_tops(model, cs) == (cases, True)
    lams = model._relation_weights(cs)
    assert all(model._hexagon(*peeling, mu)[1] for peeling in peelings(cs) for mu in lams)


def _doubled_f_image(monkeypatch, lam):
    """The C2 oracle results and relation report with the f-image of the top
    of B(lam) doubled; the v-images are its adjoints, so R4 still holds."""
    original = SoibelmanModel.pi0_generator

    def doubled(self, weight, a, kind):
        image = original(self, weight, a, kind)
        return image + image if (tuple(weight), a, kind) == (lam, 1, "f") else image

    monkeypatch.setattr(SoibelmanModel, "pi0_generator", doubled)
    return _mutated_relations(monkeypatch)


def test_a_doubled_f_image_fails_a_computed_r2_case(monkeypatch):
    # R4 still holds, so the computed atom cases must see it
    oracle, report = _doubled_f_image(monkeypatch, C2.fundamental_weights[0])
    assert oracle["R2"][1]
    r2 = _check(report, "R2")
    assert not r2.passed and r2.implied == 0 and r2.failed > 0
    assert r2.detail.startswith("cross relation at ")
    assert _check(report, "R4").passed


def test_a_doubled_f_image_of_a_colour_fails_the_computed_r3_atom_case(monkeypatch):
    lam = C2.fundamental_weights[0]
    oracle, report = _doubled_f_image(monkeypatch, lam)
    assert oracle["R3"] == (4, [lam])
    r3 = _check(report, "R3")
    assert not r3.passed and r3.implied == 0 and r3.failed == 1
    assert r3.detail == f"sum over B({lam})"
    assert _check(report, "R4").passed


def test_r3_certificate_fails_through_its_premise_when_the_rank_one_lemma_fails(monkeypatch):
    # every computed case still holds; R3 at rho_C, which R1 at the peelings
    # carries, is no longer certified
    def broken(self, m1, m2):
        return (m1 + 1) * (m2 + 1), False

    monkeypatch.setattr(SoibelmanModel, "_rank_one", broken)
    _, report = _mutated_relations(monkeypatch)
    r3 = _check(report, "R3")
    assert not r3.passed and r3.implied == 0 and r3.failed == 0 and r3.cases == 3
    assert r3.detail == "premise rank-one slot lemma fails, so 1 implied cases are not certified"
    assert _check(report, "R4").passed

from itertools import product as iter_product

import pytest

from crystalgraphs import crystal as crystal_module
from crystalgraphs.crystal import (
    TensorCrystal,
    canonical_morphism,
    highest_weight_crystal,
    tensor_of,
)
from crystalgraphs.memo import clear_caches
from crystalgraphs.rootdata import build_root_datum, weyl_dim

from helpers import (
    cartan_project,
    component_sizes,
    path_model_reads,
    raise_to_top,
    signature_rule,
    string_table,
    transport,
    weyl_bfs,
)

A2 = build_root_datum("A2")
A3 = build_root_datum("A3")
B2 = build_root_datum("B2")
C2 = build_root_datum("C2")
G2 = build_root_datum("G2")


def test_a2_fundamental_chains():
    b = highest_weight_crystal(A2, (1, 0))
    assert b.size == 3
    assert b.f(1, 1) == 2 and b.f(2, 2) == 3
    assert b.f(2, 1) is None and b.f(1, 2) is None and b.f(1, 3) is None
    c = highest_weight_crystal(A2, (0, 1))
    assert c.size == 3
    assert c.f(2, 1) == 2 and c.f(1, 2) == 3


def test_c2_fundamental_chains():
    a = highest_weight_crystal(C2, (1, 0))
    assert [(i, b, a.f(i, b)) for b in a.elements() for i in (1, 2) if a.f(i, b)] == [
        (1, 1, 2),
        (2, 2, 3),
        (1, 3, 4),
    ]
    b = highest_weight_crystal(C2, (0, 1))
    assert [(i, x, b.f(i, x)) for x in b.elements() for i in (1, 2) if b.f(i, x)] == [
        (2, 1, 2),
        (1, 2, 3),
        (1, 3, 4),
        (2, 4, 5),
    ]


def test_trivial_crystal():
    b = highest_weight_crystal(A2, (0, 0))
    assert b.size == 1
    assert b.weight(1) == (0, 0)
    for i in (1, 2):
        assert b.f(i, 1) is None and b.e(i, 1) is None


def test_raising_kills_highest_weight():
    for datum, lam in [(A2, (1, 1)), (C2, (1, 0)), (C2, (2, 1))]:
        b = highest_weight_crystal(datum, lam)
        for i in datum.colours:
            assert b.e(i, 1) is None


def test_errors():
    with pytest.raises(ValueError):
        highest_weight_crystal(A2, (-1, 0))
    # 226,981 elements, above the cap: refused before anything is built
    with pytest.raises(ValueError, match="226981 elements, above cap 100000"):
        highest_weight_crystal(A2, (60, 60))
    with pytest.raises(ValueError):
        highest_weight_crystal(A2, (1, 0)).f(3, 1)
    # the cache key of a mixed tuple would match this product over A2
    tensor_of(A2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="different root data"):
        TensorCrystal(
            [highest_weight_crystal(A2, (1, 0)), highest_weight_crystal(C2, (1, 0))]
        )


def test_size_cap_is_checked_on_a_cache_hit(monkeypatch):
    assert highest_weight_crystal(A2, (2, 2)).size == 27
    monkeypatch.setattr("crystalgraphs.crystal.SIZE_CAP", 10)
    with pytest.raises(ValueError, match="27 elements, above cap 10"):
        highest_weight_crystal(A2, (2, 2))


def test_tensor_sizes():
    assert tensor_of(A2, ((1, 0), (0, 1))).size == 9
    assert tensor_of(C2, ((1, 0), (0, 1))).size == 20
    assert tensor_of(A2, ((1, 0), (1, 0), (1, 0))).size == 27


def test_tensor_rule_examples():
    t = tensor_of(A2, ((1, 0), (0, 1)))
    assert t.f(1, (1, 1)) == (2, 1)
    tt = tensor_of(A2, ((1, 0), (1, 0)))
    # second factor moves: phi_1(a2) = 0 is not greater than eps_1(a1) = 0
    assert tt.f(1, (2, 1)) == (2, 2)
    assert tt.f(1, None) is None
    assert tt.e(1, (1, 1)) is None


@pytest.mark.parametrize("datum", [A2, B2, C2, G2, A3], ids=lambda d: d.label)
@pytest.mark.parametrize("factors", [2, 3])
def test_tensor_rule_matches_the_signature_rule(datum, factors):
    # pairs of fundamentals and rho read the one-comparison pair rule,
    # triples of fundamentals the pass over the factors
    weights = datum.fundamental_weights + ((datum.rho,) if factors == 2 else ())
    for combo in iter_product(weights, repeat=factors):
        tc = tensor_of(datum, combo)
        for t in tc.elements():
            for i in datum.colours:
                expected = signature_rule(tc, i, t)
                assert (tc.eps(i, t), tc.phi(i, t), tc.f(i, t), tc.e(i, t)) == expected, (
                    combo,
                    t,
                    i,
                )


def test_a_tensor_element_of_the_wrong_length_is_rejected():
    pair = tensor_of(A2, ((1, 0), (0, 1)))
    triple = tensor_of(A2, ((1, 0), (0, 1), (1, 0)))
    for tc, t in [(pair, (1,)), (pair, (1, 1, 1)), (triple, (1, 1)), (triple, (1, 1, 1, 1))]:
        for op in (tc.f, tc.e, tc.eps, tc.phi):
            with pytest.raises(ValueError):
                op(1, t)
        with pytest.raises(ValueError):
            tc.weight(t)


def test_tensor_crystal_axiom():
    for datum, weights in [(A2, ((1, 0), (0, 1))), (C2, ((1, 0), (0, 1)))]:
        t = tensor_of(datum, weights)
        for x in t.elements():
            for i in datum.colours:
                image = t.f(i, x)
                if image is not None:
                    assert t.e(i, image) == x
                pre = t.e(i, x)
                if pre is not None:
                    assert t.f(i, pre) == x
                assert t.phi(i, x) - t.eps(i, x) == datum.pairing(t.weight(x), i)


# every B(lam) with |lam| <= 3 in rank two; the fundamentals and rho in rank
# three; the fundamentals of B4, C4, D4, D5 and F4, and varpi1, varpi2 and
# varpi6 of E6, which cover the spin crystals of B_n and D_n, F4's
# quasi-minuscule base and fundamentals built as components of a product
# with a base
PATH_MODEL_CASES = [
    (label, lam)
    for label in ("A2", "B2", "C2", "G2")
    for lam in iter_product(range(4), repeat=2)
    if sum(lam) <= 3
] + [
    (label, lam)
    for label in ("A3", "B3", "C3")
    for datum in [build_root_datum(label)]
    for lam in datum.fundamental_weights + (datum.rho,)
] + [
    (label, lam)
    for label in ("B4", "C4", "D4", "D5", "F4")
    for lam in build_root_datum(label).fundamental_weights
] + [("E6", build_root_datum("E6").fundamental_weights[j]) for j in (0, 1, 5)]


@pytest.mark.parametrize("label, lam", PATH_MODEL_CASES)
def test_string_tables_match_the_path_model(label, lam):
    # the oracle numbers the paths itself and reads eps, phi and the weight
    # off each path, raising on any non-integral value
    datum = build_root_datum(label)
    crystal = highest_weight_crystal(datum, lam)
    oracle = path_model_reads(datum, lam)
    assert crystal.size == len(oracle["weight"])
    assert [crystal.weight(b) for b in crystal.elements()] == oracle["weight"]
    for i in datum.colours:
        for b in crystal.elements():
            assert crystal.f(i, b) == oracle["f"].get((i, b))
            assert crystal.eps(i, b) == oracle["eps"][i, b]
            assert crystal.phi(i, b) == oracle["phi"][i, b]
        assert string_table(crystal, i) == oracle["string_table"][i]


def test_a_fundamental_is_built_on_the_smallest_fundamental_that_reaches_it():
    # from the base B(varpi7) of E7, varpi3 (8,645 elements) is the component
    # of a product with B(varpi2) (912) as well as with B(varpi5) (27,664)
    e7 = build_root_datum("E7")
    first, base, _ = crystal_module._factors(e7, e7.fundamental_weights[2])
    assert first.highest_weight == e7.fundamental_weights[1]
    assert base.highest_weight == e7.fundamental_weights[6]


def test_a_base_crystal_missing_an_edge_is_caught(monkeypatch):
    # G2's varpi2 is the component of a product with the quasi-minuscule base
    # B(varpi1); drop the base's last f-edge and the build of varpi2 must
    # raise or disagree with the path model
    small_walk = crystal_module._small_walk

    def tampered(datum, lam):
        walk = small_walk(datum, lam)
        if walk is not None:
            f_edges = walk[1]  # one dict b -> f_i b per colour i
            edges = [(i, b) for i, down in f_edges.items() for b in down]
            if edges:
                i, b = max(edges, key=lambda edge: edge[1])
                del f_edges[i][b]
        return walk

    clear_caches()
    monkeypatch.setattr(crystal_module, "_small_walk", tampered)
    try:
        built = highest_weight_crystal(G2, (0, 1))
    except RuntimeError:
        built = None
    finally:
        clear_caches()  # no tampered crystal outlives the test
    if built is not None:
        oracle = path_model_reads(G2, (0, 1))
        assert [string_table(built, i) for i in G2.colours] != [
            oracle["string_table"][i] for i in G2.colours
        ]


def test_a_deep_weight_builds_by_halving():
    # B(2000) of A1 is one string; peeling one fundamental at a time would
    # recurse 2,000 builds deep
    b = highest_weight_crystal(build_root_datum("A1"), (2000,))
    assert b.size == 2001
    assert [b.f(1, x) for x in b.elements()] == list(range(2, 2002)) + [None]
    assert b.weight(2001) == (-2000,)


BATTERY = [
    (A2, (1, 0)),
    (A2, (1, 1)),
    (A2, (2, 1)),
    (C2, (1, 0)),
    (C2, (0, 1)),
    (C2, (1, 1)),
]


@pytest.mark.parametrize("datum,lam", BATTERY)
def test_crystal_axioms(datum, lam):
    b = highest_weight_crystal(datum, lam)
    assert b.size == weyl_dim(datum, lam)
    tops = [x for x in b.elements() if all(b.eps(i, x) == 0 for i in datum.colours)]
    bottoms = [x for x in b.elements() if all(b.phi(i, x) == 0 for i in datum.colours)]
    assert tops == [1]
    assert len(bottoms) == 1
    group = weyl_bfs(datum)
    assert b.weight(bottoms[0]) == group.apply(group.longest, lam)
    for x in b.elements():
        for i in datum.colours:
            image = b.f(i, x)
            if image is not None:
                assert b.e(i, image) == x
            pre = b.e(i, x)
            if pre is not None:
                assert b.f(i, pre) == x
            assert b.phi(i, x) - b.eps(i, x) == datum.pairing(b.weight(x), i)
            # eps and phi really are string lengths
            k, cur = 0, x
            while (cur := b.e(i, cur)) is not None:
                k += 1
            assert k == b.eps(i, x)
            k, cur = 0, x
            while (cur := b.f(i, cur)) is not None:
                k += 1
            assert k == b.phi(i, x)


@pytest.mark.parametrize("datum,lam", BATTERY)
def test_weight_multiplicities_weyl_invariant(datum, lam):
    b = highest_weight_crystal(datum, lam)
    mult = {}
    for x in b.elements():
        mult[b.weight(x)] = mult.get(b.weight(x), 0) + 1
    group = weyl_bfs(datum)
    for w in mult:
        for k in range(group.order):
            assert mult.get(group.apply(k, w)) == mult[w]


def test_component_decompositions_c2():
    def weights(pair):
        return [w for w, _, _ in component_sizes(tensor_of(C2, pair))]

    assert weights(((0, 1), (0, 1))) == [(0, 0), (0, 2), (2, 0)]
    assert weights(((1, 0), (1, 0))) == [(0, 0), (0, 1), (2, 0)]
    assert weights(((1, 0), (0, 1))) == [(1, 0), (1, 1)]


def test_components_against_union_find_oracle():
    t = tensor_of(A2, ((1, 0), (0, 1)))
    assert component_sizes(t) == [((0, 0), 1, (1, 3)), ((1, 1), 8, (1, 1))]
    for weight, size, top in component_sizes(t):
        assert size == weyl_dim(A2, weight)
        walk = canonical_morphism(t, highest_weight_crystal(A2, weight), top)
        assert len(walk) == size


def test_single_factor_tensor_is_connected():
    t = tensor_of(C2, ((1, 1),))
    assert len(component_sizes(t)) == 1


def test_cartan_component_identification():
    t = tensor_of(A2, ((1, 0), (0, 1)))
    target = highest_weight_crystal(A2, (1, 1))
    iso = canonical_morphism(t, target)
    assert len(iso) == 8
    assert sorted(iso.values()) == list(range(1, 9))
    # transport oracle agrees
    for x, y in iso.items():
        assert transport(t, t.highest, target, 1, x) == y


def test_canonical_morphism_identity_and_errors():
    b = highest_weight_crystal(A2, (1, 1))
    iso = canonical_morphism(b, b)
    assert iso == {x: x for x in b.elements()}
    with pytest.raises(ValueError):
        canonical_morphism(b, highest_weight_crystal(A2, (1, 0)))
    t = tensor_of(A2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        canonical_morphism(t, b, (2, 1))  # not a highest-weight element


class RedirectedEdge:
    """A crystal that reads as `crystal` except that f_i(x) is `to`."""

    def __init__(self, crystal, i, x, to):
        self.crystal, self.edge, self.to = crystal, (i, x), to
        self.datum = crystal.datum
        self.highest = crystal.highest
        self.highest_weight = crystal.highest_weight

    def f(self, i, x):
        return self.to if (i, x) == self.edge else self.crystal.f(i, x)


def test_the_walk_checks_an_edge_into_an_element_it_has_mapped():
    b = highest_weight_crystal(A2, (1, 1))
    assert b.f(2, 7) == 8
    # 6 is mapped before the walk leaves 7, and 8 is first reached from 6 by
    # f_1, so only the check of f_2(7) against the map can see the change
    with pytest.raises(RuntimeError, match="components are not isomorphic"):
        canonical_morphism(b, RedirectedEdge(b, 2, 7, 6))


@pytest.mark.parametrize(
    "datum,pair",
    [
        (A2, ((1, 0), (0, 1))),
        (A2, ((1, 1), (1, 1))),
        (C2, ((0, 1), (0, 1))),
        (C2, ((1, 1), (1, 0))),
        (G2, ((1, 0), (0, 1))),
        (G2, ((0, 1), (0, 1))),
    ],
)
def test_walks_match_transport_on_every_component(datum, pair):
    t = tensor_of(datum, pair)
    comps = component_sizes(t)
    assert len(comps) > 1
    covered = 0
    for weight, size, top in comps:
        std = highest_weight_crystal(datum, weight)
        walk = canonical_morphism(t, std, top)
        assert len(walk) == size
        covered += size
        for x, y in walk.items():
            assert raise_to_top(t, x) == top
            assert transport(t, top, std, std.highest, x) == y
    assert covered == t.size


def test_cartan_braiding_matching_of_swapped_products():
    t = tensor_of(A2, ((1, 0), (0, 1)))
    u = tensor_of(A2, ((0, 1), (1, 0)))
    iso = canonical_morphism(t, u)
    assert iso[(3, 1)] == (2, 2)
    assert len(iso) == 8


def test_cartan_project_examples():
    t = tensor_of(A2, ((1, 0), (0, 1)))
    assert cartan_project(t, (1, 3)) == (0, None)
    assert cartan_project(t, None) == (0, None)
    assert cartan_project(t, (1, 1)) == (1, 1)
    # anything tensor the highest-weight element stays in the Cartan component
    for c in (1, 2, 3):
        eta, _ = cartan_project(t, (c, 1))
        assert eta == 1


def test_component_highest_weight_elements_start_at_first_factor_top():
    for datum, weights in [
        (A2, ((1, 0), (0, 1))),
        (A2, ((1, 0), (1, 0))),
        (C2, ((1, 0), (0, 1))),
        (C2, ((0, 1), (0, 1))),
    ]:
        for _, _, top in component_sizes(tensor_of(datum, weights)):
            assert top[0] == 1


def test_tensor_associativity():
    for datum, weights in [(A2, ((1, 0), (0, 1), (1, 0))), (C2, ((1, 0), (0, 1), (1, 0)))]:
        flat = tensor_of(datum, weights)
        pair = tensor_of(datum, weights[:2])
        last = highest_weight_crystal(datum, weights[2])
        for t in flat.elements():
            x, y = t[:2], t[2]
            for i in datum.colours:
                # left-grouped two-factor rule against the flat n-fold rule
                if pair.phi(i, x) > last.eps(i, y):
                    expected = None if pair.f(i, x) is None else pair.f(i, x) + (y,)
                else:
                    expected = None if last.f(i, y) is None else x + (last.f(i, y),)
                assert flat.f(i, t) == expected
                if pair.phi(i, x) >= last.eps(i, y):
                    expected = None if pair.e(i, x) is None else pair.e(i, x) + (y,)
                else:
                    expected = None if last.e(i, y) is None else x + (last.e(i, y),)
                assert flat.e(i, t) == expected


def test_dimension_oracle_small_battery():
    for label in ("A1", "A2", "C2"):
        datum = build_root_datum(label)
        for lam in iter_product(range(3), repeat=datum.rank):
            assert highest_weight_crystal(datum, lam).size == weyl_dim(datum, lam)


@pytest.mark.parametrize("i", [0, 3])
def test_crystals_and_tensor_products_reject_a_colour_outside_the_rank(i):
    crystal = highest_weight_crystal(A2, (1, 0))
    pair = tensor_of(A2, ((1, 0), (0, 1)))
    for obj, element in [(crystal, 1), (pair, (1, 1))]:
        for op in (obj.f, obj.e, obj.eps, obj.phi):
            with pytest.raises(ValueError, match=f"invalid colour index {i} for A2"):
                op(i, element)
        for op in (obj.f, obj.e):
            with pytest.raises(ValueError, match=f"invalid colour index {i} for A2"):
                op(i, None)

import pytest

from crystalgraphs.braiding import (
    longest_permutation_word,
    pair_braiding,
    right_ends,
    sigma_word,
)
from crystalgraphs.crystal import canonical_morphism, highest_weight_crystal, tensor_of
from crystalgraphs.rootdata import add_weights, build_root_datum, weyl_dim

from helpers import bilinear, cartan_braiding, component_sizes, left_end, lowest, raise_to_top

A2 = build_root_datum("A2")
C2 = build_root_datum("C2")
A3 = build_root_datum("A3")

SL3_TABLE = {
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

C2_TABLE = {
    (1, 1): (1, 1),
    (1, 2): (2, 1),
    (2, 1): (1, 2),
    (2, 2): (3, 1),
    (2, 3): (4, 1),
    (2, 4): (4, 2),
    (3, 1): (2, 2),
    (3, 2): (2, 3),
    (3, 3): (5, 1),
    (3, 4): (5, 2),
    (3, 5): (5, 3),
    (4, 1): (3, 2),
    (4, 2): (3, 3),
    (4, 3): (4, 3),
    (4, 4): (4, 4),
    (4, 5): (5, 4),
    (1, 3): None,
    (1, 4): None,
    (1, 5): None,
    (2, 5): None,
}


def test_sl3_braiding_table():
    table = pair_braiding(A2, (1, 0), (0, 1))
    assert {t: table.get(t) for t in tensor_of(A2, ((1, 0), (0, 1))).elements()} == SL3_TABLE


def test_c2_braiding_table():
    table = pair_braiding(C2, (1, 0), (0, 1))
    assert {t: table.get(t) for t in tensor_of(C2, ((1, 0), (0, 1))).elements()} == C2_TABLE


def test_a_braiding_table_is_the_cartan_component_held_once():
    for label in ("A2", "C2", "B2", "G2"):
        datum = build_root_datum(label)
        (w1, w2), rho = datum.fundamental_weights, datum.rho
        for lam, lamp in [(w1, w2), (w2, w1), (w1, w1), (w2, w2), (rho, w1), (rho, rho)]:
            table = pair_braiding(datum, lam, lamp)
            # the memoized canonical matching itself, not a copy of it
            assert table is canonical_morphism(
                tensor_of(datum, (lam, lamp)), tensor_of(datum, (lamp, lam))
            )
            # one entry per element of the Cartan component B(lam + lamp)
            assert len(table) == weyl_dim(datum, add_weights(lam, lamp))
            assert None not in table.values()


def test_cartan_braiding_on_irreducibles():
    b = highest_weight_crystal(A2, (1, 0))
    bp = highest_weight_crystal(A2, (0, 1))
    assert cartan_braiding(b, bp, 3, 1) == (2, 2)
    assert cartan_braiding(b, bp, 1, 3) is None
    assert cartan_braiding(b, bp, None, 1) is None


def test_equal_weight_braiding_is_cartan_projection():
    for datum, lam in [(A2, (1, 0)), (C2, (0, 1))]:
        b = highest_weight_crystal(datum, lam)
        t = tensor_of(datum, (lam, lam))
        for x, y in t.elements():
            expected = (x, y) if t.eta((x, y)) else None
            assert cartan_braiding(b, b, x, y) == expected


def test_sl4_braiding_nonzero_on_two_components():
    b = highest_weight_crystal(A3, (1, 0, 0))
    bp = tensor_of(A3, ((0, 1, 0), (0, 0, 1)))
    comps = component_sizes(bp)
    assert [w for w, _, _ in comps] == [(0, 1, 1), (1, 0, 0)]
    hit = set()
    for x in b.elements():
        for y in bp.elements():
            if cartan_braiding(b, bp, x, y) is not None:
                hit.add(raise_to_top(bp, y))
    assert hit == {top for _, _, top in comps}


def test_braiding_is_a_crystal_morphism():
    for datum, lam, lamp in [
        (A2, (1, 0), (0, 1)),
        (A2, (1, 0), (1, 0)),
        (C2, (1, 0), (0, 1)),
        (C2, (0, 1), (0, 1)),
    ]:
        source = tensor_of(datum, (lam, lamp))
        target = tensor_of(datum, (lamp, lam))
        table = pair_braiding(datum, lam, lamp)
        for t in source.elements():
            for i in datum.colours:
                image = table.get(t)
                lowered = source.f(i, t)
                lhs = None if image is None else target.f(i, image)
                rhs = None if lowered is None else table.get(lowered)
                assert lhs == rhs
                raised = source.e(i, t)
                lhs = None if image is None else target.e(i, image)
                rhs = None if raised is None else table.get(raised)
                assert lhs == rhs


def test_sigma_word_empty_is_identity():
    t = tensor_of(A2, ((1, 0), (0, 1), (1, 0)))
    for x in t.elements():
        assert sigma_word(t, (), x) == x


def test_sigma_word_index_validation():
    t = tensor_of(A2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        sigma_word(t, (2,), (1, 1))


def test_sigma_reduced_word_independence():
    t = tensor_of(A2, ((1, 0), (0, 1), (1, 0)))
    assert t.size == 27
    for x in t.elements():
        assert sigma_word(t, (1, 2, 1), x) == sigma_word(t, (2, 1, 2), x)


def test_sigma_k_nonzero_on_cartan_component():
    for datum, weights in [(A2, ((1, 0), (0, 1), (1, 0))), (C2, ((1, 0), (0, 1), (1, 0)))]:
        t = tensor_of(datum, weights)
        for x in t.elements():
            if t.eta(x):
                for k in (1, 2):
                    assert sigma_word(t, (k,), x) is not None


def test_longest_permutation_word():
    assert longest_permutation_word(2) == (1,)
    assert longest_permutation_word(3) == (1, 2, 1)
    assert longest_permutation_word(4) == (1, 2, 1, 3, 2, 1)


def test_hexagons_and_braid_relation_spot_checks():
    wa, wb, wc = (1, 0), (0, 1), (1, 0)
    a = highest_weight_crystal(A2, wa)
    bc = tensor_of(A2, (wb, wc))
    ab = tensor_of(A2, (wa, wb))
    c = highest_weight_crystal(A2, wc)
    tab_ab = pair_braiding(A2, wa, wb)
    tab_ac = pair_braiding(A2, wa, wc)
    tab_bc = pair_braiding(A2, wb, wc)
    triple = tensor_of(A2, (wa, wb, wc))
    for x, y, z in triple.elements():
        # sigma_{A, B(x)C} = (id (x) sigma_{A,C})(sigma_{A,B} (x) id)
        rhs = None
        step = tab_ab.get((x, y))
        if step is not None:
            y1, x1 = step
            step2 = tab_ac.get((x1, z))
            if step2 is not None:
                z1, x2 = step2
                rhs = (y1, z1, x2)
        assert cartan_braiding(a, bc, x, (y, z)) == rhs
        # sigma_{A(x)B, C} = (sigma_{A,C} (x) id)(id (x) sigma_{B,C})
        rhs = None
        step = tab_bc.get((y, z))
        if step is not None:
            z1, y1 = step
            step2 = tab_ac.get((x, z1))
            if step2 is not None:
                z2, x1 = step2
                rhs = (z2, x1, y1)
        assert cartan_braiding(ab, c, (x, y), z) == rhs
        # braid relation through sigma_word
        assert sigma_word(triple, (1, 2, 1), (x, y, z)) == sigma_word(
            triple, (2, 1, 2), (x, y, z)
        )


def test_right_end_of_highest_weight():
    for datum, lam, mu in [(A2, (2, 2), (1, 0)), (C2, (1, 1), (0, 1))]:
        b = highest_weight_crystal(datum, lam)
        assert right_ends(b, 1, [mu]) == (1,)
        assert left_end(b, 1, mu) == 1


def test_right_ends_frozen_table_a2():
    t = tensor_of(A2, ((1, 0), (0, 1)))
    colours = ((1, 0), (0, 1))
    expected = {
        (1, 1): (1, 1),
        (2, 1): (2, 1),
        (3, 1): (2, 1),
        (1, 2): (1, 2),
        (2, 2): (1, 2),
        (3, 2): (3, 2),
        (2, 3): (2, 3),
        (3, 3): (3, 3),
        (1, 3): None,
    }
    for x, want in expected.items():
        assert right_ends(t, x, colours) == want


def test_right_end_via_braiding_rightmost_factor():
    t = tensor_of(A2, ((1, 0), (0, 1)))
    for x in t.elements():
        if not t.eta(x):
            continue
        sigma = sigma_word(t, (1,), x)
        assert right_ends(t, x, [(1, 0), (0, 1)]) == (sigma[1], x[1])


def test_left_end_tables_frozen():
    b = highest_weight_crystal(A2, (1, 1))
    lefts = {x: left_end(b, x, (1, 0)) for x in b.elements()}
    assert lefts == {1: 1, 2: 2, 3: 1, 4: 3, 5: 2, 6: 3, 7: 2, 8: 3}
    rights = {x: right_ends(b, x, [(1, 0)])[0] for x in b.elements()}
    assert rights == {1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 3, 7: 2, 8: 3}
    # lowest goes to lowest
    assert left_end(b, lowest(b), (1, 0)) == lowest(highest_weight_crystal(A2, (1, 0)))


def test_end_maps_require_dominant_difference():
    b = highest_weight_crystal(A2, (1, 0))
    with pytest.raises(ValueError):
        right_ends(b, 1, [(0, 1)])


def test_right_end_independence():
    lam, lamp, mu = (1, 0), (1, 1), (1, 0)
    t = tensor_of(A2, (lam, lamp))
    b_lam = highest_weight_crystal(A2, lam)
    for x in t.elements():
        if not t.eta(x):
            continue
        # when the right factor dominates mu, the end only sees that factor
        assert right_ends(t, x, [mu]) == right_ends(highest_weight_crystal(A2, lamp), x[1], [mu])
    t2 = tensor_of(A2, (lamp, lam))
    small = tensor_of(A2, (mu, lam))
    for x in t2.elements():
        if not t2.eta(x):
            continue
        (r_first,) = right_ends(highest_weight_crystal(A2, lamp), x[0], [mu])
        reduced = (r_first, x[1])
        assert small.eta(reduced)
        assert right_ends(t2, x, [mu]) == right_ends(small, reduced, [mu])


def test_set_of_right_ends_stable_under_larger_crystal():
    for datum in (A2, C2):
        colours = datum.fundamental_weights
        rho = (1, 1)
        bigger = (2, 1)
        ends_rho = {
            right_ends(highest_weight_crystal(datum, rho), b, colours)
            for b in highest_weight_crystal(datum, rho).elements()
        }
        ends_big = {
            right_ends(highest_weight_crystal(datum, bigger), b, colours)
            for b in highest_weight_crystal(datum, bigger).elements()
        }
        assert ends_rho == ends_big


def test_flip_criterion_weight_pairing():
    # sigma(b (x) b') = b' (x) b exactly when in the Cartan component and the
    # weights pair like the highest weights
    for datum, lam, lamp in [(A2, (1, 0), (0, 1)), (C2, (1, 0), (0, 1))]:
        b = highest_weight_crystal(datum, lam)
        bp = highest_weight_crystal(datum, lamp)
        t = tensor_of(datum, (lam, lamp))
        top = bilinear(datum, lam, lamp)
        for x, y in t.elements():
            flipped = cartan_braiding(b, bp, x, y) == (y, x)
            criterion = bool(t.eta((x, y))) and bilinear(
                datum, b.weight(x), bp.weight(y)
            ) == top
            assert flipped == criterion


def test_braiding_with_product_operand_is_a_crystal_morphism():
    wa, wb, wc = (1, 0), (0, 1), (1, 0)
    a = highest_weight_crystal(A2, wa)
    bc = tensor_of(A2, (wb, wc))
    source = tensor_of(A2, (wa, wb, wc))  # flat model of A (x) (B (x) C)
    target = tensor_of(A2, (wb, wc, wa))
    for t in source.elements():
        image = cartan_braiding(a, bc, t[0], t[1:])
        for i in A2.colours:
            lowered = source.f(i, t)
            lhs = None if image is None else target.f(i, image)
            rhs = (
                None
                if lowered is None
                else cartan_braiding(a, bc, lowered[0], lowered[1:])
            )
            assert lhs == rhs


def test_mixed_root_data_rejected():
    with pytest.raises(ValueError):
        cartan_braiding(
            highest_weight_crystal(A2, (1, 0)),
            highest_weight_crystal(C2, (1, 0)),
            1,
            1,
        )

from fractions import Fraction
from itertools import product as iter_product

import pytest

from crystalgraphs.memo import clear_caches
from crystalgraphs.rootdata import (
    CartanTypeError,
    WeylSizeError,
    build_root_datum,
    invert_rational,
    rational_rank,
    weyl_dim,
    weyl_group,
)


def gauss_solve(matrix, rhs):
    """Test-local exact solver for A x = rhs."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def test_a2_defining_data():
    d = build_root_datum("A2")
    assert d.cartan_matrix == ((2, -1), (-1, 2))
    assert len(d.positive_roots) == 3
    assert d.symmetrizers == (1, 1)


def test_a1_short_root_normalization():
    d = build_root_datum("A1")
    alpha = d.simple_root(1)
    assert len(d.positive_roots) == 1
    assert d.bilinear(alpha, alpha) == 2


@pytest.mark.parametrize(
    "label", ["A0", "B1", "C1", "D2", "E9", "E5", "F5", "G3", "H4", "X2", "A", "2A", "A2~"]
)
def test_bad_labels_rejected(label):
    with pytest.raises(CartanTypeError):
        build_root_datum(label)


def test_label_parsing_accepts_lower_case_and_spaces():
    assert build_root_datum(" a2 ") == build_root_datum("A2")


def test_bilinear_sl4_values():
    d = build_root_datum("A3")
    w1 = (1, 0, 0)
    assert d.bilinear(w1, (0, 1, 1)) == Fraction(3, 4)
    assert d.bilinear(w1, w1) == Fraction(3, 4)


def test_bilinear_with_zero_vanishes():
    d = build_root_datum("C2")
    assert d.bilinear((3, 5), (0, 0)) == 0


def test_bilinear_a2_against_hand_inverse():
    d = build_root_datum("A2")
    assert d.bilinear((1, 0), (1, 0)) == Fraction(2, 3)
    assert d.bilinear((1, 0), (0, 1)) == Fraction(1, 3)
    # oracle: express each fundamental weight in the root basis and pair via
    # the symmetrized Cartan matrix
    a = d.cartan_matrix
    s = [[d.symmetrizers[i] * a[i][j] for j in range(2)] for i in range(2)]
    for i, j in iter_product(range(2), repeat=2):
        ci = gauss_solve(a, [int(k == i) for k in range(2)])
        cj = gauss_solve(a, [int(k == j) for k in range(2)])
        expected = sum(ci[p] * s[p][q] * cj[q] for p in range(2) for q in range(2))
        got = d.bilinear(d.fundamental_weight(i + 1), d.fundamental_weight(j + 1))
        assert got == expected


@pytest.mark.parametrize(
    "label,order,length", [("A2", 6, 3), ("C2", 8, 4), ("A1", 2, 1), ("B2", 8, 4), ("G2", 12, 6)]
)
def test_weyl_group_orders(label, order, length):
    d = build_root_datum(label)
    group = weyl_group(d)
    assert group.order == order
    assert len(group.longest_word) == length
    assert len(group.longest_word) == len(d.positive_roots)


def test_a2_longest_word_is_lex_least():
    assert weyl_group(build_root_datum("A2")).longest_word == (1, 2, 1)


def test_weyl_cap_exceeded(monkeypatch):
    clear_caches()
    monkeypatch.setattr("crystalgraphs.rootdata.WEYL_CAP", 5)
    with pytest.raises(WeylSizeError, match="Weyl group of A3 exceeds the cap 5"):
        weyl_group(build_root_datum("A3"))


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_weyl_invariance_of_bilinear_form(label):
    d = build_root_datum(label)
    group = weyl_group(d)
    weights = [(1, 0), (0, 1), (2, 1), (1, 3)]
    for k in range(group.order):
        for mu, nu in iter_product(weights, repeat=2):
            assert d.bilinear(group.apply(k, mu), group.apply(k, nu)) == d.bilinear(mu, nu)


@pytest.mark.parametrize("label", ["A2", "C2", "B3"])
def test_stored_words_multiply_to_actions(label):
    d = build_root_datum(label)
    group = weyl_group(d)
    for element in group.elements:
        assert group.word_action(element.word) == element.images
    # longest element is an involution sending the dominant chamber to minus itself
    w0 = group.longest
    rho = d.rho
    assert group.apply(w0, group.apply(w0, rho)) == rho
    assert all(x <= 0 for x in group.apply(w0, rho))


def test_weyl_dim_examples():
    assert weyl_dim(build_root_datum("A2"), (1, 1)) == 8
    d1 = build_root_datum("A1")
    for m in range(7):
        assert weyl_dim(d1, (m,)) == m + 1
    assert weyl_dim(build_root_datum("C2"), (0, 1)) == 5


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(build_root_datum("A2"), (-1, 0))


def test_equal_data_hash_alike_and_stay_apart_as_keys():
    a2 = build_root_datum("A2")
    copy = a2._replace()
    assert copy is not a2 and copy == a2 and hash(copy) == hash(a2)
    data = {build_root_datum(label): label for label in ("A2", "C2", "G2")}
    assert len(data) == 3
    assert data[copy] == "A2"
    assert data[build_root_datum("C2")] == "C2"
    assert data[build_root_datum("G2")] == "G2"
    assert build_root_datum("C2") != build_root_datum("B2")



# every finite type of rank at most 8
LABELS_TO_E8 = [
    f"{family}{rank}"
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(low, 9)
] + ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("label", LABELS_TO_E8)
def test_cartan_matrix_times_its_inverse_is_the_identity(label):
    d = build_root_datum(label)
    n = d.rank
    inverse = invert_rational(d.cartan_matrix)
    product = [
        [sum(d.cartan_matrix[i][k] * inverse[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_rational_rank_sees_dependent_rows():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert rational_rank(rows) == 2 < len(rows)
    assert rational_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert rational_rank([(0, 0)]) == 0
    assert rational_rank([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 3
    with pytest.raises(ValueError):
        invert_rational([[1, 2], [2, 4]])

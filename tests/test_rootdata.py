import os
import subprocess
import sys
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

import pytest

from crystalgraphs.rootdata import (
    CartanTypeError,
    build_root_datum,
    integer_rank,
    weyl_dim,
    weyl_group,
)
from hypothesis import given, settings, strategies as st

from helpers import bilinear, braid_moved_word, invert_rational, rational_rank, weyl_bfs


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
    assert bilinear(d, alpha, alpha) == 2


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
    assert bilinear(d, w1, (0, 1, 1)) == Fraction(3, 4)
    assert bilinear(d, w1, w1) == Fraction(3, 4)


def test_bilinear_with_zero_vanishes():
    d = build_root_datum("C2")
    assert bilinear(d, (3, 5), (0, 0)) == 0


def test_bilinear_a2_against_hand_inverse():
    d = build_root_datum("A2")
    assert bilinear(d, (1, 0), (1, 0)) == Fraction(2, 3)
    assert bilinear(d, (1, 0), (0, 1)) == Fraction(1, 3)
    # oracle: express each fundamental weight in the root basis and pair via
    # the symmetrized Cartan matrix
    a = d.cartan_matrix
    s = [[d.symmetrizers[i] * a[i][j] for j in range(2)] for i in range(2)]
    for i, j in iter_product(range(2), repeat=2):
        ci = gauss_solve(a, [int(k == i) for k in range(2)])
        cj = gauss_solve(a, [int(k == j) for k in range(2)])
        expected = sum(ci[p] * s[p][q] * cj[q] for p in range(2) for q in range(2))
        got = bilinear(d, d.fundamental_weights[i], d.fundamental_weights[j])
        assert got == expected


@pytest.mark.parametrize(
    "label,order,length",
    [
        ("A2", 6, 3),
        ("C2", 8, 4),
        ("A1", 2, 1),
        ("B2", 8, 4),
        ("G2", 12, 6),
        # beyond what an enumeration of W reaches in seconds
        ("E6", 51840, 36),
        ("E7", 2903040, 63),
        ("E8", 696729600, 120),
    ],
)
def test_weyl_group_orders(label, order, length):
    d = build_root_datum(label)
    group = weyl_group(d)
    assert group.order == order
    assert len(group.longest_word) == length
    assert len(group.longest_word) == len(d.positive_roots)
    assert group.is_reduced_word_for_longest(group.longest_word)


def test_a2_longest_word_is_lex_least():
    assert weyl_group(build_root_datum("A2")).longest_word == (1, 2, 1)


# every finite type whose Weyl group has at most 2,000 elements
SMALL_WEYL_LABELS = [f"A{n}" for n in range(1, 6)] + [
    f"{family}{n}" for family in "BC" for n in range(2, 5)
] + ["D3", "D4", "D5", "F4", "G2"]


@pytest.mark.parametrize("label", SMALL_WEYL_LABELS)
def test_weyl_group_matches_the_enumerated_group(label):
    d = build_root_datum(label)
    group, oracle = weyl_group(d), weyl_bfs(d)
    assert group.order == oracle.order <= 2000
    assert group.longest_word == oracle.longest_word


@pytest.mark.parametrize("label", SMALL_WEYL_LABELS)
def test_reduced_word_check_matches_the_enumerated_action(label):
    d = build_root_datum(label)
    group, oracle = weyl_group(d), weyl_bfs(d)
    w0_images = oracle.elements[oracle.longest][0]
    longest = group.longest_word
    words = [longest] + [braid_moved_word(d, longest, seed) for seed in range(3)]
    # near misses: one letter changed, one letter short, a letter out of range
    words += [
        longest[:k] + (j,) + longest[k + 1 :]
        for k in range(len(longest))
        for j in d.colours
        if j != longest[k]
    ]
    words += [longest[:-1], longest[1:], longest[:-1] + (0,), longest[:-1] + (d.rank + 1,)]
    verdicts = []
    for word in words:
        expected = (
            len(word) == len(d.positive_roots)
            and all(1 <= i <= d.rank for i in word)
            and oracle.word_action(word) == w0_images
        )
        assert group.is_reduced_word_for_longest(word) == expected, word
        verdicts.append(expected)
    assert verdicts[:4] == [True] * 4 and not any(verdicts[4:])


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_weyl_invariance_of_bilinear_form(label):
    d = build_root_datum(label)
    group = weyl_bfs(d)
    weights = [(1, 0), (0, 1), (2, 1), (1, 3)]
    for k in range(group.order):
        for mu, nu in iter_product(weights, repeat=2):
            assert bilinear(d, group.apply(k, mu), group.apply(k, nu)) == bilinear(d, mu, nu)


@pytest.mark.parametrize("label", ["A2", "C2", "B3"])
def test_stored_words_multiply_to_actions(label):
    d = build_root_datum(label)
    group = weyl_bfs(d)
    for images, word in group.elements:
        assert group.word_action(word) == images
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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-3, 3), min_size=width, max_size=width), max_size=6
        )
    )
)
def test_integer_rank_matches_the_fraction_rank(rows):
    # small entries and more rows than columns make dependent rows common
    assert integer_rank(rows) == rational_rank(rows)


def test_integer_rank_sees_dependent_rows():
    assert integer_rank([(1, 2, 3), (2, 4, 6), (0, 1, 1)]) == 2
    assert integer_rank([(0, 0)]) == 0
    assert integer_rank([]) == 0
    # a pivot column skipped before the last pivot
    assert integer_rank([(0, 2, 1), (0, 4, 3), (0, 6, 5)]) == 2
    assert integer_rank([(2, 1, 0), (0, 1, 1), (1, 0, 1)]) == 3


def test_a_datum_and_its_weyl_group_load_no_fractions_or_decimal():
    # the set-up every launch pays before any crystal is built is integer
    # arithmetic only
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import sys, crystalgraphs\n"
        "from crystalgraphs.rootdata import build_root_datum, weyl_group\n"
        "for label in ('A2', 'C2', 'G2', 'B3', 'F4'):\n"
        "    weyl_group(build_root_datum(label))\n"
        "print(*sorted(sys.modules))\n"
    )
    probe = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(probe.stdout.split())
    assert "crystalgraphs.rootdata" in loaded
    assert loaded.isdisjoint({"fractions", "decimal"})

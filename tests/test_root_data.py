"""Cartan data, reflections, Weyl groups, reduced words, dominance."""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcrystal.root_data import (CartanDatum, apply_word, canonical_word,
                                cartan_datum, dominance_leq, element_key,
                                is_reduced, longest_word, positive_roots,
                                reflect, rho, simple_root, supported_types,
                                weyl_group, weyl_order)
from weyl_reference import all_reduced_words

WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48,
               "C3": 48, "D4": 192, "G2": 12}


def test_supported_table():
    assert set(supported_types()) == set(WEYL_ORDERS)
    for name in supported_types():
        cartan_datum(name)  # constructor validates invariants


def test_cartan_matrices_pinned():
    assert cartan_datum("A2").cartan == ((2, -1), (-1, 2))
    assert cartan_datum("B2").cartan == ((2, -1), (-2, 2))
    assert cartan_datum("C3").cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert cartan_datum("G2").cartan == ((2, -3), (-1, 2))
    d4 = cartan_datum("D4").cartan
    assert d4[1] == (-1, 2, -1, -1) and d4[0][2] == 0 and d4[2][3] == 0


def test_readme_cartan_table_is_the_code_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| ([A-Z]\d) \| `([^`]+)` \| `\(([^`]+)\)` \|$", readme, re.M)
    assert [name for name, _, _ in rows] == list(supported_types())
    for name, matrix, sym in rows:
        cartan = tuple(tuple(int(x) for x in row.split(","))
                       for row in re.findall(r"\[([^\]]+)\]", matrix))
        d = cartan_datum(name)
        assert (d.cartan, d.sym) == (cartan, tuple(int(x) for x in sym.split(","))), name


def test_symmetrizer_identity():
    for name in supported_types():
        d = cartan_datum(name)
        for i in range(d.rank):
            for j in range(d.rank):
                assert d.sym[i] * d.cartan[i][j] == d.sym[j] * d.cartan[j][i]


def test_invalid_data_rejected():
    with pytest.raises(ValueError):
        CartanDatum("A", 2, ((2, -1), (0, 2)), (1, 1))  # broken zero symmetry
    with pytest.raises(ValueError):
        CartanDatum("A", 2, ((1, -1), (-1, 2)), (1, 1))  # diagonal not 2
    with pytest.raises(ValueError):
        CartanDatum("A", 2, ((2, -2), (-2, 2)), (1, 1))  # affine, not finite
    with pytest.raises(ValueError):
        cartan_datum("E8")
    with pytest.raises(ValueError):
        cartan_datum("A9")


def test_type_names_take_ascii_digits_only():
    assert cartan_datum("a02") == cartan_datum(" A2 ") == cartan_datum("A2")
    # '²' passes str.isdigit but not int(); '٣' is read by int() as 3
    for name in ("A²", "A٣", "B²", "D٤", "A"):
        with pytest.raises(ValueError, match="cannot parse type name"):
            cartan_datum(name)


def test_simple_root_examples():
    assert simple_root(cartan_datum("A1"), 1) == (2,)
    assert simple_root(cartan_datum("A2"), 1) == (2, -1)
    assert simple_root(cartan_datum("G2"), 2) == (-3, 2)
    with pytest.raises(IndexError):
        simple_root(cartan_datum("A2"), 3)


def test_reflect_examples():
    assert reflect(cartan_datum("A1"), 1, (3,)) == (-3,)
    assert reflect(cartan_datum("A2"), 1, (1, 1)) == (-1, 2)
    for name in supported_types():
        d = cartan_datum(name)
        zero = (0,) * d.rank
        for i in d.indices():
            assert reflect(d, i, zero) == zero


@pytest.mark.parametrize("name", sorted(WEYL_ORDERS))
def test_reflect_involution_exhaustive(name):
    d = cartan_datum(name)
    for mu in itertools.product(range(-5, 6), repeat=d.rank):
        for i in d.indices():
            assert reflect(d, i, reflect(d, i, mu)) == mu


@given(st.tuples(*(st.integers(-50, 50) for _ in range(4))),
       st.integers(1, 4), st.sampled_from(["A4", "D4"]))
def test_reflect_involution_large_coordinates(mu, i, name):
    d = cartan_datum(name)
    assert reflect(d, i, reflect(d, i, mu)) == mu


@pytest.mark.parametrize("name,order", sorted(WEYL_ORDERS.items()))
def test_weyl_group_order(name, order):
    d = cartan_datum(name)
    group = weyl_group(d)
    assert len(group) == order == weyl_order(d)
    assert () in group


def test_weyl_group_closed_under_generators():
    for name in ["A2", "B2", "G2"]:
        d = cartan_datum(name)
        group = set(weyl_group(d))
        for w in group:
            for i in d.indices():
                assert canonical_word(d, w + (i,)) in group


@pytest.mark.parametrize("name", sorted(WEYL_ORDERS))
def test_rho_orbit_is_free(name):
    d = cartan_datum(name)
    keys = {apply_word(d, w, rho(d)) for w in weyl_group(d)}
    assert len(keys) == weyl_order(d)


def test_longest_word_examples():
    assert longest_word(cartan_datum("A1")) == (1,)
    assert longest_word(cartan_datum("A2")) in ((1, 2, 1), (2, 1, 2))
    assert len(longest_word(cartan_datum("B2"))) == 4


@pytest.mark.parametrize("name", sorted(WEYL_ORDERS))
def test_longest_word_length_is_number_of_positive_roots(name):
    d = cartan_datum(name)
    w0 = longest_word(d)
    assert is_reduced(d, w0)
    assert len(w0) == len(positive_roots(d))
    # w0 sends dominant to antidominant
    image = apply_word(d, w0, rho(d))
    assert all(c < 0 for c in image)


def test_is_reduced_examples():
    d = cartan_datum(("A2"))
    assert not is_reduced(d, (1, 1))
    assert is_reduced(d, (1, 2, 1))
    assert is_reduced(d, ())
    assert not is_reduced(d, (1, 2, 1, 2))  # equals s2 in W(A2)


def test_all_reduced_words_small():
    # the test reference's listing, which the per-word tests read
    d = cartan_datum("A2")
    assert all_reduced_words(d, (1, 2, 1)) == ((1, 2, 1), (2, 1, 2))
    assert all_reduced_words(d, ()) == ((),)
    b2 = cartan_datum("B2")
    words = all_reduced_words(b2, longest_word(b2))
    assert words == ((1, 2, 1, 2), (2, 1, 2, 1))
    for w in words:
        assert element_key(b2, w) == element_key(b2, words[0])


def test_all_reduced_words_enumerates_large_groups():
    # every word the test reference lists is reduced with w0's point, by root_data
    for name, count in (("D4", 2316), ("A4", 768)):
        d = cartan_datum(name)
        words = all_reduced_words(d, longest_word(d))
        assert len(words) == len(set(words)) == count
        target = element_key(d, longest_word(d))
        for w in words:
            assert is_reduced(d, w) and element_key(d, w) == target


def test_dominance_examples():
    a2 = cartan_datum("A2")
    assert dominance_leq(a2, (1, 1), (1, 1))
    assert dominance_leq(a2, (-1, 2), (1, 1))  # difference is alpha_1
    assert not dominance_leq(cartan_datum("A1"), (3,), (1,))
    # difference outside the root lattice
    assert not dominance_leq(a2, (0, 0), (1, 0))
    # negative coefficients rejected
    assert not dominance_leq(a2, (1, 1), (-1, 2))


def test_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9,
                "C3": 9, "D4": 12, "G2": 6}
    for name, count in expected.items():
        assert len(positive_roots(cartan_datum(name))) == count

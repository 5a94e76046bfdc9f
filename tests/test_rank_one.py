"""Rank-one quantized module: action formulas, divided powers, crystal chain."""

from fractions import Fraction

import pytest

from qcrystal.qarith import LaurentPoly, qbinom, qint
from qcrystal.rank_one import (RankOneModule, act_K, act_divided_f, act_e,
                               act_f, crystal_f_tilde,
                               iterated_f_over_factorial, verify_sl2_relation)

ONE = LaurentPoly({0: 1})


def test_dimension():
    assert RankOneModule(0).dim == 1
    assert RankOneModule(7).dim == 8
    with pytest.raises(ValueError):
        RankOneModule(-1)


@pytest.mark.parametrize("lam", [2.5, 3.0, Fraction(3), "3"])
def test_highest_weight_must_be_an_int(lam):
    with pytest.raises(TypeError):
        RankOneModule(lam)


def test_act_f_examples():
    m = RankOneModule(2)
    assert act_f(m, m.basis_vector(0)) == {1: qint(1)}
    assert act_f(m, m.basis_vector(1)) == {2: qint(2)}
    assert act_f(m, m.basis_vector(2)) == {}  # f^(lam+1) v = 0


def test_act_e_examples():
    m = RankOneModule(2)
    assert act_e(m, m.basis_vector(1)) == {0: qint(2)}
    assert act_e(m, m.basis_vector(0)) == {}  # f^(-1) v = 0
    m3 = RankOneModule(3)
    assert act_e(m3, m3.basis_vector(3)) == {2: qint(1)}


def test_act_K_examples():
    m = RankOneModule(2)
    assert act_K(m, m.basis_vector(1)) == m.basis_vector(1)  # q^0
    m1 = RankOneModule(1)
    assert act_K(m1, m1.basis_vector(0)) == {0: LaurentPoly({1: 1})}
    m0 = RankOneModule(0)
    assert act_K(m0, m0.basis_vector(0)) == m0.basis_vector(0)


def test_divided_power_examples():
    m = RankOneModule(4)
    v = m.basis_vector(2)
    assert act_divided_f(m, 0, v) == v
    assert act_divided_f(m, 1, v) == act_f(m, v)
    assert act_divided_f(m, 2, v) == {4: qbinom(4, 2)}


def test_divided_powers_match_iterated_route():
    # direct quantum-binomial action vs iterate-then-divide-by-factorial
    for lam in range(11):
        m = RankOneModule(lam)
        for p in range(lam + 2):
            for k in range(lam + 1):
                v = m.basis_vector(k)
                assert act_divided_f(m, p, v) == iterated_f_over_factorial(m, p, v)


def test_divided_power_composition():
    # f^(p) f^(r) = [p+r choose r] f^(p+r)
    for lam in range(11):
        m = RankOneModule(lam)
        for p in range(5):
            for r in range(5):
                coeff = qbinom(p + r, r)
                for k in range(lam + 1):
                    v = m.basis_vector(k)
                    lhs = act_divided_f(m, p, act_divided_f(m, r, v))
                    rhs = {t: coeff * c for t, c in act_divided_f(m, p + r, v).items()}
                    assert lhs == rhs


def test_sl2_relation_up_to_12():
    for lam in range(13):
        ok, witness = verify_sl2_relation(RankOneModule(lam))
        assert ok, witness


def test_sl2_relation_expansion_examples():
    # lam = 2, k = 0: [1][2] - 0 = [2]
    assert qint(1) * qint(2) == qint(2)
    # lam = 2, k = 1: [2][1] - [1][2] = 0 = [0]
    assert qint(2) * qint(1) - qint(1) * qint(2) == qint(0)


def test_crystal_chain():
    m = RankOneModule(2)
    assert crystal_f_tilde(m, 1) == 2
    assert crystal_f_tilde(m, 2) is None
    assert crystal_f_tilde(RankOneModule(0), 0) is None
    with pytest.raises(IndexError):
        crystal_f_tilde(m, 5)


def test_linearity():
    m = RankOneModule(3)
    v = {0: qint(2), 1: ONE}
    out = act_f(m, v)
    assert out == {1: qint(2) * qint(1), 2: qint(2)}

"""Laurent ring, quantum integers/binomials and the bar involution."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcrystal.qarith import (ExactDivisionError, LaurentPoly, bar,
                             eval_at_one, one, q, qbinom, qfact, qint, zero)
from schoolbook_reference import schoolbook_items

laurent_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-25, 25),
                    st.integers(-40, 40).filter(bool),
                    max_size=6))


def test_qint_small():
    assert qint(0) == zero
    assert qint(1) == one
    assert qint(2) == q + LaurentPoly({-1: 1})
    assert qint(2) == LaurentPoly({1: 1, -1: 1})
    assert qint(-3) == -qint(3)


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60))
def test_qint_matches_its_term_list(n):
    # [n] = q^(n-1) + q^(n-3) + ... + q^(1-n); [-n] = -[n]
    expected = LaurentPoly({n - 1 - 2 * k: 1 for k in range(n)}) if n >= 0 else \
        LaurentPoly({-n - 1 - 2 * k: -1 for k in range(-n)})
    assert qint(n) == expected
    assert qint(n)._terms == expected._terms


def test_qint_term_count():
    for n in range(1, 12):
        assert len(qint(n)) == n
        assert eval_at_one(qint(n)) == n


def test_qbinom_edges():
    for n in range(6):
        assert qbinom(n, 0) == one
        assert qbinom(n, n) == one
    assert qbinom(2, 5) == zero
    with pytest.raises(ValueError):
        qbinom(-1, 0)


def test_qbinom_examples():
    # (4, 2) multiplied out by hand: [4][3] / ([2][1])
    assert qbinom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert qbinom(3, 1) == qint(3)
    oracle = (qint(4) * qint(3)).exact_div(qint(2) * qint(1))
    assert qbinom(4, 2) == oracle


def _qbinom_pascal(m, k):
    # independent route: quantized Pascal recursion
    if k == 0 or k == m:
        return one
    if k > m:
        return zero
    return (_qbinom_pascal(m - 1, k).shift(k)
            + _qbinom_pascal(m - 1, k - 1).shift(k - m))


def test_qbinom_pascal_identity_exhaustive():
    for m in range(1, 9):
        for k in range(m + 1):
            assert qbinom(m, k) == _qbinom_pascal(m, k), (m, k)
            if 0 < k < m:
                lhs = qbinom(m, k)
                rhs = qbinom(m - 1, k).shift(k) + qbinom(m - 1, k - 1).shift(k - m)
                assert lhs == rhs, (m, k)


def test_qbinom_evaluates_to_binomial():
    for m in range(11):
        for k in range(m + 1):
            assert eval_at_one(qbinom(m, k)) == math.comb(m, k)


def test_bar_examples():
    assert bar(q) == LaurentPoly({-1: 1})
    assert bar(zero) == zero
    for n in range(-6, 7):
        assert bar(qint(n)) == qint(n)


@settings(max_examples=1000, deadline=None)
@given(laurent_polys)
def test_bar_is_involutive(p):
    assert bar(bar(p)) == p


@given(laurent_polys, laurent_polys)
def test_eval_at_one_is_ring_hom(p, r):
    assert eval_at_one(p * r) == eval_at_one(p) * eval_at_one(r)
    assert eval_at_one(p + r) == eval_at_one(p) + eval_at_one(r)


@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


def test_exact_division_guards():
    with pytest.raises(ExactDivisionError):
        qint(3).exact_div(qint(2))
    with pytest.raises(ZeroDivisionError):
        one.exact_div(zero)
    assert (qint(2) * qint(5)).exact_div(qint(5)) == qint(2)


def test_exact_division_rejects_non_polynomials():
    # as for products, an operand that is neither a LaurentPoly nor an int
    # is a type error, not a division by zero
    for divisor in (2.0, "x", None, [1]):
        with pytest.raises(TypeError, match="cannot divide a LaurentPoly"):
            qint(3).exact_div(divisor)
        with pytest.raises(TypeError):
            qint(3) * divisor
    for divisor in (0, zero, LaurentPoly()):
        with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
            qint(3).exact_div(divisor)
    assert (qint(2) * 3).exact_div(3) == qint(2)
    assert zero.exact_div(-1) == zero


def test_qfact_growth_is_exact():
    # [10]! has unit leading coefficient and degree 45 on each side
    f = qfact(10)
    assert f.max_exp() == 45 and f.min_exp() == -45
    assert f.coefficient(45) == 1
    assert eval_at_one(f) == math.factorial(10)


def test_rendering():
    assert str(zero) == "0"
    assert str(one) == "1"
    assert str(qint(2)) == "q + q^-1"
    assert str(qbinom(4, 2)) == "q^4 + q^2 + 2 + q^-2 + q^-4"
    assert str(LaurentPoly({2: -3, 0: 1})) == "-3q^2 + 1"
    assert str(LaurentPoly({1: 1, -3: -2})) == "q - 2q^-3"


def test_immutability_and_hash():
    p = qint(4)
    with pytest.raises(AttributeError):
        p._terms = {}
    assert hash(qint(4)) == hash(qint(4) + qint(2) - qint(2))
    assert len({qint(2), qint(2), qint(3)}) == 2


def test_constants_hash_like_the_ints_they_equal():
    assert one == 1 and hash(one) == hash(1)
    assert zero == 0 and hash(zero) == hash(0)
    assert -qint(1) == -1 and hash(-qint(1)) == hash(-1)
    assert {1: "x"}[one] == "x"


# -- Kronecker products against the term-by-term reference -----------------

# Up to 40 terms over exponents -100..100, so both the one-term shift
# and the Kronecker product run; coefficients up to 10^40 reach every
# digit width, including the one past 8 bytes.
wide_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-100, 100),
                    st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40)),
                    max_size=40))
operands = st.one_of(wide_polys, st.integers(-10**40, 10**40))


@settings(max_examples=200, deadline=None)
@given(wide_polys, operands)
def test_product_matches_schoolbook(a, b):
    assert (a * b).items() == schoolbook_items(a, b)
    assert (b * a).items() == schoolbook_items(b, a)


# One-term factors c q^e (c = 0 is the zero polynomial), as polynomials or
# as ints, on either side of a product with any polynomial.
unit_coefficients = st.sampled_from([0, 1, -1])
one_term_polys = st.builds(
    lambda e, c: LaurentPoly({e: c}), st.integers(-100, 100),
    st.one_of(unit_coefficients, st.integers(-10**40, 10**40)))
one_term_operands = st.one_of(one_term_polys, unit_coefficients,
                              st.integers(-10**40, 10**40))


@settings(max_examples=200, deadline=None)
@given(one_term_operands, st.one_of(wide_polys, one_term_polys))
def test_one_term_product_matches_schoolbook(a, b):
    assert (a * b).items() == schoolbook_items(a, b)
    assert (b * a).items() == schoolbook_items(b, a)


def test_product_edge_cases():
    dense = LaurentPoly({e: 1 for e in range(-50, 50)})
    cases = [
        (zero, zero), (zero, dense), (dense, zero), (dense, 0), (0, dense),
        (one, dense), (q, dense), (dense, -7), (LaurentPoly({-90: -3}), dense),
        (qint(400), qint(401)), (qint(400), -qint(3)), (qint(5), qint(-6)),
        # inner coefficients cancel: (1 - q) (1 + q + ... + q^99) = 1 - q^100
        (LaurentPoly({0: 1, 1: -1}), LaurentPoly({e: 1 for e in range(100)})),
        (LaurentPoly({-60: 1, -59: -1, -58: 1, -57: -1}), LaurentPoly({e: 1 for e in range(40)})),
        (LaurentPoly({e: -10**40 if e % 2 else 10**40 for e in range(-20, 20)}), dense),
        (qfact(25), qfact(24)),
    ]
    for a, b in cases:
        assert (a * b).items() == schoolbook_items(a, b), (a, b)
    assert (LaurentPoly({0: 1, 1: -1}) * LaurentPoly({e: 1 for e in range(100)})
            == LaurentPoly({0: 1, 100: -1}))


def test_product_digit_width_boundaries():
    # c (1 + q + q^2 + q^3) times +-c (...) has middle coefficient +-4c^2,
    # the bound the digit width is chosen from: take c on both sides of
    # each 1-, 2-, 4- and 8-byte limit, and past it.
    for bits in (8, 16, 32, 64, 128):
        c0 = math.isqrt((2 ** (bits - 1) - 1) // 4)
        for c in (c0, c0 + 1):
            a = LaurentPoly({e: c for e in range(-1, 3)})
            for b in (a, -a):
                product = a * b
                assert product.items() == schoolbook_items(a, b), (bits, c)
                assert max(abs(v) for _, v in product.items()) == 4 * c * c
            mixed = LaurentPoly({e: -c if e % 2 else c for e in range(4)})
            assert (a * mixed).items() == schoolbook_items(a, mixed), (bits, c)


def test_qfact_steps_match_schoolbook():
    for n in range(41):
        step = qfact(n) * qint(n + 1)
        assert step == qfact(n + 1)
        assert step.items() == schoolbook_items(qfact(n), qint(n + 1))
        assert eval_at_one(step) == math.factorial(n + 1)
    big = qfact(60)
    assert big.items() == schoolbook_items(qfact(59), qint(60))
    assert eval_at_one(big) == math.factorial(60)
    assert bar(big) == big and big.coefficient(big.max_exp()) == 1


def test_qbinom_evaluates_to_binomial_up_to_60():
    # every k for m <= 12; k = 0, 1, m and the middle of m = 60 above that
    # (exact division dominates the cost, so the middle is checked once)
    cases = {(m, k) for m in range(13) for k in range(m + 1)}
    cases |= {(m, k) for m in range(61) for k in (0, 1, m)}
    cases.add((60, 30))
    for m, k in sorted(cases):
        assert eval_at_one(qbinom(m, k)) == math.comb(m, k), (m, k)


def test_constructor_checks_and_copies():
    for bad in ({0.5: 1}, {0: 1.0}, {"1": 1}, [(0, 1), (1, "2")]):
        with pytest.raises(TypeError):
            LaurentPoly(bad)
    assert LaurentPoly({0: 0, 1: 2, 2: 0}).items() == ((1, 2),)
    assert LaurentPoly([(1, 2), (1, -2), (0, 3)]).items() == ((0, 3),)
    assert type(LaurentPoly({1: True}).coefficient(1)) is int
    terms = {3: 1, 4: 5}
    p = LaurentPoly(terms)
    terms[3] = 9
    assert p.coefficient(3) == 1

"""The shared sparse-map core, and the algebra built on it, against references.

``LaurentPoly`` and ``FormalCharacter`` are checked against plain dicts;
``demazure_operator`` and the rank-one actions against their accumulating
forms in ``algebra_reference``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_reference as ref
from qcrystal import rank_one
from qcrystal.character import FormalCharacter, demazure_operator
from qcrystal.qarith import LaurentPoly, one
from qcrystal.rank_one import RankOneModule
from qcrystal.root_data import cartan_datum

# Few keys and small values, so that sums often cancel to zero and empty
# maps are common.
values = st.integers(-2, 2)
KEYS = {LaurentPoly: st.integers(-3, 3),
        FormalCharacter: st.tuples(st.integers(-1, 1), st.integers(-1, 1))}


def pair_lists(keys):
    return st.lists(st.tuples(keys, values), max_size=8)


def dict_of(pairs):
    """The reference map: values summed per key, zeros dropped."""
    acc = {}
    for k, v in pairs:
        acc[k] = acc.get(k, 0) + v
    return {k: v for k, v in acc.items() if v}


def dict_sum(a, b, sign=1):
    return dict_of([*a.items(), *((k, sign * v) for k, v in b.items())])


@pytest.mark.parametrize("cls", [LaurentPoly, FormalCharacter])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_group_operations_match_dict_reference(cls, data):
    pa, pb = data.draw(pair_lists(KEYS[cls])), data.draw(pair_lists(KEYS[cls]))
    a, b = cls(pa), cls(pb)
    da, db = dict_of(pa), dict_of(pb)
    assert a.items() == tuple(sorted(da.items(), reverse=True))
    assert len(a) == len(da) and bool(a) == bool(da)
    assert dict((a + b).items()) == dict_sum(da, db)
    assert dict((a - b).items()) == dict_sum(da, db, -1)
    assert dict((-a).items()) == dict_sum({}, da, -1)
    assert (a == b) == (da == db) and (a != b) == (da != db)
    assert a - a == cls() and not a - a
    assert hash(a + b) == hash(b + a)
    if da == db:
        assert hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(pair_lists(KEYS[LaurentPoly]), values)
def test_int_operands_match_dict_reference(pa, n):
    a, da, dn = LaurentPoly(pa), dict_of(pa), dict_of([(0, n)])
    assert dict((a + n).items()) == dict((n + a).items()) == dict_sum(da, dn)
    assert dict((a - n).items()) == dict_sum(da, dn, -1)
    assert dict((n - a).items()) == dict_sum(dn, da, -1)
    assert (a == n) == (n == a) == (da == dn)
    if a == n:
        assert hash(a) == hash(n)


@pytest.mark.parametrize("cls", [LaurentPoly, FormalCharacter])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_difference_is_sum_with_negation(cls, data):
    # ``-`` is one pass of its own; it must agree with ``+`` of the negation,
    # also when b repeats part of a and the shared keys cancel.
    pa, pb = data.draw(pair_lists(KEYS[cls])), data.draw(pair_lists(KEYS[cls]))
    a, b = cls(pa), cls(pb)
    part = cls(pa[:data.draw(st.integers(0, len(pa)))])
    for x, y in ((a, b), (a, a), (a, part), (part, a), (a + b, b), (b, a + b)):
        assert x - y == x + (-y)
        assert (x - y)._terms == (x + (-y))._terms
    assert not (a - a)._terms and (a + b) - b == a


@settings(max_examples=200, deadline=None)
@given(pair_lists(KEYS[LaurentPoly]), values)
def test_difference_with_int_operands_is_sum_with_negation(pa, n):
    p = LaurentPoly(pa)
    assert p - n == p + (-n) and n - p == n + (-p)
    assert (p - 3)._terms == (p + -3)._terms and (3 - p)._terms == (3 + -p)._terms
    const = LaurentPoly({0: n})
    assert not (const - n)._terms and not (n - const)._terms


def test_immutable_with_type_name():
    for value in (LaurentPoly({1: 2}), FormalCharacter({(1, 0): 2})):
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            value._terms = {}


def test_repr_names_the_type():
    assert repr(LaurentPoly({1: 2, -1: 3})) == "LaurentPoly({1: 2, -1: 3})"
    assert repr(FormalCharacter({(0, 1): 1})) == "FormalCharacter({(0, 1): 1})"


# -- Demazure operator against the accumulating reference ----------------

@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_demazure_operator_matches_reference(name, data):
    datum = cartan_datum(name)
    weight = st.tuples(*[st.integers(-4, 4)] * datum.rank)
    chi = FormalCharacter(data.draw(st.lists(st.tuples(weight, st.integers(-3, 3)),
                                             max_size=6)))
    for i in datum.indices():
        assert demazure_operator(datum, i, chi) == ref.demazure_operator(datum, i, chi)


# -- rank-one actions against the accumulating reference -----------------

polys = st.builds(LaurentPoly, st.dictionaries(st.integers(-3, 3), values, max_size=3))
# Keys run two past each end of the basis 0..lam, and entries may be zero.
vectors = st.dictionaries(st.integers(-2, 8), polys, max_size=5)


def outcome(fn, *args):
    """The result of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3), vectors)
def test_rank_one_actions_match_reference(lam, power, v):
    m = RankOneModule(lam)
    for name in ("act_f", "act_e", "act_K"):
        assert getattr(rank_one, name)(m, v) == getattr(ref, name)(m, v)
    for name in ("act_divided_f", "iterated_f_over_factorial"):
        assert (outcome(getattr(rank_one, name), m, power, v)
                == outcome(getattr(ref, name), m, power, v))


def test_divided_f_power_zero_keeps_every_nonzero_entry():
    v = {-1: one, 0: LaurentPoly(), 2: LaurentPoly({1: 3}), 9: one}
    assert rank_one.act_divided_f(RankOneModule(2), 0, v) == {
        -1: one, 2: LaurentPoly({1: 3}), 9: one}


def test_sl2_relation_matches_reference():
    for lam in range(12):
        m = RankOneModule(lam)
        assert rank_one.verify_sl2_relation(m) == ref.verify_sl2_relation(m) == (True, None)


def test_sl2_relation_checks_the_whole_vector(monkeypatch):
    # A stray e-entry at key -5 leaves the k-th entry of ef - fe right but
    # puts nonzero entries at keys -5 and -4.
    act_e = rank_one.act_e
    monkeypatch.setattr(rank_one, "act_e", lambda m, v: {**act_e(m, v), -5: one})
    assert rank_one.verify_sl2_relation(RankOneModule(3)) == (False, (3, 0))

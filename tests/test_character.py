"""Formal characters, Demazure operators, Freudenthal and dimension oracles."""

import random

import pytest

from conftest import by_word
from qcrystal import cli
from qcrystal.character import (FormalCharacter, apply_demazure_word, char_of,
                                demazure_operator, verify_demazure_character,
                                weyl_character, weyl_dimension)
from qcrystal.crystal import generate_crystal
from qcrystal.demazure import demazure_crystal, extremal_weights
from qcrystal.root_data import cartan_datum, longest_word, reflect, simple_root, weyl_group
from weyl_reference import all_reduced_words

A1 = cartan_datum("A1")
A2 = cartan_datum("A2")
G2 = cartan_datum("G2")


def test_formal_character_basics():
    chi = FormalCharacter({(1, 0): 2, (0, 1): 0, (-1, 0): 1})
    assert chi.multiplicity((0, 1)) == 0 and len(chi) == 2
    assert chi.total() == 3
    assert chi + FormalCharacter({(1, 0): -2}) == FormalCharacter({(-1, 0): 1})
    assert chi.render() == "(1, 0) : 2\n(-1, 0) : 1"
    assert FormalCharacter().render() == ""


def test_formal_character_rejects_int_operands():
    for op in (lambda c: c + 1, lambda c: 1 + c, lambda c: c - 1, lambda c: 1 - c):
        with pytest.raises(TypeError):
            op(FormalCharacter())


def test_char_of_examples(graph_of):
    trivial = graph_of("A2", (0, 0))
    assert char_of(trivial.all_ids(), trivial) == FormalCharacter.monomial((0, 0))

    two_chain = graph_of("A1", (1,))
    assert char_of(two_chain.all_ids(), two_chain) == FormalCharacter(
        {(1,): 1, (-1,): 1})

    adjoint = graph_of("A2", (1, 1))
    chi = char_of(adjoint.all_ids(), adjoint)
    assert chi.multiplicity((0, 0)) == 2
    assert chi.total() == 8


def test_demazure_operator_monomials():
    for datum in (A1, A2, G2):
        zero = (0,) * datum.rank
        assert demazure_operator(datum, 1, FormalCharacter.monomial(zero)) == \
            FormalCharacter.monomial(zero)
    chi = demazure_operator(A1, 1, FormalCharacter.monomial((1,)))
    assert chi == FormalCharacter({(1,): 1, (-1,): 1})
    # m = -1 annihilates
    assert demazure_operator(A1, 1, FormalCharacter.monomial((-1,))) == FormalCharacter()
    # m = -2 flips sign: D e^mu = -e^(mu + alpha)
    assert demazure_operator(A1, 1, FormalCharacter.monomial((-2,))) == \
        FormalCharacter({(0,): -1})


def test_demazure_operator_idempotent_on_monomials():
    # exhaustive over pairings |m| <= 6, each supported rank-2 type and index
    for name in ("A2", "B2", "G2"):
        datum = cartan_datum(name)
        for i in datum.indices():
            for m in range(-6, 7):
                mu = [0] * datum.rank
                mu[i - 1] = m
                chi = FormalCharacter.monomial(tuple(mu))
                once = demazure_operator(datum, i, chi)
                assert demazure_operator(datum, i, once) == once, (name, i, m)


def test_demazure_operator_idempotent_random():
    from qcrystal.root_data import supported_types

    rng = random.Random(7)
    for name in supported_types():
        datum = cartan_datum(name)
        for _ in range(500):
            chi = FormalCharacter(
                {tuple(rng.randint(-4, 4) for _ in range(datum.rank)):
                 rng.randint(-3, 3)
                 for _ in range(rng.randint(0, 4))})
            i = rng.randint(1, datum.rank)
            once = demazure_operator(datum, i, chi)
            assert demazure_operator(datum, i, once) == once


def test_demazure_operator_linearity():
    a = FormalCharacter({(2, -1): 3})
    b = FormalCharacter({(0, 1): -2, (2, -1): 1})
    lhs = demazure_operator(A2, 1, a + b)
    rhs = demazure_operator(A2, 1, a) + demazure_operator(A2, 1, b)
    assert lhs == rhs


def test_verify_demazure_character_examples(graph_of):
    graph = graph_of("A2", (1, 1))
    ok, _ = verify_demazure_character(graph, (1, 1), ())
    assert ok
    chain = graph_of("A1", (2,))
    ok, _ = verify_demazure_character(chain, (2,), (1,))
    assert ok
    both = apply_demazure_word(A1, (1,), FormalCharacter.monomial((2,)))
    assert both == FormalCharacter({(2,): 1, (0,): 1, (-2,): 1})


def test_demazure_character_all_words(graph_of):
    for name in ("A2", "B2"):
        graph = graph_of(name, (1, 1))
        datum = graph.datum
        for w in weyl_group(datum):
            for u in all_reduced_words(datum, w):
                ok, witness = verify_demazure_character(graph, (1, 1), u)
                assert ok, (name, u)


def test_demazure_character_mismatch_reports_both_sides(graph_of):
    graph = graph_of("A2", (1, 1))
    ok, pair = verify_demazure_character(graph, (1, 1), (1,))
    assert ok and pair is None
    # non-reduced words are rejected before any character is computed
    with pytest.raises(ValueError):
        verify_demazure_character(graph, (1, 1), (2, 2))


def test_weyl_character_examples():
    assert weyl_character(A2, (0, 0)) == FormalCharacter.monomial((0, 0))
    chi = weyl_character(A2, (1, 0))
    assert chi.total() == 3 and set(chi.support()) == {(1, 0), (-1, 1), (0, -1)}
    assert all(m == 1 for _, m in chi.items())
    seven = weyl_character(G2, (1, 0))
    assert seven.total() == 7 == weyl_dimension(G2, (1, 0))
    fourteen = weyl_character(G2, (0, 1))
    assert fourteen.total() == 14
    assert fourteen.multiplicity((0, 0)) == 2  # adjoint: rank many zero weights


def test_weyl_character_matches_crystal(graph_of):
    for name, lam in [("A1", (4,)), ("A2", (1, 1)), ("A2", (2, 1)),
                      ("B2", (1, 1)), ("A3", (1, 0, 1)), ("G2", (1, 0))]:
        graph = graph_of(name, lam)
        assert char_of(graph.all_ids(), graph) == weyl_character(graph.datum, lam)


def test_weyl_dimension_examples():
    for datum in (A1, A2, G2):
        assert weyl_dimension(datum, (0,) * datum.rank) == 1
    for n in range(8):
        assert weyl_dimension(A1, (n,)) == n + 1
    assert weyl_dimension(A2, (1, 1)) == 8
    assert weyl_dimension(cartan_datum("B2"), (1, 1)) == 16
    assert weyl_dimension(cartan_datum("A3"), (1, 0, 1)) == 15
    with pytest.raises(ValueError):
        weyl_dimension(A2, (-1, 0))


def test_weight_oracles_reject_wrong_length():
    # a longer weight must not lose a coordinate, nor a shorter one index past its end
    for fn in (weyl_dimension, weyl_character, generate_crystal):
        for lam in ((1, 1, 5), (1,)):
            with pytest.raises(ValueError,
                               match=f"weight length {len(lam)} does not match rank 2"):
                fn(A2, lam)


def test_demazure_entry_points_reject_wrong_length():
    # neither drop a coordinate of a longer weight nor index past a shorter one
    entry_points = (lambda lam: apply_demazure_word(A2, (1, 2, 1), FormalCharacter.monomial(lam)),
                    lambda lam: extremal_weights(A2, lam, (1, 2, 1)))
    for fn in entry_points:
        for lam in ((1, 1, 5), (1,)):
            with pytest.raises(ValueError,
                               match=f"weight length {len(lam)} does not match rank 2"):
                fn(lam)


def _key_objects(characters):
    """weight -> the set of ids of the tuple objects that key it in the characters."""
    objects = {}
    for chi in characters:
        for w in chi._terms:
            objects.setdefault(w, set()).add(id(w))
    return objects


def test_character_walk_keeps_one_tuple_per_weight(graph_of):
    # every D_w(e^lambda) of the walk keys a weight by the same tuple object
    chars = by_word(graph_of("D4", (1, 1, 1, 1)))[1]
    assert len(chars) == 192
    objects = _key_objects(chars.values())
    assert len(objects) == 601
    assert all(len(ids) == 1 for ids in objects.values())


def test_verify_character_walk_keeps_one_tuple_per_weight(monkeypatch):
    made = []

    def keep(*args):
        made.append(demazure_operator(*args))
        return made[-1]

    monkeypatch.setattr(cli, "demazure_operator", keep)
    rows, ok = cli.run_verify(cli.parse_args(["verify", "--type", "B3", "--weight", "1,1,1"]))
    assert ok and len(made) == 47
    assert all(len(ids) == 1 for ids in _key_objects(made).values())


def test_character_total_equals_dimension():
    for name, lam in [("A2", (2, 1)), ("B2", (1, 1)), ("B3", (1, 0, 0)),
                      ("C3", (0, 0, 1)), ("D4", (0, 1, 0, 0)), ("G2", (0, 1))]:
        datum = cartan_datum(name)
        assert weyl_character(datum, lam).total() == weyl_dimension(datum, lam)


def test_weyl_character_is_weyl_invariant_but_demazure_is_not(graph_of):
    graph = graph_of("A2", (1, 1))
    full = char_of(graph.all_ids(), graph)
    for i in (1, 2):
        reflected = FormalCharacter(
            (reflect(A2, i, w), m) for w, m in full.items())
        assert reflected == full
    partial = char_of(demazure_crystal(graph, (1,)).members, graph)
    reflected = FormalCharacter((reflect(A2, 2, w), m) for w, m in partial.items())
    assert reflected != partial


def test_w0_demazure_character_is_weyl_character(graph_of):
    for name, lam in [("A2", (1, 1)), ("B2", (1, 0))]:
        datum = cartan_datum(name)
        chi = apply_demazure_word(datum, longest_word(datum),
                                  FormalCharacter.monomial(lam))
        assert chi == weyl_character(datum, lam)


def test_simple_root_shift_in_operator():
    # D_i on e^mu with m = 2 sums three monomials along -alpha_i
    mu = (2, 0)
    alpha = simple_root(A2, 1)
    out = demazure_operator(A2, 1, FormalCharacter.monomial(mu))
    expected = FormalCharacter(
        {mu: 1,
         tuple(a - b for a, b in zip(mu, alpha)): 1,
         tuple(a - 2 * b for a, b in zip(mu, alpha)): 1})
    assert out == expected

"""The memoised D_i and the gathered subset reads, against their references.

``demazure_operator`` caches each expansion D_i(e^mu) in the walk's memo,
and ``apply_demazure_word`` keeps one memo through its letters; both are
diffed with ``algebra_reference.demazure_operator``, which expands every
term afresh.  ``_string_rule`` and ``char_of`` read a subset's child,
parent and weight entries through one ``demazure._gather``; the string rule
is diffed with ``string_reference`` on valid, corrupted and randomly cut
subsets, witnesses included.
"""

import random

import pytest

import algebra_reference as ref
from qcrystal import cli
from qcrystal.character import (FormalCharacter, apply_demazure_word, char_of,
                                demazure_operator)
from qcrystal.demazure import DemazureCrystal, _gather, _string_rule, _subset_levels
from qcrystal.root_data import (_coset_words, _Orbit, _orbit_walk, cartan_datum,
                                longest_word, rho, supported_types)
from string_reference import filtration_structure, string_property


def _fundamentals(name):
    rank = cartan_datum(name).rank
    return [tuple(int(j == k) for j in range(rank)) for k in range(rank)]


CASES = [(name, lam) for name in supported_types()
         for lam in (rho(cartan_datum(name)), *_fundamentals(name))]


def _reference_word(datum, word, chi):
    for i in reversed(word):
        chi = ref.demazure_operator(datum, i, chi)
    return chi


@pytest.mark.parametrize("name,lam", CASES)
def test_memoised_walk_matches_the_reference_operator(name, lam):
    datum = cartan_datum(name)
    orbit = _Orbit(datum, lam)
    words, order = _coset_words(orbit)
    top, shared = FormalCharacter.monomial(lam), {lam: lam}
    fast = _orbit_walk(orbit, words, order, top,
                       lambda i, chi: demazure_operator(datum, i, chi, shared))
    slow = _orbit_walk(orbit, words, order, top,
                       lambda i, chi: ref.demazure_operator(datum, i, chi))
    for (o, w, chi, _), (_, _, expected, _) in zip(fast, slow):
        assert chi == expected, w
    assert set(shared) >= set(datum.indices())  # the memo is the shared dict
    # one memo through every letter, also on signed terms: w0 on e^lambda and e^(-lambda)
    w0 = longest_word(datum)
    for mu in (lam, tuple(-x for x in lam)):
        monomial = FormalCharacter.monomial(mu)
        assert apply_demazure_word(datum, w0, monomial) == _reference_word(datum, w0, monomial)
    for o in order[:len(datum.indices()) + 1]:  # lambda and the points one step below it
        assert apply_demazure_word(datum, words[o], top) == _reference_word(datum, words[o], top)


def test_memo_expansions_are_reused():
    # a second call on the same memo builds no weight tuple: every key comes from the memo
    datum = cartan_datum("A2")
    chi = FormalCharacter({(2, 1): 3, (-3, 2): -1, (-1, 0): 5})
    shared = {}
    once = demazure_operator(datum, 1, chi, shared)
    again = demazure_operator(datum, 1, chi, shared)
    assert once == again == ref.demazure_operator(datum, 1, chi)
    assert set(shared[1]) == {(2, 1), (-3, 2), (-1, 0)} and shared[1][(-1, 0)] == (-1, ())
    assert all(shared[w] is w for w in again._terms)
    assert [id(w) for w in again._terms] == [id(w) for w in once._terms]


def _cut(members, rng):
    """members with 1 to 3 random ids removed, down to one member at least."""
    drop = rng.sample(sorted(members), min(len(members) - 1, rng.randint(1, 3)))
    return members.difference(drop)


@pytest.mark.parametrize("name,lam", [
    ("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 1)), ("A3", (1, 1, 1)), ("C3", (1, 1, 1)),
    ("B3", (0, 0, 1)), ("A4", (0, 1, 0, 0)), ("D4", (0, 1, 0, 0))])
def test_gathered_string_rule_matches_the_intersection_loops(name, lam, graph_of):
    graph = graph_of(name, lam)
    rng = random.Random(f"{name}{lam}")
    subsets, failures = [], 0
    for _, _, members, _, _ in _subset_levels(graph, *_coset_words(graph.orbit)):
        subsets.append(members)
        subsets.append(_cut(members, rng) if len(members) > 1 else members)
    subsets.append(cli._corrupt(graph, frozenset(graph.all_ids())))
    subsets.append(frozenset({rng.randrange(len(graph))}))  # one member: a scalar gather
    for members in subsets:
        dc = DemazureCrystal(graph, (), members)
        gather = _gather(members)
        for i in graph.indices():
            expected = string_property(dc, i), filtration_structure(dc, i)
            got = _string_rule(graph, members, i, gather)
            assert repr(got) == repr(expected), (sorted(members), i)
            failures += not got[0][0]
    assert failures > 0  # the cut subsets break strings


def test_gather_reads_a_tuple_for_any_number_of_members():
    column = list(range(10, 20))
    assert _gather(frozenset())(column) == ()
    assert _gather(frozenset({3}))(column) == (13,)
    assert sorted(_gather(frozenset({3, 7, 0}))(column)) == [10, 13, 17]


def test_char_of_rejects_ids_out_of_range(graph_of):
    graph = graph_of("A2", (1, 1))
    for bad in (-1, len(graph)):
        for members in ({0, bad}, {bad}):
            with pytest.raises(IndexError, match=f"element id {bad} out of range 0..7"):
                char_of(members, graph)
            with pytest.raises(IndexError, match=f"element id {bad} out of range"):
                char_of(members, graph, _gather(members))
    assert char_of(set(), graph) == FormalCharacter()
    assert char_of({7}, graph) == FormalCharacter.monomial(graph.weight_of[7])
    assert char_of(graph.all_ids(), graph).total() == len(graph)

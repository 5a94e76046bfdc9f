"""The Demazure walk over the orbit W.lambda, against the walk over all of W.

``weyl_walk_reference`` keeps the walk that visited every w in W and its
``run_verify``.  The orbit walk visits one point per w(lambda); each w of
the reference must get the subset and character of its point, the dicts
keyed by all of W must agree, and ``verify`` must give the same rows on
valid input, with and without ``--inject-failure``.  On tampered singular
crystals, where the witnesses may name other words, the verdict and the
exit code must agree.
"""

import itertools
import json
import re

import pytest

import weyl_walk_reference as ref
from conftest import by_word, tampered
from qcrystal import cli, root_data
from qcrystal.character import FormalCharacter, demazure_operator
from qcrystal.demazure import _subset_levels
from qcrystal.root_data import (_coset_words, _orbit_walk, apply_word, cartan_datum,
                                rho, supported_types, weyl_group)
from test_dict_graph_reference import _outcome


def _fundamentals(name):
    rank = cartan_datum(name).rank
    return [tuple(int(j == k) for j in range(rank)) for k in range(rank)]


CASES = [(name, lam) for name in supported_types()
         for lam in (rho(cartan_datum(name)), *_fundamentals(name))]
CASES += [("A4", (0, 1, 1, 0)), ("C3", (0, 2, 1)), ("B3", (0, 0, 3))]  # D4 (0,1,0,0) is omega_2
SINGULAR = [("A2", (2, 0)), ("A3", (0, 1, 0)), ("A3", (1, 0, 1)), ("B2", (1, 0)),
            ("B2", (0, 2)), ("G2", (1, 0)), ("G2", (0, 1)), ("C3", (0, 1, 0)),
            ("B3", (0, 0, 1))]


def _argv(name, lam, inject=False):
    argv = ["verify", "--type", name, "--weight", ",".join(map(str, lam))]
    return argv + ["--inject-failure"] * inject


def _job(name, lam, inject=False):
    return cli.parse_args(_argv(name, lam, inject))


def _character_walk(datum, orbit, words, order):
    """The orbit walk with ``demazure_operator`` as its step, as ``verify`` runs it."""
    return _orbit_walk(orbit, words, order, FormalCharacter.monomial(orbit.points[0]),
                       lambda i, chi: demazure_operator(datum, i, chi))


def _same_graph(monkeypatch, graph):
    for module in (cli, ref):
        monkeypatch.setattr(module, "generate_crystal", lambda *a, **k: graph)


@pytest.mark.parametrize("name,lam", CASES)
def test_each_word_gets_the_subset_and_character_of_its_point(name, lam, graph_of):
    graph = graph_of(name, lam)
    datum, orbit = graph.datum, graph.orbit
    coset = _coset_words(orbit)
    walk = list(_subset_levels(graph, *coset))
    char_walk = list(_character_walk(datum, orbit, *coset))
    assert [o for o, *_ in walk] == [o for o, *_ in char_walk]
    assert sorted(o for o, *_ in walk) == list(range(len(orbit.points)))
    assert all(disagreement is None for *_, disagreement, _ in walk)
    subsets = {o: members for o, _, members, _, _ in walk}
    chars = {o: chi for o, _, chi, _ in char_walk}
    expected_subsets = {w: members for w, members, _, _ in ref._subset_levels(graph)}
    expected_chars = dict(ref._character_levels(datum, lam))
    assert tuple(expected_subsets) == tuple(expected_chars) == weyl_group(datum)
    for w, members in expected_subsets.items():
        o = orbit.index[apply_word(datum, w, lam)]
        assert subsets[o] == members and chars[o] == expected_chars[w], w
    found, found_chars, witness = by_word(graph)
    assert witness is None
    assert {w: dc.members for w, dc in found.items()} == expected_subsets
    assert all(dc.word == w and dc.graph is graph for w, dc in found.items())
    assert found_chars == expected_chars


def test_walk_visits_the_orbit_not_the_group(graph_of, monkeypatch):
    # D4 (0,1,0,0), the adjoint crystal: 24 points of W.lambda against |W| = 192
    graph = graph_of("D4", (0, 1, 0, 0))
    assert len(list(ref._subset_levels(graph))) == 192
    for name in ("weyl_group", "left_descents"):
        monkeypatch.setattr(root_data, name, None)  # the walks must not call them
    coset = _coset_words(graph.orbit)
    assert len(list(_subset_levels(graph, *coset))) == len(graph.orbit.points) == 24
    assert len(list(_character_walk(graph.datum, graph.orbit, *coset))) == 24


@pytest.mark.parametrize("name,lam", CASES + SINGULAR)
def test_orbit_walk_visits_each_point_once_with_the_level_below(name, lam, graph_of):
    orbit = graph_of(name, lam).orbit
    words, order = _coset_words(orbit)
    steps = []
    walk = _orbit_walk(orbit, words, order, (), lambda i, v: v + (i,))
    for o, w, value, below in walk:
        assert w == words[o] == value[::-1]  # each step grows the value of w[1:]
        assert set(below) == {p for p in order if len(words[p]) == len(w) - 1}
        steps.append(o)
    assert steps == order and sorted(steps) == list(range(len(orbit.points)))


def test_verify_computes_the_coset_words_once(graph_of, monkeypatch):
    graph = graph_of("A3", (0, 1, 0))
    _same_graph(monkeypatch, graph)
    calls = []

    def counted(orbit):
        calls.append(orbit)
        return _coset_words(orbit)

    for module in (cli, root_data):
        monkeypatch.setattr(module, "_coset_words", counted)
    rows, ok = cli.run_verify(_job("A3", (0, 1, 0)))
    assert ok and len(calls) == 1 and calls[0] is graph.orbit


@pytest.mark.parametrize("inject", [False, True])
@pytest.mark.parametrize("name,lam", CASES)
def test_verify_rows_match_the_weyl_walk(name, lam, inject, graph_of, monkeypatch):
    _same_graph(monkeypatch, graph_of(name, lam))
    job = _job(name, lam, inject)
    rows, ok = _outcome(cli.run_verify, job)
    assert (rows, ok) == _outcome(ref.run_verify, job)
    assert ok is not inject


def _swap(graph, i, b, c):
    edges = graph.edges
    edges[b, i], edges[c, i] = edges[c, i], edges[b, i]
    return tampered(graph, edges)


def test_fixed_point_comparison_catches_a_swap(graph_of, monkeypatch):
    # A2 (2,0): 1 -> 2 and 3 -> 4 become 1 -> 4 and 3 -> 2.  The points
    # s_1 lambda and s_2 s_1 lambda each have one left descent, so only the
    # f_1 closure at s_2 s_1 lambda, which s_1 fixes, stands in for the
    # comparison the walk over W makes at s_1 s_2 s_1.
    bad = _swap(graph_of("A2", (2, 0)), 1, 1, 3)
    assert bad.orbit.points[2] == (0, -2) and bad.orbit.refl[0][2] == 2
    _same_graph(monkeypatch, bad)
    rows, ok = _outcome(cli.run_verify, _job("A2", (2, 0)))
    expected, expected_ok = _outcome(ref.run_verify, _job("A2", (2, 0)))
    assert (ok, expected_ok) == (False, False)
    assert rows[3] == ("reduced-word-independence", False,
                       "((2, 1), ('left descents disagree', 2, 1, 2))")
    assert expected[3] == ("reduced-word-independence", False,
                           "((1, 2, 1), ('left descents disagree', 1, 2, 2))")
    assert rows[:3] + rows[4:] == expected[:3] + expected[4:]


def _edge_swaps(graph):
    """Every tamper that swaps the i-children of two elements, for each i."""
    edges = graph.edges
    for i in graph.indices():
        have = sorted(b for b, j in edges if j == i)
        for b, c in itertools.combinations(have, 2):
            yield (i, b, c), _swap(graph, i, b, c)


@pytest.mark.parametrize("name,lam", SINGULAR)
def test_verdicts_match_on_every_edge_swap(name, lam, graph_of, monkeypatch, capsys):
    # the witnesses may name other words, but the exit code and the
    # reduced-word-independence verdict are the reference's on every swap
    argv = _argv(name, lam) + ["--format", "json"]
    swaps = 0
    for key, bad in _edge_swaps(graph_of(name, lam)):
        swaps += 1
        _same_graph(monkeypatch, bad)
        rows, ok = _outcome(ref.run_verify, cli.parse_args(argv))
        if not isinstance(ok, bool):  # the i-edges are not a partition into strings:
            # the reference raises, and verify fails the two string rows with its message
            assert cli.main(argv) == cli.EXIT_VERIFY_FAILED, key
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert [(c["ok"], c["witness"]) for c in checks[1:3]] == [(False, ok)] * 2, key
            continue
        assert cli.main(argv) == (cli.EXIT_OK if ok else cli.EXIT_VERIFY_FAILED), key
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert (checks[3]["name"], checks[3]["ok"]) == rows[3][:2], key
    assert swaps > 0

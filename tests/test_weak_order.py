"""The weak-order dynamic program behind ``verify``, against per-word references.

The orbit walks of ``verify`` build every B_w(lambda) and every
D_w(e^lambda) in one pass over W.lambda (read by word through
``conftest.by_word``); ``demazure._string_rule`` reads the subset's strings
off the crystal's child and parent columns.  Each is compared here with the
single-word, every-reduced-word or intersection-loop form it replaced in
``run_verify``.
"""

import json
import logging

import pytest

import qcrystal.demazure as demazure_module
from conftest import by_word, string_rule, tampered
from qcrystal import cli
from qcrystal.character import FormalCharacter, apply_demazure_word
from qcrystal.demazure import _partition_error, demazure_crystal
from qcrystal.root_data import weyl_group, weyl_order
from string_reference import filtration_structure, i_strings, string_property
from weyl_reference import all_reduced_words

ACCEPTANCE = [("A1", (4,)), ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 1)),
              ("B2", (1, 0)), ("B2", (1, 1)), ("A3", (1, 0, 1)), ("G2", (1, 0))]
SMALL_W = ACCEPTANCE + [("B3", (1, 0, 0)), ("C3", (0, 1, 0)), ("G2", (1, 1))]


def _tampered_a2(graph_of):
    # the 1-strings 0 -> 1 and 2 -> 3 -> 5 become 0 -> 3 -> 5 and 2 -> 1:
    # still a partition into strings, but B_{w0} now depends on the word
    graph = graph_of("A2", (1, 1))
    edges = graph.edges
    edges[0, 1], edges[2, 1] = edges[2, 1], edges[0, 1]
    return tampered(graph, edges)


@pytest.mark.parametrize("name,lam", ACCEPTANCE + [("D4", (1, 1, 1, 1))])
def test_subsets_and_characters_match_single_words(name, lam, graph_of):
    graph = graph_of(name, lam)
    datum = graph.datum
    subsets, chars, witness = by_word(graph)
    group = weyl_group(datum)
    assert witness is None
    assert tuple(subsets) == group and tuple(chars) == group
    top = FormalCharacter.monomial(lam)
    for w in group:
        assert subsets[w] == demazure_crystal(graph, w)
        assert chars[w] == apply_demazure_word(datum, w, top)


def _word_dependent(graph):
    """The w in W whose reduced words do not all cut the same subset."""
    return [w for w in weyl_group(graph.datum)
            if len({demazure_crystal(graph, u)
                    for u in all_reduced_words(graph.datum, w)}) > 1]


@pytest.mark.parametrize("name,lam", SMALL_W)
def test_independence_verdict_matches_all_reduced_words(name, lam, graph_of):
    graph = graph_of(name, lam)
    assert weyl_order(graph.datum) <= 48
    witness = by_word(graph)[2]
    assert witness is None and _word_dependent(graph) == []


def test_independence_verdict_on_tampered_graph(graph_of):
    graph = _tampered_a2(graph_of)
    witness = by_word(graph)[2]
    per_word = _word_dependent(graph)
    assert per_word == [(1, 2, 1)]
    assert witness == ((1, 2, 1), ("left descents disagree", 1, 2, 4))
    left = demazure_crystal(graph, (1, 2, 1))
    right = demazure_crystal(graph, (2, 1, 2))
    assert min(left ^ right) == 4


def _variants(graph, members):
    """members, corrupted as ``--inject-failure`` does, one member dropped, one added."""
    yield members
    try:
        yield cli._corrupt(graph, members)
    except RuntimeError:
        pass
    ids = sorted(members)
    outside = sorted(set(graph.all_ids()) - members)
    if len(ids) > 1:
        yield members - {ids[len(ids) // 2]}
    if outside:
        yield members | {outside[-1]}


@pytest.mark.parametrize("name,lam", ACCEPTANCE + [("C3", (1, 0, 1)), ("A3", (1, 1, 1)),
                                                  ("D4", (0, 1, 0, 0))])
def test_string_checks_match_intersection_loops(name, lam, graph_of):
    graph = graph_of(name, lam)
    failures = 0
    for w in weyl_group(graph.datum):
        for members in _variants(graph, demazure_crystal(graph, w)):
            for i in graph.indices():
                expected = (string_property(graph, members, i),
                            filtration_structure(graph, members, i))
                assert string_rule(graph, members, i) == expected, (w, i)
                failures += not expected[0][0]
    # the corrupted variants do exercise the failure witnesses
    assert failures > 0 or len(graph) == 1


def test_verify_builds_each_string_partition_once(monkeypatch, capsys):
    calls = []

    def counted(graph, i):
        calls.append(i)
        return _partition_error(graph, i)

    monkeypatch.setattr(demazure_module, "_partition_error", counted)
    assert cli.main(["verify", "--type", "D4", "--weight", "1,0,0,0"]) == cli.EXIT_OK
    assert sorted(calls) == [1, 2, 3, 4]


def test_verify_logs_no_sampling_warnings(caplog, capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_LOG", "info")  # main sets the qcrystal level from it
    assert cli.main(["verify", "--type", "D4", "--weight", "1,0,0,0"]) == cli.EXIT_OK
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert "result: PASS" in capsys.readouterr().out


def test_negative_control_descents_disagree(graph_of, monkeypatch, capsys):
    graph = _tampered_a2(graph_of)
    monkeypatch.setattr(cli, "generate_crystal", lambda *args, **kwargs: graph)
    code = cli.main(["verify", "--type", "A2", "--weight", "1,1", "--format", "json"])
    assert code == cli.EXIT_VERIFY_FAILED
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    row = checks["reduced-word-independence"]
    assert row["ok"] is False
    assert row["witness"] == "((1, 2, 1), ('left descents disagree', 1, 2, 4))"


def test_i_strings_rejects_tampered_edges(graph_of):
    graph = graph_of("A2", (1, 1))
    # 2 -> 3 -> 5 is a 1-string; cut it, or send 0 into its middle
    cut = graph.edges
    del cut[(3, 1)]
    merged = graph.edges | {(0, 1): 3}
    for edges, covered in ((cut, 7), (merged, 9)):
        bad = tampered(graph, edges)
        assert _partition_error(bad, 1) == (f"the 1-strings cover {covered} element slots "
                                            "of 8: the 1-edges do not form a normal crystal")
        assert _partition_error(bad, 2) is None
        assert i_strings(bad, 2) == i_strings(graph, 2)
    assert [_partition_error(graph, i) for i in graph.indices()] == [None, None]


def test_i_strings_rejects_overlapping_strings(graph_of):
    # 0 -> 3 -> 5 shares 3 and 5 with 2 -> 3 -> 5; dropping 6 -> 1 keeps the
    # lengths adding up to 8, so only the overlap shows that 1 and 7 are lost
    graph = graph_of("A2", (1, 1))
    edges = graph.edges | {(0, 1): 3}
    del edges[(6, 1)]
    assert _partition_error(tampered(graph, edges), 1) == (
        "element 3 lies in two 1-strings: the 1-edges do not form a normal crystal")
    assert _partition_error(tampered(graph, edges), 2) is None


@pytest.mark.parametrize("name, lam, weight, phi", [
    ("A2", (1, 1), (1, 1), (2, 1)), ("A2", (1, 1), (0, 1), (0, 1)), ("A1", (2,), (2,), (3,))])
def test_string_checks_match_intersection_loops_on_a_lone_top(name, lam, weight, phi, graph_of):
    # element 0 keeps its 1-string, but a subset that meets that string in
    # {0} alone no longer has a dominant top: its 1-weight is not
    # l = eps_1 + phi_1, or l = 0.  On A1 (2) the subset {0, 2} also meets
    # the string 0 -> 1 -> 2 at a top that is not dominant and breaks it.
    graph = graph_of(name, lam)
    lone_top = tampered(graph, weight={0: weight}, phi={0: phi})
    rules = set()
    for w in weyl_group(lone_top.datum):
        for members in _variants(lone_top, demazure_crystal(lone_top, w)):
            for i in lone_top.indices():
                expected = (string_property(lone_top, members, i),
                            filtration_structure(lone_top, members, i))
                assert string_rule(lone_top, members, i) == expected, (w, i)
                layered, witness = expected[1]
                if not layered:
                    rules.add(witness[0])
    assert rules == {"bad singleton layer", "layer is a partial string"}

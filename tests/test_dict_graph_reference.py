"""The columnar crystal graph and the two-level verify pass, against the dict-keyed reference.

``dict_graph_reference`` keeps the graph as it was stored before it became
columns (a ``CrystalElement`` per element and (b, i)-keyed edge and parent
dicts) and the ``run_verify`` that held every Demazure subset and character
at once.  Generated crystals, hand-tampered graphs and the ``verify`` rows
are diffed against it, and ``demazure._partition_error``, which guards the
string rule, must refuse the tampers that the reference's ``i_strings``
rejects, with its message.
"""

import pytest

import dict_graph_reference as ref
from conftest import tampered
from fraction_kernel import grid_steps
from qcrystal import cli
from qcrystal.crystal import verify_normal
from qcrystal.demazure import _partition_error
from test_integer_kernel import INT_STEP_CASES
from test_weak_order import ACCEPTANCE


def _assert_same_graph(graph, expected):
    """Ids, edges both ways, weight/eps/phi and paths, element by element."""
    assert len(graph) == len(expected)
    assert graph.edges == expected.edges
    assert list(graph.edges) == sorted(expected.edges)
    for b, el in enumerate(expected.elements):
        row = graph.runs[b], graph.weight_of[b], graph.eps_of[b], graph.phi_of[b]
        assert row == (el.runs, el.weight, el.eps, el.phi), b
        assert grid_steps(graph.orbit, graph.runs[b]) == el.steps, b
        for i, down, up in zip(graph.indices(), graph.children, graph.parents):
            # the reference's f and e give None where a column holds -1
            moves = [None if c < 0 else c for c in (down[b], up[b])]
            assert moves == [expected.f(b, i), expected.e(b, i)], (b, i)
            string = graph.eps_of[b][i - 1], graph.phi_of[b][i - 1]
            assert string == (expected.eps(b, i), expected.phi(b, i)), (b, i)


@pytest.mark.parametrize("name,lam", INT_STEP_CASES)
def test_columns_match_dict_graph(name, lam, graph_of):
    graph = graph_of(name, lam)
    expected = ref.generate_crystal(graph.datum, lam)
    assert graph.denominator == expected.denominator
    _assert_same_graph(graph, expected)


def _tampered_edges(graph):
    """The edge tampers of ``test_weak_order`` and ``test_demazure`` on A2 (1,1)."""
    edges = graph.edges
    swapped = dict(edges)
    swapped[0, 1], swapped[2, 1] = swapped[2, 1], swapped[0, 1]
    cut = dict(edges)
    del cut[3, 1]
    merged = edges | {(0, 1): 3}
    overlapping = merged.copy()
    del overlapping[6, 1]
    cyclic = edges | {(5, 1): 3}
    return {"swapped": swapped, "cut": cut, "merged": merged,
            "overlapping": overlapping, "cyclic": cyclic}


def _outcome(run, job):
    """run(job)'s rows with witnesses as text, or the exception it raised."""
    try:
        rows, ok = run(job)
    except RuntimeError as exc:
        return type(exc).__name__, str(exc)
    return [(name, good, None if wit is None else str(wit)) for name, good, wit in rows], ok


def _job(name, lam, inject=False):
    argv = ["verify", "--type", name, "--weight", ",".join(map(str, lam))]
    return cli.parse_args(argv + ["--inject-failure"] * inject)


@pytest.mark.parametrize("tamper", ["swapped", "cut", "merged", "overlapping", "cyclic"])
def test_tampered_graphs_match_dict_graph(tamper, graph_of, monkeypatch):
    graph = graph_of("A2", (1, 1))
    edges = _tampered_edges(graph)[tamper]
    columns = tampered(graph, edges)
    expected = ref.CrystalGraph(graph.datum, graph.highest_weight, ref.records(graph),
                                edges, graph.denominator)
    _assert_same_graph(columns, expected)
    assert verify_normal(columns) == ref.verify_normal(expected)
    monkeypatch.setattr(cli, "generate_crystal", lambda *a, **k: columns)
    monkeypatch.setattr(ref, "generate_crystal", lambda *a, **k: expected)
    job = _job("A2", (1, 1))
    assert _outcome(cli.run_verify, job) == _outcome(ref.run_verify, job)


@pytest.mark.parametrize("inject", [False, True])
@pytest.mark.parametrize("name,lam", ACCEPTANCE + [("D4", (1, 1, 1, 1))])
def test_verify_rows_match_all_levels_pass(name, lam, inject):
    job = _job(name, lam, inject)
    rows, ok = _outcome(cli.run_verify, job)
    assert (rows, ok) == _outcome(ref.run_verify, job)
    assert ok is not inject


@pytest.mark.parametrize("tamper", ["cut", "overlapping"])
def test_string_checks_raise_as_i_strings_does(tamper, graph_of):
    # the string rule reads strings off the columns, so it must not judge
    # i-edges that the reference's ``i_strings`` rejects as a partition:
    # ``_partition_error`` refuses them with the reference's message
    graph = graph_of("A2", (1, 1))
    edges = _tampered_edges(graph)[tamper]
    bad = ref.CrystalGraph(graph.datum, graph.highest_weight, ref.records(graph),
                           edges, graph.denominator)
    with pytest.raises(RuntimeError) as expected:
        ref.i_strings(bad, 1)
    columns = tampered(graph, edges)
    assert _partition_error(columns, 1) == str(expected.value)
    assert _partition_error(columns, 2) is None

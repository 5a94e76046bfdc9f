"""The columnar crystal graph: edges, parent rule, index checks, shared tables, verify log."""

import re

import pytest

from conftest import by_word, tampered
from qcrystal import cli
from qcrystal.demazure import _partition_error


def test_edge_view_is_a_read_only_mapping(graph_of):
    graph = graph_of("B2", (1, 1))
    edges = graph.edges
    assert len(edges) == sum(child >= 0 for column in graph.children for child in column)
    assert list(edges) == sorted(edges)
    for key in [(0, 0), (0, 3), (-1, 1), (len(graph), 1), (0,), "01", None]:
        assert key not in edges and edges.get(key) is None, key
    # each access builds a fresh dict: changing one leaves the graph as it was
    edges[0, 1] = 2
    del edges[0, 2]
    assert graph.edges != edges and len(graph.edges) == len(edges) + 1
    assert (graph.children[0][0], graph.children[1][0], graph.parents[0][2]) == (1, 2, -1)


def test_element_view_and_shared_string_data(graph_of):
    graph = graph_of("G2", (2, 2))
    for column in (graph.runs, graph.weight_of, graph.eps_of, graph.phi_of):
        assert len(column) == len(graph)
    # equal weight, eps and phi tuples are one object
    for column in (graph.weight_of, graph.eps_of, graph.phi_of):
        assert len({id(t) for t in column}) == len(set(column))


def test_the_larger_source_names_the_parent_of_a_shared_child(graph_of):
    # the "merged" tamper: both 0 and 2 have a 1-edge to 3
    graph = graph_of("A2", (1, 1))
    merged = tampered(graph, graph.edges | {(0, 1): 3})
    assert merged.parents[0][3] == 2
    assert merged.parents[0][1] == -1


@pytest.mark.parametrize("i", [0, 3])
def test_string_data_rejects_an_index_out_of_range(i, graph_of):
    # eps_of[b][i - 1] alone would read the last index at i = 0
    graph = graph_of("A2", (1, 1))
    message = re.escape(f"simple-root index {i} out of range 1..2")
    with pytest.raises(IndexError, match=message):
        _partition_error(graph, i)


def _two_level_peak(graph):
    """Largest member count of two adjacent length levels, from the all-subsets dict."""
    sizes = {}
    for w, members in by_word(graph)[0].items():
        sizes[len(w)] = sizes.get(len(w), 0) + len(members)
    return max(sizes[n] + sizes.get(n - 1, 0) for n in sizes)


def test_verify_logs_one_line_per_phase(caplog, capsys, graph_of, monkeypatch):
    argv = ["verify", "--type", "B2", "--weight", "1,1", "--format", "json"]
    monkeypatch.setenv("CRYSTAL_LOG", "error")
    assert cli.main(argv) == cli.EXIT_OK
    quiet = capsys.readouterr().out
    monkeypatch.setenv("CRYSTAL_LOG", "info")  # main sets the qcrystal level on every call
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == quiet
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("verify phase")]
    pattern = re.compile(r"verify phase ([a-z -]+): \d+\.\d{3} s(.*)")
    phases = [pattern.fullmatch(line).groups() for line in lines]
    assert [name for name, _ in phases] == [
        "generation", "normal-crystal-relations", "orbit walk",
        "weyl-character-agreement", "weyl-dimension-agreement"]
    assert phases[0][1] == ", 16 elements"
    peak = _two_level_peak(graph_of("B2", (1, 1)))
    assert phases[2][1] == f", peak {peak} live member slots"

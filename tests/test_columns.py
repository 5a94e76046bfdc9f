"""The columnar crystal graph: edges, parent rule, index checks, shared tables, verify log."""

import logging
import re

import pytest

from conftest import by_word, tampered
from qcrystal import cli
from qcrystal.demazure import _partition_error


def test_edge_view_is_a_read_only_mapping(graph_of):
    graph = graph_of("B2", (1, 1))
    edges = graph.edges
    assert len(edges) == sum(graph.f(b, i) is not None
                             for b in graph.all_ids() for i in graph.indices())
    assert list(edges) == sorted(edges)
    for key in [(0, 0), (0, 3), (-1, 1), (len(graph), 1), (0,), "01", None]:
        assert key not in edges and edges.get(key) is None, key
    # each access builds a fresh dict: changing one leaves the graph as it was
    edges[0, 1] = 2
    del edges[0, 2]
    assert graph.edges != edges and len(graph.edges) == len(edges) + 1
    assert (graph.f(0, 1), graph.f(0, 2), graph.e(2, 1)) == (1, 2, None)
    assert graph.f(0, 0) is None and graph.e(-1, 1) is None and graph.f(len(graph), 1) is None


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
    assert merged.e(3, 1) == 2
    assert merged.e(1, 1) is None


@pytest.mark.parametrize("i", [0, 3])
def test_string_data_rejects_an_index_out_of_range(i, graph_of):
    # eps_of[b][i - 1] alone would read the last index at i = 0
    graph = graph_of("A2", (1, 1))
    message = re.escape(f"simple-root index {i} out of range 1..2")
    for read in (lambda: graph.eps(0, i), lambda: graph.phi(0, i),
                 lambda: _partition_error(graph, i)):
        with pytest.raises(IndexError, match=message):
            read()
    assert graph.f(0, i) is None and graph.e(5, i) is None


@pytest.mark.parametrize("accessor", ["weight", "eps", "phi"])
@pytest.mark.parametrize("where", ["before", "after"])
def test_element_accessors_reject_an_id_out_of_range(accessor, where, graph_of):
    # weight_of[-1] alone would read the lowest element, where f and e give None
    graph = graph_of("A2", (1, 1))
    b = -1 if where == "before" else len(graph)
    read = getattr(graph, accessor)
    args = (b, 1) if accessor in ("eps", "phi") else (b,)
    with pytest.raises(IndexError, match=re.escape(f"element id {b} out of range 0..7")):
        read(*args)
    assert graph.f(b, 1) is None and graph.e(b, 1) is None


def _two_level_peak(graph):
    """Largest member count of two adjacent length levels, from the all-subsets dict."""
    sizes = {}
    for w, dc in by_word(graph)[0].items():
        sizes[len(w)] = sizes.get(len(w), 0) + len(dc)
    return max(sizes[n] + sizes.get(n - 1, 0) for n in sizes)


def test_verify_logs_one_line_per_phase(caplog, capsys, graph_of):
    argv = ["verify", "--type", "B2", "--weight", "1,1", "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    quiet = capsys.readouterr().out
    with caplog.at_level(logging.INFO, logger="qcrystal"):
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

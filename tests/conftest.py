import functools
from array import array

import pytest

import qcrystal as qc


@functools.lru_cache(maxsize=None)
def _build(name, lam):
    return qc.generate_crystal(qc.cartan_datum(name), lam)


@pytest.fixture(scope="session")
def graph_of():
    """Cached crystal builder shared across the suite: graph_of('A2', (1, 1))."""
    return _build


def tampered(graph, edges=None, cls=qc.CrystalGraph, **rows):
    """A fresh ``cls`` graph built from ``graph``'s columns, with edits.

    ``edges`` replaces the {(b, i): child} edge dict.  ``weight``, ``eps``
    and ``phi`` each map element ids to replacement rows, as in
    ``tampered(graph, eps={3: (2, 0)})``.  ``graph`` itself is unchanged.
    """
    children = [array("i", [-1]) * len(graph) for _ in graph.indices()]
    for (b, i), child in (graph.edges if edges is None else edges).items():
        children[i - 1][b] = child
    columns = {"weight": graph.weight_of, "eps": graph.eps_of, "phi": graph.phi_of}
    for name, edits in rows.items():
        columns[name] = list(columns[name])
        for b, row in edits.items():
            columns[name][b] = row
    return cls(graph.datum, graph.highest_weight, graph.denominator, graph.orbit,
               graph.runs, columns["weight"], columns["eps"], columns["phi"], children)

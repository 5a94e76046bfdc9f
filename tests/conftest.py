import functools
from array import array

import pytest

import qcrystal as qc
import weyl_reference
from qcrystal.character import FormalCharacter, demazure_operator
from qcrystal.demazure import _gather, _partition_error, _string_rule, _subset_levels
from qcrystal.root_data import _coset_words, _orbit_walk, apply_word


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


def string_rule(graph, members, i):
    """(string verdict, filtration verdict) of ``members`` for index i, as ``verify`` reads them.

    ``demazure._string_rule``, once ``_partition_error`` accepts the i-edges
    as a partition into strings.
    """
    assert _partition_error(graph, i) is None
    return _string_rule(graph, members, i, _gather(members))


def by_word(graph):
    """(subsets, characters, witness): every B_w(lambda) and D_w(e^lambda), keyed by w.

    The orbit walks that ``verify`` runs, ``demazure._subset_levels`` and the
    character ``_orbit_walk`` with one ``demazure_operator`` memo, value each
    point of W.lambda once.  Each canonical word w of
    ``weyl_reference.weyl_group`` reads the values at its point w(lambda):
    ``subsets[w]`` is their frozenset of members, ``characters[w]`` their
    character.  ``witness`` is None when the walk's comparisons all agree,
    else the first point's ``(w, disagreement)``.
    """
    datum, lam, orbit = graph.datum, graph.highest_weight, graph.orbit
    coset, shared = _coset_words(orbit), {lam: lam}
    chars = _orbit_walk(orbit, *coset, FormalCharacter.monomial(lam),
                        lambda i, chi: demazure_operator(datum, i, chi, shared))
    points, witness = {}, None
    for (o, w, members, disagreement, _), (_, _, chi, _) in zip(
            _subset_levels(graph, *coset), chars):
        points[o] = members, chi
        if witness is None and disagreement is not None:
            witness = (w, disagreement)
    subsets, characters = {}, {}
    for w in weyl_reference.weyl_group(datum):
        subsets[w], characters[w] = points[orbit.index[apply_word(datum, w, lam)]]
    return subsets, characters, witness

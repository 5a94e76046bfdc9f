"""Demazure subsets, the i-string rule, filtration layers, quotient structure.

The string and filtration verdicts are ``demazure._string_rule``'s, read
through ``conftest.string_rule``; the i-strings as lists, the quotient
check and the reduced words of an element come from the test references
``string_reference`` and ``weyl_reference``.
"""

import random
from array import array

import pytest

from conftest import by_word, string_rule, tampered
from qcrystal.demazure import (_partition_error, _saturate, demazure_crystal,
                               extremal_element, extremal_weights)
from qcrystal.root_data import apply_word, cartan_datum, longest_word, weyl_group
from string_reference import i_strings, quotient_strings
from weyl_reference import all_reduced_words

A1 = cartan_datum("A1")
A2 = cartan_datum("A2")
B2 = cartan_datum("B2")


def test_base_and_top_of_recursion(graph_of):
    graph = graph_of("A2", (1, 1))
    base = demazure_crystal(graph, ())
    assert type(base) is frozenset and base == {0}
    assert demazure_crystal(graph, longest_word(A2)) == set(graph.all_ids())


def test_single_letter_example(graph_of):
    graph = graph_of("A2", (1, 1))
    members = demazure_crystal(graph, (1,))
    assert members == {0, graph.children[0][0]}
    assert len(members) == 2


def test_non_reduced_word_rejected(graph_of):
    graph = graph_of("A2", (1, 1))
    with pytest.raises(ValueError):
        demazure_crystal(graph, (1, 1))


def test_e_closure(graph_of):
    # property: subsets are closed under every raising operator
    for name in ("A2", "B2"):
        graph = graph_of(name, (1, 1))
        for w in weyl_group(graph.datum):
            members = demazure_crystal(graph, w)
            for b in members:
                for up in graph.parents:
                    assert up[b] < 0 or up[b] in members


def test_monotone_along_prefixes(graph_of):
    for name in ("A2", "B2"):
        graph = graph_of(name, (1, 1))
        for w in weyl_group(graph.datum):
            sizes = []
            for k in range(len(w) + 1):
                suffix = w[len(w) - k:]
                sizes.append(len(demazure_crystal(graph, suffix)))
            assert sizes == sorted(sizes)
            for k in range(len(w)):
                smaller = demazure_crystal(graph, w[len(w) - k:])
                bigger = demazure_crystal(graph, w[len(w) - k - 1:])
                assert smaller <= bigger


def test_extremal_weights_examples():
    assert extremal_weights(A2, (1, 1), ()) == [((1, 1), None)]
    ladder = extremal_weights(A1, (3,), (1,))
    assert ladder == [((3,), None), ((-3,), 3)]
    full = extremal_weights(A2, (1, 1), (1, 2, 1))
    assert full[-1][0] == (-1, -1)
    assert full[-1][0] == apply_word(A2, (1, 2, 1), (1, 1))
    with pytest.raises(ValueError):
        extremal_weights(A1, (3,), (1, 1))


def test_extremal_element_uniqueness(graph_of):
    for name in ("A2", "B2"):
        graph = graph_of(name, (1, 1))
        datum = graph.datum
        for w in weyl_group(datum):
            b = extremal_element(graph, w)
            target = apply_word(datum, w, (1, 1))
            assert graph.weight_of[b] == target
            members = demazure_crystal(graph, w)
            assert b in members
            # the extremal weight appears exactly once in B_w
            assert sum(1 for c in members if graph.weight_of[c] == target) == 1
            # and not in any strictly shorter Demazure subset
            for v in weyl_group(datum):
                if len(v) < len(w):
                    assert b not in demazure_crystal(graph, v)


def test_reduced_word_independence(graph_of):
    for name in ("A2", "B2"):
        graph = graph_of(name, (1, 1))
        for w in weyl_group(graph.datum):
            words = all_reduced_words(graph.datum, w)
            subsets = {demazure_crystal(graph, u) for u in words}
            assert len(subsets) == 1, (w, words)


def test_i_strings_examples(graph_of):
    # the reference strings that the differential tests intersect
    chain = graph_of("A1", (2,))
    strings = i_strings(chain, 1)
    assert len(strings) == 1 and strings[0].length == 2

    fund = graph_of("A2", (1, 0))
    sizes = sorted(len(s.members) for s in i_strings(fund, 1))
    assert sizes == [1, 2]

    trivial = graph_of("A2", (0, 0))
    strings = i_strings(trivial, 1)
    assert len(strings) == 1 and strings[0].length == 0


def test_i_strings_partition(graph_of):
    graph = graph_of("B2", (1, 1))
    for i in graph.indices():
        assert _partition_error(graph, i) is None
        seen = [b for s in i_strings(graph, i) for b in s.members]
        assert sorted(seen) == list(graph.all_ids())
        for s in i_strings(graph, i):
            assert graph.eps_of[s.top][i - 1] == 0
            assert s.length == graph.phi_of[s.top][i - 1]
            # eps + phi constant along the string
            lengths = {graph.eps_of[b][i - 1] + graph.phi_of[b][i - 1] for b in s.members}
            assert lengths == {s.length}


class _OneColumn:
    """The one i-column ``_saturate`` reads, as a graph of len(column) elements."""

    def __init__(self, column):
        self.children = [column]

    def __len__(self):
        return len(self.children[0])


def _naive_closure(column, members):
    """members and everything the i-column reaches from them, by fixed point."""
    out = set(members)
    while True:
        more = out | {column[b] for b in out if column[b] >= 0}
        if more == out:
            return out
        out = more


def test_saturate_is_reachability_on_any_i_column():
    # random i-columns: -1 ends a string, an entry may point back up, to itself
    # or into a cycle; saturation must still end with the exact closure
    rng = random.Random(2024)
    loops = cycles = 0
    for _ in range(2000):
        n = rng.randint(1, 12)
        column = array("i", (rng.randint(-1, n - 1) for _ in range(n)))
        graph = _OneColumn(column)
        members = rng.sample(range(n), rng.randint(0, n))
        expected = _naive_closure(column, members)
        assert _saturate(graph, array("i", members), 1) == expected, (column, members)
        assert _saturate(graph, frozenset(members), 1) == expected, (column, members)
        loops += any(column[b] == b for b in range(n))
        cycles += any(b != column[b] >= 0 and column[column[b]] == b for b in range(n))
    assert loops and cycles


def test_cyclic_i_edges_raise(graph_of):
    # A2 (1,1) has the 1-string 2 -> 3 -> 5; sending 5 back to 3 makes a cycle,
    # which _partition_error names; saturation is plain reachability, so it
    # ends on the cycle and returns the closure, which the edge 5 -> 3 leaves
    # as it was
    graph = graph_of("A2", (1, 1))
    cyclic = tampered(graph, graph.edges | {(5, 1): 3})
    assert _partition_error(cyclic, 1) == ("the 1-string below element 2 does not end "
                                           "within 8 steps: the 1-edges contain a cycle")
    for word in ((1, 2), (2, 1, 2)):
        assert demazure_crystal(cyclic, word) == demazure_crystal(graph, word)
    (subsets, _, witness), (expected, _, _) = by_word(cyclic), by_word(graph)
    assert witness is None
    assert subsets == expected
    # the 2-edges are untouched
    assert len(i_strings(cyclic, 2)) == 4
    assert _partition_error(cyclic, 2) is None
    assert [_partition_error(graph, i) for i in graph.indices()] == [None, None]


def test_string_property_cases(graph_of):
    graph = graph_of("A2", (1, 1))
    full = demazure_crystal(graph, longest_word(A2))
    single = demazure_crystal(graph, ())
    mixed = demazure_crystal(graph, (1,))
    for i in (1, 2):
        for members in (full, single, mixed):
            ok, witness = string_rule(graph, members, i)[0]
            assert ok, witness
    # the mixed case really mixes intersection kinds (not all-full, not all-empty)
    kinds = set()
    for s in i_strings(graph, 2):
        hit = mixed.intersection(s.members)
        if not hit:
            kinds.add("empty")
        elif hit == set(s.members):
            kinds.add("full")
        else:
            kinds.add("top")
    assert "top" in kinds and len(kinds) >= 2


def test_string_property_all_words(graph_of):
    for name in ("A2", "B2"):
        graph = graph_of(name, (1, 1))
        for w in weyl_group(graph.datum):
            members = demazure_crystal(graph, w)
            for i in graph.indices():
                ok, witness = string_rule(graph, members, i)[0]
                assert ok, witness


def test_filtration_structure(graph_of):
    for name in ("A2", "B2"):
        graph = graph_of(name, (1, 1))
        for w in weyl_group(graph.datum):
            members = demazure_crystal(graph, w)
            for i in graph.indices():
                ok, witness = string_rule(graph, members, i)[1]
                assert ok, witness


def test_filtration_singleton_carries_positive_weight(graph_of):
    # B_e(lambda) with lambda strictly dominant: one singleton layer per
    # index, the top of its i-string, at weight coordinate lambda_i = l > 0
    graph = graph_of("B2", (1, 1))
    base = demazure_crystal(graph, ())
    assert base == {0}
    for i in graph.indices():
        i0 = i - 1
        assert graph.eps_of[0][i0] + graph.phi_of[0][i0] == graph.weight_of[0][i0] == 1
        assert string_rule(graph, base, i) == ((True, None), (True, None))


def test_quotient_strings_cases(graph_of):
    chain = graph_of("A1", (3,))
    big = demazure_crystal(chain, (1,))
    small = demazure_crystal(chain, ())
    diff, witness = quotient_strings(chain, big, small, 1)
    assert witness is None and diff == set(range(1, 4))
    # degenerate pair: identical subsets give the empty difference
    diff, witness = quotient_strings(chain, big, big, 1)
    assert diff == frozenset() and witness is None


def test_quotient_strings_along_recursion(graph_of):
    for name in ("A2", "B2"):
        graph = graph_of(name, (1, 1))
        for w in weyl_group(graph.datum):
            if not w:
                continue
            big = demazure_crystal(graph, w)
            small = demazure_crystal(graph, w[1:])
            diff, witness = quotient_strings(graph, big, small, w[0])
            assert witness is None, witness
            assert diff == big - small


def test_sizes_independent_of_word_and_increasing(graph_of):
    graph = graph_of("B2", (1, 1))
    datum = graph.datum
    for w in weyl_group(datum):
        sizes = {len(demazure_crystal(graph, u)) for u in all_reduced_words(datum, w)}
        assert len(sizes) == 1

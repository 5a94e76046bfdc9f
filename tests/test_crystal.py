"""Path model: root operators, crystal generation, normality, oracles.

Paths are read off generated graphs as ``fraction_kernel.fraction_steps``,
and the slow-route string counts iterate that reference's operators.
"""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import fraction_kernel as ref
from conftest import tampered
from qcrystal.character import weyl_dimension
from qcrystal.crystal import ResourceCapError, generate_crystal, verify_normal
from qcrystal.rank_one import RankOneModule, crystal_f_tilde
from qcrystal.root_data import cartan_datum, dominance_leq, reflect

A1 = cartan_datum("A1")
A2 = cartan_datum("A2")
half = Fraction(1, 2)


def test_straight_path(graph_of):
    # element 0 is the straight path to lambda (no run at all for lambda = 0)
    for name, lam in [("A2", (1, 1)), ("A2", (0, 0)), ("A1", (2,))]:
        graph = graph_of(name, lam)
        assert ref.fraction_steps(graph, 0) == ref.canonical_steps((lam,))
        assert graph.weight_of[0] == lam


def test_f_tilde_rank_one_chain(graph_of):
    graph = graph_of("A1", (1,))
    (f1,), (e1,) = graph.children, graph.parents
    down = f1[0]
    assert ref.fraction_steps(graph, down) == ((-1,),) and graph.weight_of[down] == (-1,)
    assert f1[down] == -1
    assert e1[down] == 0
    assert e1[0] == -1


def test_f_tilde_a2_fundamental(graph_of):
    graph = graph_of("A2", (1, 0))
    f1, f2 = graph.children
    p1 = f1[0]
    assert ref.fraction_steps(graph, p1) == ((-1, 1),) and graph.weight_of[p1] == (-1, 1)
    p12 = f2[p1]
    assert ref.fraction_steps(graph, p12) == ((0, -1),) and graph.weight_of[p12] == (0, -1)
    assert f1[p12] == f2[p12] == -1
    assert f2[0] == -1  # phi_2 = 0 at the top


def test_eps_phi_examples(graph_of):
    top = graph_of("A2", (2, 1))
    assert (top.eps_of[0], top.phi_of[0]) == ((0, 0), (2, 1))
    a1 = graph_of("A1", (1,))
    assert (a1.eps_of[1], a1.phi_of[1]) == ((1,), (0,))
    zero = graph_of("A2", (0, 0))
    assert (zero.eps_of[0], zero.phi_of[0]) == ((0, 0), (0, 0))
    # f_2 f_1 of the A2 (1, 1) top: half of (1, -2), then half of (-1, 2)
    a2 = graph_of("A2", (1, 1))
    b = a2.children[1][a2.children[0][0]]
    assert ref.fraction_steps(a2, b) == ((half, -1), (-half, 1)) and a2.weight_of[b] == (0, 0)
    assert (a2.eps_of[b], a2.phi_of[b]) == ((0, 1), (0, 1))


def test_eps_phi_match_operator_iteration(graph_of):
    # slow-route verification: count Fraction-reference applications until None
    for name, lam in [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 0))]:
        graph = graph_of(name, lam)
        datum = graph.datum
        for b in graph.all_ids():
            path = ref.fraction_steps(graph, b)
            for i in datum.indices():
                counts = []
                for move in (ref.raised, ref.lowered):
                    n, cur = 0, path
                    while (cur := move(datum, i, cur)) is not None:
                        n += 1
                    counts.append(n)
                assert tuple(counts) == (graph.eps_of[b][i - 1], graph.phi_of[b][i - 1])


def test_canonical_form_merges_parallel_runs():
    p = ref.canonical_steps(((half, 0), (half, 0), (0, 0), (1, 1)))
    assert p == ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
    # antiparallel steps stay separate: the path turns back
    back = ref.canonical_steps(((1, 0), (-half, 0)))
    assert len(back) == 2


SIZES = {("A1", (4,)): 5, ("A2", (1, 0)): 3, ("A2", (1, 1)): 8,
         ("A2", (2, 1)): 15, ("B2", (1, 0)): 5, ("B2", (1, 1)): 16,
         ("A3", (1, 0, 1)): 15, ("G2", (1, 0)): 7}


@pytest.mark.parametrize("name,lam", sorted(SIZES))
def test_generate_crystal_sizes(name, lam, graph_of):
    graph = graph_of(name, lam)
    assert len(graph) == SIZES[(name, lam)]
    assert len(graph) == weyl_dimension(graph.datum, lam)


def test_a1_chains():
    for n in range(6):
        assert len(generate_crystal(A1, (n,))) == n + 1


@pytest.mark.parametrize("name,lam", sorted(SIZES) + [("A2", (0, 0))])
def test_verify_normal(name, lam, graph_of):
    ok, witness = verify_normal(graph_of(name, lam))
    assert ok, witness


def _swapped(graph, a, b):
    edges = graph.edges
    edges[a], edges[b] = edges[b], edges[a]
    return tampered(graph, edges)


def _without(graph, key):
    edges = graph.edges
    del edges[key]
    return tampered(graph, edges)


def test_verify_normal_tampered_graphs(graph_of):
    # each tamper is caught, with the witness the check reported before it
    # read the element tuples and edge maps directly
    a2, b2 = graph_of("A2", (1, 1)), graph_of("B2", (1, 1))
    cases = [
        (tampered(a2, eps={3: (2, 0)}), ("weight vs phi-eps", 3, 1)),
        (tampered(a2, eps={3: (2, 0)}, phi={3: (2, 0)}), ("eps along edge", 2, 1, 3)),
        (tampered(a2, eps={5: (0, 0)}), ("highest-weight element", [0, 5])),
        (tampered(b2, eps={9: (0, b2.eps_of[9][1])}, phi={9: (-1, b2.phi_of[9][1])}),
         ("parent map vs eps", 9, 1)),
        (_without(a2, (3, 1)), ("edge map vs phi", 3, 1)),
        (_without(b2, (7, 1)), ("edge map vs phi", 7, 1)),
        (_swapped(a2, (0, 1), (2, 1)), ("phi along edge", 0, 1, 3)),
        (_swapped(b2, (0, 2), (1, 2)), ("phi along edge", 0, 2, 4)),
        (_swapped(b2, (0, 1), (6, 1)), ("raising does not invert lowering", 0, 1, 9)),
        (_swapped(b2, (0, 2), (3, 2)), ("raising does not invert lowering", 0, 2, 6)),
    ]
    for graph, witness in cases:
        assert verify_normal(graph) == (False, witness)


def test_trivial_crystal(graph_of):
    graph = graph_of("A2", (0, 0))
    assert len(graph) == 1 and graph.weight_of[0] == (0, 0)


@pytest.mark.parametrize("name,lam", sorted(SIZES))
def test_weight_multiset_weyl_invariant(name, lam, graph_of):
    graph = graph_of(name, lam)
    weights = Counter(graph.weight_of)
    for i in graph.indices():
        reflected = Counter(reflect(graph.datum, i, w) for w in weights.elements())
        assert reflected == weights


@pytest.mark.parametrize("name,lam", sorted(SIZES))
def test_weights_below_highest(name, lam, graph_of):
    graph = graph_of(name, lam)
    for weight in graph.weight_of:
        assert dominance_leq(graph.datum, weight, lam)


@pytest.mark.parametrize("name,lam", sorted(SIZES))
def test_edge_inverse_pairing_and_string_lengths(name, lam, graph_of):
    graph = graph_of(name, lam)
    for (b, i), child in graph.edges.items():
        assert graph.parents[i - 1][child] == b
    for i0, (down, up) in enumerate(zip(graph.children, graph.parents)):
        for b in graph.all_ids():
            # walk to the top of the string, then measure its length
            top = b
            while up[top] >= 0:
                top = up[top]
            length = 0
            cur = top
            while down[cur] >= 0:
                cur = down[cur]
                length += 1
            assert length == graph.eps_of[b][i0] + graph.phi_of[b][i0]


def test_rank_one_oracle_agreement():
    for lam in range(21):
        graph = generate_crystal(A1, (lam,))
        module = RankOneModule(lam)
        assert len(graph) == module.dim
        for k, child in enumerate(graph.children[0]):
            # the column holds -1 where crystal_f_tilde gives None
            assert (None if child < 0 else child) == crystal_f_tilde(module, k)
            assert graph.weight_of[k] == (lam - 2 * k,)


def test_resource_cap():
    with pytest.raises(ResourceCapError):
        generate_crystal(A2, (1, 1), max_elements=5)


def test_ids_are_bfs_level_order(graph_of):
    graph = graph_of("A2", (1, 1))
    # level = height of lambda - weight; ids must be sorted by level
    from qcrystal.root_data import root_coords
    levels = [sum(root_coords(graph.datum,
                              tuple(a - b for a, b in zip((1, 1), weight))))
              for weight in graph.weight_of]
    assert levels == sorted(levels)
    # within a level, ids follow the canonical path encoding
    for lvl in set(levels):
        ids = [b for b in graph.all_ids() if levels[b] == lvl]
        keys = [ref.fraction_steps(graph, b) for b in ids]
        assert keys == sorted(keys)


def test_generation_keeps_no_path_map_of_the_whole_crystal():
    # Each child lies one level below its parent, so paths are deduplicated
    # within the next level only, and generation's traced peak stays near
    # what the finished graph retains.  A path -> id map of the whole
    # crystal took it to 1.5 times that on G2 (4,4).
    datum = cartan_datum("G2")
    generate_crystal(datum, (4, 4))  # fill the root-data caches first
    tracemalloc.start()
    try:
        graph = generate_crystal(datum, (4, 4))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph) == 15625
    assert peak <= 1.25 * retained, peak / retained

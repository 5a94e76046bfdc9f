"""Differential tests: the pair path kernel against two earlier kernels.

``fraction_kernel.py`` keeps the Fraction-coordinate kernel the library
used before its paths moved to int steps over one common denominator per
crystal, and ``int_step_kernel.py`` keeps that int-step kernel, used
before paths moved to (orbit index, length) pairs.  Whole crystals must
agree element by element: ids, edges, weights, eps, phi and the paths
themselves.
"""

from fractions import Fraction

import pytest

import fraction_kernel as ref
import int_step_kernel as int_ref
from qcrystal import crystal
from qcrystal.crystal import PathKernelError, generate_crystal
from qcrystal.root_data import cartan_datum, simple_root, supported_types

# the acceptance crystals, one weight with split steps for each remaining
# type, and two larger crystals with denominators 120 and 60
DIFF_CASES = [("A1", (4,)), ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 1)),
              ("B2", (1, 0)), ("B2", (1, 1)), ("A3", (1, 0, 1)), ("G2", (1, 0)),
              ("A4", (1, 0, 0, 1)), ("B3", (1, 0, 1)), ("C3", (1, 0, 1)),
              ("D4", (0, 1, 0, 0)), ("G2", (2, 2)), ("D4", (1, 1, 1, 1))]

half = Fraction(1, 2)


def assert_same_crystal(graph):
    """Diff a generated crystal against the Fraction reference, element by element."""
    datum = graph.datum
    paths, edges = ref.reference_crystal(datum, graph.highest_weight)
    assert len(graph) == len(paths)
    assert graph.edges == edges
    for b, steps in enumerate(paths):
        assert ref.fraction_steps(graph, b) == steps, b
        assert graph.weight_of[b] == ref.weight(steps, datum.rank), b
        for i in datum.indices():
            string = graph.eps_of[b][i - 1], graph.phi_of[b][i - 1]
            assert string == ref.eps_phi(datum, i, steps), (b, i)


@pytest.mark.parametrize("name,lam", DIFF_CASES)
def test_crystal_matches_fraction_reference(name, lam, graph_of):
    assert_same_crystal(graph_of(name, lam))


def _rho_and_fundamental_weights():
    for name in supported_types():
        rank = cartan_datum(name).rank
        yield name, (1,) * rank
        for i in range(rank):
            yield name, tuple(int(j == i) for j in range(rank))


INT_STEP_CASES = sorted(set(_rho_and_fundamental_weights()) | set(DIFF_CASES))


@pytest.mark.parametrize("name,lam", INT_STEP_CASES)
def test_crystal_matches_int_step_reference(name, lam, graph_of):
    graph = graph_of(name, lam)
    elements, edges, denom = int_ref.reference_crystal(graph.datum, lam)
    assert graph.denominator == denom
    assert len(graph) == len(elements)
    assert graph.edges == edges
    for b, expected in enumerate(elements):
        row = graph.weight_of[b], graph.eps_of[b], graph.phi_of[b]
        assert (ref.grid_steps(graph.orbit, graph.runs[b]), *row) == expected, b


@pytest.mark.parametrize("name,lam", INT_STEP_CASES)
def test_stored_runs_are_maximal(name, lam, graph_of):
    # lowering merges runs only at the head of the reflected piece, so no
    # stored path may keep two adjacent runs along one orbit point
    for b, path in enumerate(graph_of(name, lam).runs):
        assert all(path[k] != path[k + 2] for k in range(0, len(path) - 2, 2)), b


@pytest.mark.parametrize("name,lam", INT_STEP_CASES)
def test_i_edges_point_to_larger_ids(name, lam, graph_of):
    # each child id comes from the next BFS level, so generated i-edges have no
    # cycle: only hand-built graphs meet ``demazure._partition_error``'s cycle
    graph = graph_of(name, lam)
    for column in graph.children:
        assert all(child > b for b, child in enumerate(column) if child >= 0)


def test_denominator_is_lcm_of_coroot_pairings():
    # <lambda, beta^vee> over the positive roots, worked by hand
    assert crystal._denominator(cartan_datum("A2"), (1, 1)) == 2          # 1, 1, 2
    assert crystal._denominator(cartan_datum("A2"), (0, 0)) == 1
    assert crystal._denominator(cartan_datum("B2"), (1, 1)) == 6          # 1, 1, 2, 3
    assert crystal._denominator(cartan_datum("G2"), (1, 0)) == 2          # 1, 1, 2, 1, 1
    assert generate_crystal(cartan_datum("G2"), (2, 2)).denominator == 120


def test_too_small_denominator_raises():
    a2 = cartan_datum("A2")
    alpha2 = simple_root(a2, 2)
    # f_2 f_1 of the A2 (1, 1) top path splits (-1, 2) in half
    assert int_ref._lower(alpha2, 1, 2, ((-2, 4),)) == ((1, -2), (-1, 2))
    with pytest.raises(ValueError, match="grid"):
        int_ref._lower(alpha2, 1, 1, ((-1, 2),))
    # a height minimum off the grid is refused too
    with pytest.raises(ValueError, match="non-integral height minimum"):
        int_ref._heights(((-1, 1),), 0, 2)


def test_too_small_denominator_raises_on_pairs():
    # the three cases above, as (orbit index, length) pairs over the orbit of (1, 1)
    orbit = crystal._Orbit(cartan_datum("A2"), (1, 1))
    pair, refl = orbit.pair[1], orbit.refl[1]
    o = orbit.index
    assert crystal._lower(pair, refl, 2, (o[-1, 2], 2)) == (o[1, -2], 1, o[-1, 2], 1)
    with pytest.raises(PathKernelError, match="grid"):
        crystal._lower(pair, refl, 1, (o[-1, 2], 1))
    # (-1, 2) over 2 has 1-height -1/2 at its end
    with pytest.raises(PathKernelError, match="non-integral height minimum"):
        crystal._run_heights(orbit.pair[0], 2, (o[-1, 2], 1))


def test_generation_with_too_small_denominator_raises(monkeypatch):
    monkeypatch.setattr(crystal, "_denominator", lambda datum, lam: 1)
    with pytest.raises(ValueError, match="grid"):
        generate_crystal(cartan_datum("A2"), (1, 1))


HAND_BUILT = [
    # A2 (1, 1): f_2 f_1 of the top path, weight (0, 0)
    ("A2", ((half, -1), (-half, 1))),
    # B2 (1, 1): a path of weight (0, 1) whose f_2 splits into thirds
    ("B2", ((-1, 3 * half), (1, -half))),
]


@pytest.mark.parametrize("name,path", HAND_BUILT)
def test_public_operators_on_half_steps(name, path, graph_of):
    # the graph's child, parent, eps and phi columns at the element of a hand-built path
    graph = graph_of(name, (1, 1))
    datum, steps = graph.datum, ref.canonical_steps(path)
    (b,) = [b for b in graph.all_ids() if ref.fraction_steps(graph, b) == steps]
    for i, down, up in zip(datum.indices(), graph.children, graph.parents):
        for image, move in ((down[b], ref.lowered), (up[b], ref.raised)):
            found = None if image < 0 else ref.fraction_steps(graph, image)
            assert found == move(datum, i, steps), (i, move.__name__)
        assert (graph.eps_of[b][i - 1], graph.phi_of[b][i - 1]) == ref.eps_phi(datum, i, steps)

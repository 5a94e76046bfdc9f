"""The coroot table against the formulas it replaced, and the top path it places.

``coroot_reference.py`` keeps the Fraction Weyl-dimension product and the
per-root double loop for the path denominator.  Both int rewrites must
agree with them on every weight with coordinates in 0..3, for every type.
"""

import itertools
from fractions import Fraction

import pytest

import coroot_reference as ref
from fraction_kernel import canonical_steps, fraction_steps, grid_steps
from qcrystal import crystal
from qcrystal.character import weyl_dimension
from qcrystal.crystal import generate_crystal
from qcrystal.root_data import (_coroots, cartan_datum, positive_roots,
                                root_weight_coords, supported_types)

TYPES = supported_types()


@pytest.mark.parametrize("name", TYPES)
def test_int_rewrites_match_the_fraction_formulas(name):
    datum = cartan_datum(name)
    weights = list(itertools.product(range(4), repeat=datum.rank))
    assert len(weights) == 4 ** datum.rank
    for lam in weights:
        assert weyl_dimension(datum, lam) == ref.weyl_dimension(datum, lam), lam
        assert crystal._denominator(datum, lam) == ref.denominator(datum, lam), lam


@pytest.mark.parametrize("name", TYPES)
def test_coroot_table_rows(name):
    datum = cartan_datum(name)
    roots = positive_roots(datum)
    table = _coroots(datum)
    assert len(table) == len(roots)
    for root, coroot in zip(roots, table):
        assert all(isinstance(c, int) and c >= 0 for c in coroot)
        # <beta, beta^vee> = 2, with beta in fundamental-weight coordinates
        assert sum(x * c for x, c in zip(root_weight_coords(datum, root), coroot)) == 2
        if sum(root) == 1:  # a simple root alpha_i has coroot h_i
            assert coroot == root


@pytest.mark.parametrize("name", TYPES)
def test_top_element_is_the_straight_path(name):
    datum = cartan_datum(name)
    lams = [(0,) * datum.rank]
    lams += [tuple(int(j == i) for j in range(datum.rank)) for i in range(datum.rank)]
    for lam in lams:
        graph = generate_crystal(datum, lam)
        denom = ref.denominator(datum, lam)
        assert graph.denominator == denom
        top = (tuple(denom * x for x in lam),) if any(lam) else ()
        assert grid_steps(graph.orbit, graph.runs[0]) == top
        assert fraction_steps(graph, 0) == canonical_steps((lam,))


def test_generation_rejects_a_non_dominant_weight_before_the_top_path():
    # weyl_dimension runs first and checks dominance for generation too
    a2 = cartan_datum("A2")
    for fn in (weyl_dimension, generate_crystal):
        with pytest.raises(ValueError,
                           match=r"dimension formula needs a dominant weight, got \(1, -1\)"):
            fn(a2, (1, -1))


def test_weights_must_have_int_coordinates():
    # one message from root_data._check_rank for a float and for an integral
    # Fraction, rather than 8.0 from the product and a math.lcm TypeError
    a2 = cartan_datum("A2")
    for fn, lam, k in ((weyl_dimension, (1.0, 1.0), 1), (generate_crystal, (Fraction(2), 0), 1),
                       (weyl_dimension, (1, 1.0), 2)):
        with pytest.raises(TypeError, match=rf"weight coordinate {k} is .*, not an int"):
            fn(a2, lam)

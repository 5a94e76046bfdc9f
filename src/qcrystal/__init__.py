"""Exact-arithmetic crystals, Demazure subsets and characters for finite type.

The package builds highest-weight crystals B(lambda) through a
piecewise-linear path model, cuts out Demazure subsets B_w(lambda) along
reduced words, checks each against Kashiwara's i-string property and the
filtration it gives, and checks the resulting combinatorics against
independent character oracles (Freudenthal multiplicities, the Weyl
dimension product and Demazure operators on the group algebra of the
weight lattice).  A rank-one quantized module over Z[q, q^-1] with exact
divided-power actions serves as a brute-force crosscheck.  Everything is
exact: Laurent polynomials with int coefficients and crystal paths as
(orbit index, length) int pairs over one common denominator per crystal,
no floats anywhere.
"""

from .character import (FormalCharacter, apply_demazure_word, char_of,
                        demazure_operator, verify_demazure_character,
                        weyl_character, weyl_dimension)
from .crystal import (DEFAULT_MAX_ELEMENTS, CrystalGraph, PathKernelError,
                      ResourceCapError, generate_crystal, verify_normal)
from .demazure import (DemazureCrystal, demazure_crystal, extremal_element,
                       extremal_weights)
from .qarith import (ExactDivisionError, LaurentPoly, bar, eval_at_one,
                     qbinom, qfact, qint)
from .rank_one import (RankOneModule, act_K, act_divided_f, act_e, act_f,
                       crystal_f_tilde, iterated_f_over_factorial,
                       verify_sl2_relation)
from .root_data import (CartanDatum, apply_word, canonical_word, cartan_datum,
                        dominance_leq, is_dominant, is_reduced, left_descents,
                        longest_word, positive_roots, reflect, rho, simple_root,
                        supported_types, weyl_group, weyl_orbit, weyl_order)

__version__ = "0.1.0"

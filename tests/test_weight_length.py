"""Weights of the wrong length and out-of-range letters raise, not answer.

Each call below once returned an answer for a weight whose length is not
the rank (``zip`` truncated it, or a coordinate was read past the end), or
raised a bare ``tuple index out of range``.
"""

import pytest

from qcrystal.character import FormalCharacter, demazure_operator
from qcrystal.crystal import generate_crystal
from qcrystal.demazure import extremal_element, extremal_weights
from qcrystal.root_data import (apply_word, cartan_datum, dominance_leq,
                                dominant_representative, reflect, root_coords,
                                root_weight_coords, weyl_orbit)

A2 = cartan_datum("A2")
LONG = "weight length 3 does not match rank 2"


@pytest.mark.parametrize("call", [
    lambda: reflect(A2, 1, (1, 1, 5)),
    lambda: weyl_orbit(A2, (1, 1, 5)),
    lambda: dominant_representative(A2, (-1, 1, 5)),
    lambda: root_coords(A2, (1, 1, 1)),
    lambda: dominance_leq(A2, (0, 0, 0), (1, 1)),
    lambda: dominance_leq(A2, (1, 1), (0, 0, 0)),
    lambda: demazure_operator(A2, 1, FormalCharacter.monomial((1, 1, 1))),
    lambda: generate_crystal(A2, (1, 1, 1)),
    lambda: root_weight_coords(A2, (1, 1, 1)),
    lambda: apply_word(A2, (), (1, 1, 1)),
], ids=["reflect", "weyl_orbit", "dominant_representative", "root_coords",
        "dominance_leq_mu", "dominance_leq_lam", "demazure_operator", "generate_crystal",
        "root_weight_coords", "apply_word_empty"])
def test_a_weight_longer_than_the_rank_is_refused(call):
    with pytest.raises(ValueError, match=LONG):
        call()


def test_apply_word_refuses_a_weight_shorter_than_the_rank():
    with pytest.raises(ValueError, match="weight length 1 does not match rank 2"):
        apply_word(A2, (1, 2), (1,))


def test_extremal_ladder_checks_the_letter_before_reading_it():
    message = r"simple-root index 3 out of range 1\.\.2"
    with pytest.raises(IndexError, match=message):
        extremal_weights(A2, (1, 1), (3,))
    with pytest.raises(IndexError, match=message):
        extremal_element(generate_crystal(A2, (1, 1)), (3,))

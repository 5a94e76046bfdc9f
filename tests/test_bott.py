"""Bott's rule: the Demazure operators against Freudenthal, off the dominant cone.

For any integral mu, D_{w0}(e^mu) is the Euler characteristic of the line
bundle of weight mu.  By the Borel-Weil-Bott theorem, which extends the
dominant case that Kempf's vanishing theorem covers, it is 0 when mu + rho
is singular, and otherwise (-1)^l(w) chi(w . mu) for the w that makes
w . mu = w(mu + rho) - rho dominant.  The left side runs through
``demazure_operator`` on signed characters, the right through Freudenthal's
recursion: two oracles that share no code path.  l(w) is the number of
positive roots beta with <mu + rho, beta^vee> < 0.
"""

import functools
import itertools
import random

import pytest

from qcrystal.character import (FormalCharacter, apply_demazure_word,
                                weyl_character)
from qcrystal.root_data import (_coroots, cartan_datum, dominant_representative,
                                longest_word, rho)

BOX = range(-2, 3)
SAMPLED = {"A4": 60, "D4": 60}  # weights drawn from BOX^4 with a fixed seed


def _weights(name):
    rank = cartan_datum(name).rank
    box = list(itertools.product(BOX, repeat=rank))
    if name in SAMPLED:
        return random.Random(2009).sample(box, SAMPLED[name])
    return box


@functools.cache
def _chi(name, lam):
    return weyl_character(cartan_datum(name), lam)


def bott(name, mu):
    """The Euler characteristic of mu by Bott's rule, with no Demazure operator."""
    datum = cartan_datum(name)
    shifted = tuple(x + 1 for x in mu)
    pairings = [sum(x * c for x, c in zip(shifted, coroot)) for coroot in _coroots(datum)]
    if 0 in pairings:
        return FormalCharacter()
    sign = (-1) ** sum(p < 0 for p in pairings)
    dot = tuple(x - r for x, r in zip(dominant_representative(datum, shifted), rho(datum)))
    return FormalCharacter((w, sign * m) for w, m in _chi(name, dot).items())


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"])
def test_demazure_w0_obeys_bott(name):
    datum = cartan_datum(name)
    w0 = longest_word(datum)
    kinds = set()
    for mu in _weights(name):
        euler = apply_demazure_word(datum, w0, FormalCharacter.monomial(mu))
        expected = bott(name, mu)
        assert euler == expected, mu
        signs = {m > 0 for _, m in expected.items()}
        kinds.add("singular" if not signs else "+" if signs == {True} else "-")
    # the weights reach singular mu + rho and both signs of (-1)^l(w)
    assert kinds == {"singular", "+", "-"}


def test_bott_signs_by_hand():
    # A1: D(e^{-2}) = -e^0 (w . (-2) = 0, l = 1), D(e^{-1}) = 0, D(e^{-3}) = -(e^1 + e^-1)
    assert bott("A1", (-2,)) == FormalCharacter.monomial((0,), -1)
    assert bott("A1", (-1,)) == FormalCharacter()
    assert bott("A1", (-3,)) == FormalCharacter({(1,): -1, (-1,): -1})

"""The Weyl group read off the orbit of rho, against the searches it replaced.

``weyl_reference.py`` keeps the level-by-level element table, the old
``left_descents`` and the depth-first ``weyl_orbit``, all acting through
``reflect``.  For every type the functions of ``root_data`` must agree
with them on every element of W and on every word of length at most 3.
|W| is read off the positive roots by the Poincare identity, and ``verify``
builds no Weyl-group table.
"""

import itertools
from collections import Counter

import pytest

import weyl_reference as ref
from qcrystal import cli, crystal, root_data
from qcrystal.qarith import LaurentPoly, one
from qcrystal.root_data import (canonical_word, cartan_datum, element_key,
                                left_descents, longest_word, positive_roots,
                                rho, supported_types, weyl_group, weyl_orbit,
                                weyl_order)

TYPES = supported_types()


def _short_words(datum):
    return [w for k in range(4) for w in itertools.product(datum.indices(), repeat=k)]


@pytest.mark.parametrize("name", TYPES)
def test_group_and_longest_word_match_the_reference(name):
    datum = cartan_datum(name)
    assert weyl_group(datum) == ref.weyl_group(datum)
    assert weyl_order(datum) == ref.weyl_order(datum) == len(weyl_group(datum))
    assert longest_word(datum) == ref.longest_word(datum)


@pytest.mark.parametrize("name", TYPES)
def test_word_functions_match_the_reference(name):
    datum = cartan_datum(name)
    for word in [*weyl_group(datum), *_short_words(datum)]:
        assert canonical_word(datum, word) == ref.canonical_word(datum, word), word
        assert element_key(datum, word) == ref.element_key(datum, word), word
        assert left_descents(datum, word) == ref.left_descents(datum, word), word


@pytest.mark.parametrize("name", TYPES)
def test_weyl_orbit_matches_the_depth_first_search(name):
    datum = cartan_datum(name)
    n = datum.rank
    fundamentals = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    non_dominant = (-2,) + (1,) * (n - 1)
    for mu in [rho(datum), *fundamentals, non_dominant]:
        assert weyl_orbit(datum, mu) == ref.weyl_orbit(datum, mu), mu


@pytest.mark.parametrize("name", TYPES)
def test_orbit_index_order_is_length_order(name):
    orbit, words, _ = root_data._weyl(cartan_datum(name))
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    assert len(words) == len(orbit.points) == len(set(words))


def test_the_path_kernel_reads_the_same_orbit_search():
    assert crystal._Orbit is root_data._Orbit


@pytest.mark.parametrize("name", TYPES)
def test_poincare_identity_counts_the_lengths(name):
    # sum_w q^l(w) = prod over beta > 0 of (1 - q^(ht beta + 1)) / (1 - q^ht beta)
    datum = cartan_datum(name)
    num = den = one
    for root in positive_roots(datum):
        num *= LaurentPoly({0: 1, sum(root) + 1: -1})
        den *= LaurentPoly({0: 1, sum(root): -1})
    assert num.exact_div(den) == LaurentPoly(Counter(map(len, weyl_group(datum))))
    assert weyl_order(datum) == len(weyl_group(datum))


@pytest.mark.parametrize("name", TYPES)
def test_verify_builds_no_weyl_table(name, monkeypatch):
    datum = cartan_datum(name)
    n = datum.rank
    weights = [rho(datum), *(tuple(int(j == i) for j in range(n)) for i in range(n))]
    jobs = [cli.parse_args(["verify", "--type", name, "--weight", ",".join(map(str, lam))])
            for lam in weights]
    expected = [cli.run_verify(job) for job in jobs]

    def no_table(datum):
        raise AssertionError(f"verify built the Weyl-group table of {datum.name}")

    monkeypatch.setattr(root_data, "_weyl", no_table)
    assert [cli.run_verify(job) for job in jobs] == expected

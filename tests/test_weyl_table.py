"""The Weyl group and its word queries, against the searches they replaced.

``weyl_reference.py`` keeps the level-by-level element table, the word
queries read off it (``element_key``, ``canonical_word``, ``left_descents``;
the library has none of its own) and the depth-first ``weyl_orbit``, all
acting through ``reflect``.  For every type the functions of ``root_data``
must agree with them on every element of W, on every element times one
more letter and on every word of length at most 3.  |W| is read off the
positive roots by the Poincare identity.  No command of the CLI lists W or
calls any other public name that only the library offers (``LIBRARY_ONLY``).
``all_reduced_words``, which lists every reduced word of an element, lives
in the reference alone and is checked against brute force here.
"""

import itertools
import sys
from collections import Counter

import pytest

import weyl_reference as ref
import qcrystal
from qcrystal import cli, crystal, root_data
from qcrystal.qarith import LaurentPoly, one
from qcrystal.root_data import (_coset_words, _Orbit, cartan_datum, is_reduced,
                                longest_word, positive_roots, rho, supported_types,
                                weyl_group, weyl_orbit, weyl_order)

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
    group = weyl_group(datum)
    longer = [w + (i,) for w in group for i in datum.indices()]
    for word in [*group, *longer, *_short_words(datum)]:
        reduced = len(ref.canonical_word(datum, word)) == len(word)
        assert is_reduced(datum, word) == reduced, word


@pytest.mark.parametrize("name", TYPES)
def test_is_reduced_agrees_with_the_canonical_word_length(name):
    # one walk from rho against the length of the reference's canonical word
    datum = cartan_datum(name)
    for k in range(6):
        for word in itertools.product(datum.indices(), repeat=k):
            reduced = len(word) == len(ref.canonical_word(datum, word))
            assert is_reduced(datum, word) == reduced, word


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_all_reduced_words_are_the_words_of_the_element(name):
    # a word of length l(w) with w's point is a reduced word of w, and every one is
    datum = cartan_datum(name)
    by_point = {}
    for k in range(len(ref.longest_word(datum)) + 1):
        for word in itertools.product(datum.indices(), repeat=k):
            by_point.setdefault((k, ref.element_key(datum, word)), []).append(word)
    for w in weyl_group(datum):
        expected = sorted(by_point[len(w), ref.element_key(datum, w)])
        assert ref.all_reduced_words(datum, w) == tuple(expected), w


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
    datum = cartan_datum(name)
    orbit = _Orbit(datum, rho(datum))
    words, _ = _coset_words(orbit)
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


def _jobs(name, command):
    """argv lists of ``command`` at rho and at every fundamental weight of ``name``.

    crystal runs in every format, demazure and character along w0 and along
    (1, ..., rank), verify with and without --inject-failure.
    """
    datum = cartan_datum(name)
    n = datum.rank
    if command == "crystal":
        tails = [["--format", fmt] for fmt in ("json", "dot", "text")]
    elif command == "verify":
        tails = [[], ["--inject-failure"]]
    else:
        tails = [["--word", ",".join(map(str, w))]
                 for w in (ref.longest_word(datum), tuple(datum.indices()))]
    for lam in [rho(datum), *(tuple(int(j == i) for j in range(n)) for i in range(n))]:
        for tail in tails:
            yield [command, "--type", name, "--weight", ",".join(map(str, lam)), *tail]


# public names that no command calls: the library offers them, the CLI must not need them
LIBRARY_ONLY = ("weyl_group", "extremal_element", "extremal_weights", "apply_demazure_word",
                "apply_word", "reflect", "dominance_leq", "supported_types", "qfact", "qbinom",
                "bar", "eval_at_one", "act_K", "act_divided_f", "iterated_f_over_factorial",
                "crystal_f_tilde")


def _refusal(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"the CLI called {name}")
    return refused


def _same_without_library_only_names(jobs, graph_of, monkeypatch, path):
    """Each job writes the same bytes and exit code when the ``LIBRARY_ONLY`` names raise."""
    monkeypatch.setattr(cli, "generate_crystal",
                        lambda datum, lam, max_elements: graph_of(datum.name, lam))

    def run(argv):
        code = cli.main(argv + ["--out", str(path)])
        return path.read_bytes(), code

    jobs = list(jobs)
    expected = [run(argv) for argv in jobs]

    modules = [module for key, module in sys.modules.items()
               if key == "qcrystal" or key.startswith("qcrystal.")]
    for name in LIBRARY_ONLY:
        refused = _refusal(name)
        original = getattr(qcrystal, name)
        for module in modules:  # wherever it is bound
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refused)
        assert getattr(sys.modules[original.__module__], name) is refused
    for argv, outcome in zip(jobs, expected):
        assert run(argv) == outcome, argv


@pytest.mark.parametrize("command", ["demazure", "character"])
@pytest.mark.parametrize("name", TYPES)
def test_word_commands_list_no_weyl_group(name, command, graph_of, monkeypatch, tmp_path):
    _same_without_library_only_names(_jobs(name, command), graph_of, monkeypatch,
                                     tmp_path / "out")


@pytest.mark.parametrize("name", TYPES)
def test_verify_builds_no_weyl_table(name, graph_of, monkeypatch, tmp_path):
    _same_without_library_only_names(_jobs(name, "verify"), graph_of, monkeypatch,
                                     tmp_path / "out")


@pytest.mark.parametrize("name", TYPES)
def test_crystal_command_calls_no_library_only_name(name, graph_of, monkeypatch, tmp_path):
    _same_without_library_only_names(_jobs(name, "crystal"), graph_of, monkeypatch,
                                     tmp_path / "out")


@pytest.mark.parametrize("weight", [0, 1, 5, 40])
def test_rank_one_calls_no_library_only_name(weight, graph_of, monkeypatch, tmp_path):
    _same_without_library_only_names([["rank-one", "--weight", str(weight)]], graph_of,
                                     monkeypatch, tmp_path / "out")

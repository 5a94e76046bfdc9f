"""Acceptance suite: one test per criterion, all equalities exact.

Each test prints a single ``ACCEPTANCE <nn> <name>: PASS|FAIL`` line; run
with ``pytest -s tests/test_acceptance.py`` to watch them stream by.
Stated time budgets are asserted with a wall clock on fresh objects.
The string and filtration verdicts are ``demazure._string_rule``'s, read
through ``conftest.string_rule``; criteria 04 and 08 read every reduced
word and the i-strings off the test references.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

from qcrystal.character import (FormalCharacter, apply_demazure_word, char_of,
                                weyl_character, weyl_dimension)
from conftest import string_rule
from qcrystal.crystal import generate_crystal, verify_normal
from qcrystal.demazure import demazure_crystal
from qcrystal.qarith import bar, eval_at_one, qbinom, qint
from qcrystal.rank_one import (RankOneModule, act_divided_f, crystal_f_tilde,
                               iterated_f_over_factorial, verify_sl2_relation)
from qcrystal.root_data import cartan_datum, longest_word, weyl_group
from string_reference import quotient_strings
from weyl_reference import all_reduced_words

CRYSTALS = [("A1", (4,)), ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 1)),
            ("B2", (1, 0)), ("B2", (1, 1)), ("A3", (1, 0, 1)), ("G2", (1, 0))]


@contextmanager
def report(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _cli(*args):
    env = dict(os.environ, CRYSTAL_LOG="error")
    return subprocess.run([sys.executable, "-m", "qcrystal", *args],
                          capture_output=True, env=env)


def test_criterion_01_crystal_sizes(graph_of):
    with report(1, "crystal-sizes"):
        for name, lam in CRYSTALS:
            datum = cartan_datum(name)
            start = time.monotonic()
            graph = generate_crystal(datum, lam)
            elapsed = time.monotonic() - start
            assert elapsed < 10.0, (name, lam, elapsed)
            assert len(graph) == weyl_dimension(datum, lam), (name, lam)


def test_criterion_02_normality(graph_of):
    with report(2, "normality"):
        for name, lam in CRYSTALS:
            ok, witness = verify_normal(graph_of(name, lam))
            assert ok, (name, lam, witness)


def test_criterion_03_string_property(graph_of):
    with report(3, "string-property"):
        start = time.monotonic()
        cases = 0
        for name in ("A2", "B2"):
            graph = graph_of(name, (1, 1))
            datum = graph.datum
            for w in weyl_group(datum):
                members = demazure_crystal(graph, w)
                for i in datum.indices():
                    ok, witness = string_rule(graph, members, i)[0]
                    assert ok, (name, w, i, witness)
                    cases += 1
        assert cases == 6 * 2 + 8 * 2
        assert time.monotonic() - start < 30.0


def test_criterion_04_reduced_word_independence(graph_of):
    with report(4, "reduced-word-independence"):
        for name in ("A2", "B2"):
            graph = graph_of(name, (1, 1))
            datum = graph.datum
            for w in weyl_group(datum):
                words = all_reduced_words(datum, w)
                subsets = {demazure_crystal(graph, u) for u in words}
                assert len(subsets) == 1, (name, w, words)


def test_criterion_05_demazure_character_formula(graph_of):
    with report(5, "demazure-character-formula"):
        cases = [(graph_of(name, (1, 1)), (1, 1)) for name in ("A2", "B2")]
        cases += [(generate_crystal(cartan_datum("A1"), (lam,)), (lam,)) for lam in range(7)]
        for graph, lam in cases:
            top = FormalCharacter.monomial(lam)
            for w in weyl_group(graph.datum):
                got = char_of(demazure_crystal(graph, w), graph)
                assert got == apply_demazure_word(graph.datum, w, top), (lam, w)


def test_criterion_06_weyl_character(graph_of):
    with report(6, "weyl-character"):
        for name, lam in CRYSTALS:
            graph = graph_of(name, lam)
            datum = graph.datum
            chi = char_of(graph.all_ids(), graph)
            assert chi == weyl_character(datum, lam), (name, lam)
            w0 = apply_demazure_word(datum, longest_word(datum),
                                     FormalCharacter.monomial(lam))
            assert chi == w0, (name, lam)


def test_criterion_07_filtration_structure(graph_of):
    with report(7, "filtration-structure"):
        for name in ("A2", "B2"):
            graph = graph_of(name, (1, 1))
            datum = graph.datum
            for w in weyl_group(datum):
                members = demazure_crystal(graph, w)
                for i in datum.indices():
                    ok, witness = string_rule(graph, members, i)[1]
                    assert ok, (name, w, i, witness)


def test_criterion_08_quotient_strings(graph_of):
    with report(8, "quotient-strings"):
        graph = graph_of("A2", (1, 1))
        covered = 0
        for w in weyl_group(graph.datum):
            if not w:
                continue
            big = demazure_crystal(graph, w)
            small = demazure_crystal(graph, w[1:])
            diff, witness = quotient_strings(graph, big, small, w[0])
            assert witness is None, (w, witness)
            assert diff == big - small
            covered += 1
        assert covered == 5  # every non-identity element of W(A2)


def test_criterion_09_rank_one_module():
    with report(9, "rank-one-module"):
        start = time.monotonic()
        for lam in range(13):
            ok, witness = verify_sl2_relation(RankOneModule(lam))
            assert ok, witness
        for lam in range(11):
            m = RankOneModule(lam)
            for p in range(4):
                for r in range(4):
                    coeff = qbinom(p + r, r)
                    for k in range(lam + 1):
                        v = m.basis_vector(k)
                        lhs = act_divided_f(m, p, act_divided_f(m, r, v))
                        rhs = {t: coeff * c
                               for t, c in act_divided_f(m, p + r, v).items()}
                        assert lhs == rhs
                        assert act_divided_f(m, p, v) == \
                            iterated_f_over_factorial(m, p, v)
        for lam in range(21):
            graph = generate_crystal(cartan_datum("A1"), (lam,))
            module = RankOneModule(lam)
            assert len(graph) == module.dim
            for k, child in enumerate(graph.children[0]):
                # the column holds -1 where crystal_f_tilde gives None
                assert (None if child < 0 else child) == crystal_f_tilde(module, k)
                assert graph.weight_of[k] == (lam - 2 * k,)
        assert time.monotonic() - start < 5.0


def test_criterion_10_qarith():
    with report(10, "qarith"):
        for m in range(1, 9):
            for k in range(1, m):
                lhs = qbinom(m, k)
                rhs = qbinom(m - 1, k).shift(k) + qbinom(m - 1, k - 1).shift(k - m)
                assert lhs == rhs, (m, k)
        for m in range(11):
            for k in range(m + 1):
                assert eval_at_one(qbinom(m, k)) == math.comb(m, k)
        for n in range(-8, 9):
            assert bar(qint(n)) == qint(n)
        probe = qbinom(7, 3) + qint(5).shift(2) - qint(2).shift(-4)
        assert bar(bar(probe)) == probe


def test_criterion_11_cli_determinism(tmp_path):
    with report(11, "cli-determinism"):
        for name, lam in CRYSTALS:
            weight = ",".join(str(c) for c in lam)
            blobs = []
            for run in range(2):
                out = tmp_path / f"{name}-{weight.replace(',', '_')}-{run}.json"
                result = _cli("crystal", "--type", name, "--weight", weight,
                              "--format", "json", "--out", str(out))
                assert result.returncode == 0, result.stderr
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], (name, lam)
            json.loads(blobs[0])
        good = _cli("verify", "--type", "A2", "--weight", "1,1")
        assert good.returncode == 0, good.stderr
        bad = _cli("verify", "--type", "A2", "--weight", "1,1", "--inject-failure")
        assert bad.returncode == 1
        assert b"string-property" in bad.stdout

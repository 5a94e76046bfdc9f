"""Test-only reference: the Demazure walk over the whole Weyl group.

Before the walk ran over the orbit W.lambda (``root_data._coset_words`` of
the crystal's own ``orbit``), ``_subset_levels`` and ``_character_levels``
walked every element w of W in ``weyl_group`` order and compared the
f_tilde_i closures of all left descents of each w, and ``run_verify``
corrupted B_{w0} by its word.  The three functions below are that version,
unchanged except that ``run_verify`` reads both walks from this module,
hands ``cli._corrupt`` the graph and member set, reads ``left_descents``
from ``weyl_reference`` and raises ``demazure._partition_error``'s message
where it listed the i-strings.
``test_weyl_walk_reference.py`` diffs the orbit walk against it.  Do not
import it from ``src/``.
"""

import time
from array import array

from qcrystal import demazure
from qcrystal.character import (FormalCharacter, char_of, demazure_operator,
                                weyl_character, weyl_dimension)
from qcrystal.cli import _corrupt, _phase, generate_crystal, log, verify_normal
from qcrystal.demazure import _saturate
from qcrystal.root_data import cartan_datum, longest_word, weyl_group, weyl_order
from weyl_reference import left_descents


def _subset_levels(graph):
    """Yield (w, members, disagreement, live) for every w, in ``weyl_group`` order.

    ``members`` is B_w(lambda), the f_tilde_i closure of B_{s_i w} for the
    first letter i of w.  The closure is also taken for every other left
    descent j of w; ``disagreement`` is None when all of them agree, else
    ``("left descents disagree", i, j, b)`` for the first j that does not,
    with b the smallest element id in one set but not the other.  Only
    the subsets of w's length and the length below are held, as int
    arrays; ``live`` is their member count once B_w is added.
    """
    datum = graph.datum
    below, level, length = {}, {(): array("i", [0])}, 0
    live = 1
    yield (), frozenset({0}), None, live
    for w in weyl_group(datum)[1:]:
        if len(w) > length:
            live -= sum(map(len, below.values()))
            below, level, length = level, {}, len(w)
        descents = iter(left_descents(datum, w).items())
        i, v = next(descents)  # w[0], the smallest left descent
        first = frozenset(_saturate(graph, below[v], i))
        level[w] = array("i", first)
        live += len(first)
        disagreement = None
        for j, v in descents:
            other = _saturate(graph, below[v], j)
            if disagreement is None and other != first:
                disagreement = ("left descents disagree", i, j, min(first ^ other))
        yield w, first, disagreement, live


def _character_levels(datum, lam):
    """Yield (w, D_w(e^lambda)) for every w in ``weyl_group`` order.

    The first letter i of a canonical word w is a left descent and w[1:] is
    the canonical word of s_i w, so D_w(e^lambda) = D_i(D_{s_i w}(e^lambda))
    equals ``apply_demazure_word(datum, w, e^lambda)``.  Only the
    characters of w's length and the length below are held.
    """
    group = weyl_group(datum)
    below, level, length = {}, {(): FormalCharacter.monomial(lam)}, 0
    yield (), level[()]
    for w in group[1:]:
        if len(w) > length:
            below, level, length = level, {}, len(w)
        level[w] = demazure_operator(datum, w[0], below[w[1:]])
        yield w, level[w]


def run_verify(job):
    """Run the whole combinatorial suite; returns (report rows, ok).

    Every Demazure subset and every Demazure character comes from one
    walk over the weak order that keeps two length levels alive
    (``demazure._subset_levels``, ``character._character_levels``).  Each
    B_w is checked as it is built, and each row keeps its first failure
    in ``weyl_group`` order.  ``--inject-failure`` corrupts B_{w0} for the
    string and filtration checks only.
    """
    datum = cartan_datum(job.type_name)
    indices = datum.indices()
    start = time.perf_counter()
    graph = generate_crystal(datum, job.weight, max_elements=job.max_elements)
    start = _phase("generation", start, f", {len(graph)} elements")

    normal = verify_normal(graph)
    start = _phase("normal-crystal-relations", start)

    for i in indices:
        error = demazure._partition_error(graph, i)
        if error:  # the i-edges do not partition the crystal
            raise RuntimeError(error)
    top_word = longest_word(datum)
    strings = filtration = independence = characters = None
    peak = 0
    walk = zip(_subset_levels(graph), _character_levels(datum, job.weight))
    for (w, members, disagreement, live), (_, chi) in walk:
        peak = max(peak, live)
        checked = members
        if job.inject_failure and w == top_word:
            checked = _corrupt(graph, members)
            log.info("injected a corrupted subset for %s", w)
        gather = demazure._gather(checked)
        for i in indices:
            (good, wit), (layered, layer_wit) = demazure._string_rule(graph, checked, i, gather)
            if strings is None and not good:
                strings = (w, wit)
            if filtration is None and not layered:
                filtration = (w, layer_wit)
        if independence is None and disagreement is not None:
            independence = (w, disagreement)
        if characters is None and char_of(members, graph) != chi:
            characters = (w, "character mismatch")
        top_char = chi  # w0 comes last
    start = _phase("weak-order walk", start, f", peak {peak} live member slots")

    rows = [("normal-crystal-relations", *normal),
            (f"string-property ({weyl_order(datum)} words x {datum.rank} indices)",
             strings is None, strings),
            ("filtration-structure", filtration is None, filtration),
            ("reduced-word-independence", independence is None, independence),
            ("demazure-character-formula", characters is None, characters)]

    freudenthal = weyl_character(datum, job.weight)
    crystal_char = char_of(graph.all_ids(), graph)
    ok = crystal_char == freudenthal == top_char
    rows.append(("weyl-character-agreement", ok, None if ok else "character mismatch"))
    start = _phase("weyl-character-agreement", start)

    dim = weyl_dimension(datum, job.weight)
    ok = len(graph) == dim
    rows.append(("weyl-dimension-agreement", ok,
                 None if ok else (len(graph), dim)))
    _phase("weyl-dimension-agreement", start)

    return rows, all(ok for _, ok, _ in rows)

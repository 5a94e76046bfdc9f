"""Test-only reference: the dict-keyed crystal graph and the all-levels verify pass.

This is how qcrystal stored a crystal and ran ``verify`` before its graph
became columns indexed by element id and its weak-order walk kept two
length levels: a ``CrystalElement`` per element, the lowering edges in a
(b, i)-keyed dict with a parent dict beside it, every Demazure subset and
character held at once, and each string check counting partial strings on
its own.  The code below is that version, unchanged except that it reads
the path kernel from ``qcrystal.crystal`` and keeps the ``CrystalElement``
record here, since the library graph has none; ``records`` reads them off
a columnar graph, and ``CrystalElement.steps`` decodes its runs with
``fraction_kernel.grid_steps``.  Like the library graph, it has no
``Fraction`` path accessor.  ``char_of`` is kept here too, in its form
that called ``graph.weight`` per member, since the library's reads a
weight column.
On i-edges that are no partition it reports as the library does:
``_saturate`` is plain reachability, and ``run_verify`` fails the string
and filtration rows with the message of its ``i_strings`` instead of
raising.  Its strings are ``string_reference.IString`` records.
``test_dict_graph_reference.py`` diffs the library against it.  Do not
import it from ``src/``.
"""

import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

from qcrystal.character import (FormalCharacter, demazure_operator, weyl_character,
                                weyl_dimension)
from qcrystal.crystal import (DEFAULT_MAX_ELEMENTS, ResourceCapError,
                              _denominator, _lower, _lower_runs, _Orbit,
                              _reversed_runs, _run_heights, _string_data)
from qcrystal.demazure import DemazureCrystal
from qcrystal.root_data import (_check_rank, cartan_datum, left_descents,
                                longest_word, weyl_group)
from fraction_kernel import grid_steps
from string_reference import IString

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class CrystalElement:
    """One crystal vertex: its path as ``runs`` over the ``orbit`` tables, and string data."""

    runs: tuple[int, ...]
    weight: tuple[int, ...]
    eps: tuple[int, ...]
    phi: tuple[int, ...]
    orbit: _Orbit = field(repr=False, compare=False)

    @property
    def steps(self):
        return grid_steps(self.orbit, self.runs)


def char_of(members, graph):
    """Character of a subset of crystal elements, one ``graph.weight`` call per member."""
    return FormalCharacter(Counter(map(graph.weight, members)))


def records(graph):
    """The ``CrystalElement`` records of a columnar ``qcrystal`` graph."""
    return [CrystalElement(*row, graph.orbit) for row in zip(
        graph.runs, graph.weight_of, graph.eps_of, graph.phi_of)]


class CrystalGraph:
    """B(lambda): elements indexed 0..n-1 with i-labeled lowering edges.

    Element 0 is the highest-weight element.  Ids follow breadth-first
    level order (level = height of lambda minus the weight), ties broken
    by the canonical path encoding, so ids are stable across runs.  Paths
    are stored as (orbit index, length) pairs whose lengths sum to
    ``denominator``, the lcm of the pairings <lambda, beta^vee>.
    """

    def __init__(self, datum, highest_weight, elements, edges, denominator):
        self.datum = datum
        self.highest_weight = tuple(highest_weight)
        self.elements = elements
        self.edges = edges
        self.denominator = denominator
        self._parents = {(child, i): b for (b, i), child in edges.items()}
        self._string_index = {}  # i -> i-string index, filled by demazure.string_index

    def __len__(self):
        return len(self.elements)

    def indices(self):
        return self.datum.indices()

    def f(self, b, i):
        """Id of f_tilde_i(b), or None."""
        return self.edges.get((b, i))

    def e(self, b, i):
        """Id of e_tilde_i(b), or None."""
        return self._parents.get((b, i))

    def eps(self, b, i):
        return self.elements[b].eps[i - 1]

    def phi(self, b, i):
        return self.elements[b].phi[i - 1]

    def weight(self, b):
        return self.elements[b].weight

    def all_ids(self):
        return range(len(self.elements))


def generate_crystal(datum, lam, max_elements=DEFAULT_MAX_ELEMENTS):
    """Breadth-first closure of the straight path under all f_tilde.

    Refuses up front when the Weyl dimension exceeds ``max_elements``
    (and again during generation, in case the two ever disagree).  Each
    element's weight, eps and phi are read off the same height functions
    that its lowering uses.
    """
    lam = tuple(lam)
    projected = weyl_dimension(datum, lam)
    if projected > max_elements:
        raise ResourceCapError(
            f"B({lam}) for {datum.name} has {projected} elements, "
            f"above the cap of {max_elements}")
    denom, orbit = _denominator(datum, lam), _Orbit(datum, lam)
    rows = list(zip(datum.indices(), orbit.pair, orbit.refl))
    run = cache(orbit.run)  # decoded runs, for this call's level order only
    top = (0, denom) if any(lam) else ()  # the straight path to lam
    paths, ids = [top], {top: 0}
    elements = []
    edges: dict[tuple[int, int], int] = {}
    frontier = [0]
    while frontier:
        pending = set()
        hits: list[tuple[int, int, tuple]] = []
        for b in frontier:
            path = paths[b]
            data = []
            for i, pair, refl in rows:
                h, m = _run_heights(pair, denom, path)
                data.append(_string_data(denom, h, m))
                child = _lower_runs(pair, refl, denom, path, h, m)
                if child is None:
                    continue
                hits.append((b, i, child))
                if child not in ids:
                    pending.add(child)
            weight, eps, phi = zip(*data)
            elements.append(CrystalElement(path, weight, eps, phi, orbit))
        frontier = []
        # a level is ordered by its decoded scaled steps, as ids always were
        for key in sorted(pending, key=lambda p: tuple(map(run, p[::2], p[1::2]))):
            ids[key] = len(paths)
            paths.append(key)
            frontier.append(ids[key])
        if len(paths) > max_elements:
            raise ResourceCapError(f"crystal generation passed {max_elements} elements")
        for b, i, key in hits:
            edges[(b, i)] = ids[key]
    return CrystalGraph(datum, lam, elements, edges, denom)


def verify_normal(graph):
    """Check the normal-crystal bookkeeping on the whole graph.

    Per element: weight coordinate i equals phi_i - eps_i.  Per lowering
    edge: eps goes up by one, phi down by one, and the raising operator
    inverts the edge at the path level.  Also checks that the unique
    source (all eps zero) is element 0 with the highest weight, and that
    an edge exists exactly where phi is positive.  Returns (ok, witness).
    """
    elements, edges, parents = graph.elements, graph.edges, graph._parents
    sources = [b for b, el in enumerate(elements) if not any(el.eps)]
    if sources != [0] or elements[0].weight != graph.highest_weight:
        return False, ("highest-weight element", sources)
    for b, el in enumerate(elements):
        for i, wt, eps, phi in zip(graph.indices(), el.weight, el.eps, el.phi):
            if wt != phi - eps:
                return False, ("weight vs phi-eps", b, i)
            if ((b, i) in edges) != (phi > 0):
                return False, ("edge map vs phi", b, i)
            if ((b, i) in parents) != (eps > 0):
                return False, ("parent map vs eps", b, i)
    orbit, denom = elements[0].orbit, graph.denominator
    # raising is lowering conjugated by reversal: reverse each path once
    reversed_runs = [_reversed_runs(el.runs) for el in elements]
    for (b, i), child in edges.items():
        i0, top, low = i - 1, elements[b], elements[child]
        if low.eps[i0] != top.eps[i0] + 1:
            return False, ("eps along edge", b, i, child)
        if low.phi[i0] != top.phi[i0] - 1:
            return False, ("phi along edge", b, i, child)
        if _lower(orbit.neg[i0], orbit.refl[i0], denom, reversed_runs[child]) != reversed_runs[b]:
            return False, ("raising does not invert lowering", b, i, child)
    return True, None


def _endless_string(graph, b, i):
    return RuntimeError(f"the {i}-string below element {b} does not end within "
                        f"{len(graph)} steps: the {i}-edges contain a cycle")


def _saturate(graph, members, i):
    """members and every f_tilde_i chain below them: their reachability closure.

    A walk stops at the first element already in the closure, so every walk
    ends, on any i-edges.
    """
    out = set(members)
    for b in members:
        child = graph.f(b, i)
        while child is not None and child not in out:
            out.add(child)
            child = graph.f(child, i)
    return out


def demazure_subsets(graph):
    """Every B_w(lambda) in one pass over the weak order, by increasing length.

    Returns (subsets, witness).  ``subsets`` maps each canonical word w (in
    ``weyl_group`` order) to its DemazureCrystal, built as the f_tilde_i
    closure of B_{s_i w} for the first letter i of w, which is the subset
    ``demazure_crystal(graph, w)`` cuts.  The closure is also taken for
    every other left descent j of w; ``witness`` is None when all of them
    agree, else ``(w, ("left descents disagree", i, j, b))`` for the first
    such w, with b the smallest element id in one set but not the other.
    """
    members = {(): frozenset({0})}
    witness = None
    for w in weyl_group(graph.datum)[1:]:
        found = {i: frozenset(_saturate(graph, members[v], i))
                 for i, v in left_descents(graph.datum, w).items()}
        first = found[w[0]]
        for j, other in found.items():
            if witness is None and other != first:
                witness = (w, ("left descents disagree", w[0], j, min(first ^ other)))
        members[w] = first
    return {w: DemazureCrystal(graph, w, m) for w, m in members.items()}, witness


def i_strings(graph, i):
    """Partition of the crystal into i-strings, in order of their tops.

    Raises RuntimeError when the strings' lengths do not add up to the size
    of the crystal, when an element lies in two strings, or when a string
    walk finds a cycle: then the i-edges are not those of a normal crystal.
    """
    strings, limit = [], len(graph)
    for b in graph.all_ids():
        if graph.eps(b, i) != 0:
            continue
        chain = [b]
        child = graph.f(b, i)
        while child is not None:
            if len(chain) > limit:
                raise _endless_string(graph, b, i)
            chain.append(child)
            child = graph.f(child, i)
        strings.append(IString(i=i, top=b, members=tuple(chain)))
    covered = sum(len(s.members) for s in strings)
    if covered != len(graph):
        raise RuntimeError(f"the {i}-strings cover {covered} element slots of "
                           f"{len(graph)}: the {i}-edges do not form a normal crystal")
    seen = set()
    for b in (m for s in strings for m in s.members):
        if b in seen:
            raise RuntimeError(f"element {b} lies in two {i}-strings: "
                               f"the {i}-edges do not form a normal crystal")
        seen.add(b)
    return strings


def string_index(graph, i):
    """(strings, where): ``i_strings(graph, i)`` and each element's string number.

    Computed once per (graph, i) and kept on the graph.
    """
    index = graph._string_index.get(i)
    if index is None:
        strings = i_strings(graph, i)
        where = [0] * len(graph)
        for n, s in enumerate(strings):
            for b in s.members:
                where[b] = n
        index = graph._string_index[i] = (strings, where)
    return index


def _partial_strings(dc, i):
    """(string, sorted hit) for each i-string dc meets but does not contain, in top order."""
    strings, where = string_index(dc.graph, i)
    members = dc.members
    count = Counter(map(where.__getitem__, members))
    for n in sorted(n for n, c in count.items() if c < len(strings[n].members)):
        s = strings[n]
        yield s, tuple(sorted(members.intersection(s.members)))


def verify_string_property(dc, i):
    """Each i-string meets the subset in itself, its top alone, or nothing."""
    for s, hit in _partial_strings(dc, i):
        if hit != (s.top,):
            return False, (i, s.top, hit)
    return True, None


def verify_filtration_structure(dc, i):
    """Each layer meets each i-string in the whole string or a dominant top.

    The singleton case must be the string's top and must carry i-weight
    l > 0; that is what makes the corresponding filtration quotient a
    dominant line rather than a truncated string.
    """
    graph = dc.graph
    for s, hit in _partial_strings(dc, i):
        if len(hit) == 1:
            (b,) = hit
            l = graph.eps(b, i) + graph.phi(b, i)
            if b == s.top and graph.weight(b)[i - 1] == l and l > 0:
                continue
            return False, ("bad singleton layer", i, b)
        return False, ("layer is a partial string", i, s.top, hit)
    return True, None


def demazure_characters(datum, lam):
    """D_w(e^lambda) for every w, memoized along the weak order.

    Keys are canonical words in ``weyl_group`` order.  The first letter i of
    a canonical word w is a left descent and w[1:] is the canonical word of
    s_i w, so D_w(e^lambda) = D_i(D_{s_i w}(e^lambda)) equals
    ``apply_demazure_word(datum, w, e^lambda)``.
    """
    _check_rank(datum, lam)
    group = weyl_group(datum)
    chars = {group[0]: FormalCharacter.monomial(lam)}
    for w in group[1:]:
        chars[w] = demazure_operator(datum, w[0], chars[w[1:]])
    return chars


def _corrupt(dc):
    """Drop the top of the first i-string (lowest i, then top) met in its top and child.

    The string then meets the subset below its top alone, so the string
    property must fail.
    """
    for i in dc.graph.indices():
        for s in string_index(dc.graph, i)[0]:
            if s.length >= 1 and s.top in dc.members and s.members[1] in dc.members:
                return DemazureCrystal(dc.graph, dc.word, dc.members - {s.top})
    raise RuntimeError("no string long enough to corrupt")


def _partition_error(graph):
    """None when ``i_strings`` accepts every index, else the message it refuses with."""
    for i in graph.indices():
        try:
            string_index(graph, i)
        except RuntimeError as exc:
            return str(exc)
    return None


def _first_failure(subsets, check, indices):
    """(True, None), or (False, (w, witness)) for the first failing (w, i)."""
    for w, dc in subsets.items():
        for i in indices:
            good, wit = check(dc, i)
            if not good:
                return False, (w, wit)
    return True, None


def run_verify(job):
    """Run the whole combinatorial suite; returns (report rows, ok).

    Every Demazure subset and every Demazure character comes from one
    pass over the weak order (``demazure_subsets``, ``demazure_characters``).
    ``--inject-failure`` corrupts B_{w0} for the string and filtration
    checks only.  i-edges that ``i_strings`` refuses fail those two rows
    with its message.
    """
    datum = cartan_datum(job.type_name)
    graph = generate_crystal(datum, job.weight, max_elements=job.max_elements)
    subsets, independence = demazure_subsets(graph)
    broken = _partition_error(graph)
    checked = dict(subsets)
    if job.inject_failure and broken is None:
        top_word = longest_word(datum)
        checked[top_word] = _corrupt(checked[top_word])
        log.info("injected a corrupted subset for %s", top_word)

    rows = []

    ok, witness = verify_normal(graph)
    rows.append(("normal-crystal-relations", ok, witness))

    if broken is None:
        strings = _first_failure(checked, verify_string_property, datum.indices())
        layers = _first_failure(checked, verify_filtration_structure, datum.indices())
    else:
        strings = layers = False, broken
    rows.append((f"string-property ({len(subsets)} words x {datum.rank} indices)", *strings))
    rows.append(("filtration-structure", *layers))

    rows.append(("reduced-word-independence", independence is None, independence))

    chars = demazure_characters(datum, job.weight)
    ok, witness = True, None
    for w, dc in subsets.items():
        if char_of(dc.members, graph) != chars[w]:
            ok, witness = False, (w, "character mismatch")
            break
    rows.append(("demazure-character-formula", ok, witness))

    freudenthal = weyl_character(datum, job.weight)
    crystal_char = char_of(graph.all_ids(), graph)
    ok = crystal_char == freudenthal == chars[longest_word(datum)]
    rows.append(("weyl-character-agreement", ok, None if ok else "character mismatch"))

    dim = weyl_dimension(datum, job.weight)
    ok = len(graph) == dim
    rows.append(("weyl-dimension-agreement", ok,
                 None if ok else (len(graph), dim)))

    return rows, all(ok for _, ok, _ in rows)

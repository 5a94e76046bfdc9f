"""Demazure subsets B_w(lambda) and the i-string rule that checks them.

The subset attached to a reduced word is grown from the highest-weight
element by saturating letters right to left: for word (i_1, ..., i_n) the
last letter i_n is saturated first and i_1 last, matching the recursion
B_w = (closure under f_tilde_{i_1}) of B_{s_{i_1} w}.  Worked A2 example,
lambda = (1, 1):

    word (1,)    -> {b0, f1 b0}                 (phi_1(b0) = 1)
    word (1, 2)  -> f1-saturation of {b0, f2 b0}

so (1, 2) first saturates letter 2, then letter 1.

``demazure_crystal`` follows one word.  B_w depends only on w(lambda), so
every B_w(lambda) comes from ``root_data._orbit_walk`` over the orbit W.lambda
(at most |B(lambda)| points), with saturation as its step: the f_tilde_i
closure of B_{s_i w}, computed for every left descent i of the shortest w
reaching each point.  B_w must also be f_tilde_j closed where s_j fixes
w(lambda), which stands in for the descents of longer words with that
point.  Disagreements are reported; when none occur, by induction on
length every reduced word of every w cuts the same subset, so reduced-word
independence is checked exactly, for every type, without enumerating them.
The walk keeps two length levels of subsets alive, as int arrays, and
``verify`` checks each B_w as it is built.

An i-string is stored once, in the graph's i-th child and parent
columns; ``_partition_error`` decides whether the i-edges partition the
crystal.  Once they do, one local rule, ``_string_rule``, reads the string
and filtration verdicts of a subset off the columns (Kashiwara's string
property: each i-string meets B_w in itself, its top alone, or not at all).
"""

import operator
from array import array
from dataclasses import dataclass

from .root_data import _check_index, _check_rank, _orbit_walk, is_reduced, reflect


@dataclass(frozen=True)
class DemazureCrystal:
    """A reduced word together with the subset of the ambient crystal it cuts out."""

    graph: object
    word: tuple[int, ...]
    members: frozenset[int]

    def __len__(self):
        return len(self.members)


def _saturate(graph, members, i):
    """members and every f_tilde_i chain below them: their reachability closure.

    A walk stops at the first element already in the closure, a member whose
    own walk covers what lies below it or an element an earlier walk went on
    from.  So each element is visited about once, and every walk ends, on any
    i-edges.
    """
    out = set(members)
    column = graph.children[i - 1]
    for b in members:
        child = column[b]
        while child >= 0 and child not in out:
            out.add(child)
            child = column[child]
    return out


def demazure_crystal(graph, word):
    """B_w(lambda) for a reduced word, by f_tilde saturation right to left."""
    word = tuple(word)
    if not is_reduced(graph.datum, word):
        raise ValueError(f"word {word} is not reduced")
    members = {0}
    for i in reversed(word):
        members = _saturate(graph, members, i)
    return DemazureCrystal(graph, word, frozenset(members))


def _subset_levels(graph, words, order):
    """Yield (o, w, members, disagreement, live) for each point o of W.lambda.

    ``root_data._orbit_walk`` over ``words, order = _coset_words(graph.orbit)``
    yields ``members``, B_w(lambda).  For each other left descent j it must
    equal the f_tilde_j closure of B(refl[j - 1][o]), and for each j fixing
    the point its own; ``disagreement`` is ``("left descents disagree", w[0],
    j, b)`` for the first j where it does not, b the least id in one set
    only, else None.  ``live`` counts the members of the walk's two levels.
    """
    orbit, live = graph.orbit, {}  # member count per length
    grow = lambda i, prev: array("i", _saturate(graph, prev, i))
    for o, w, members, below in _orbit_walk(orbit, words, order, array("i", [0]), grow):
        live[len(w)] = live.get(len(w), 0) + len(members)
        first = frozenset(members)
        disagreement = None
        for j, (row, pair) in enumerate(zip(orbit.refl, orbit.pair), 1):
            if o and j != w[0] and pair[o] <= 0:  # another left descent, or s_j fixes the point
                other = _saturate(graph, below[row[o]] if pair[o] < 0 else first, j)
                if disagreement is None and other != first:
                    disagreement = ("left descents disagree", w[0], j, min(first ^ other))
        yield o, w, first, disagreement, live[len(w)] + live.get(len(w) - 1, 0)


def extremal_weights(datum, lam, word):
    """The reflection ladder lambda, s_{i_n} lambda, ..., w lambda.

    Returns a list of (weight, m) pairs where m is how many lowering steps
    f_tilde_i^(m) connect consecutive extremal elements, i.e. the pairing
    <h_i, previous weight>.  The first entry is (lambda, None).  A negative
    pairing cannot occur along a reduced word processed right to left, so
    one is reported as an error.
    """
    lam = _check_rank(datum, lam)
    ladder = [(lam, None)]
    current = lam
    for i in reversed(tuple(word)):
        _check_index(datum, i)
        m = current[i - 1]
        if m < 0:
            raise ValueError(
                f"negative lowering count {m} at letter {i}: word {tuple(word)} "
                "is not reduced (or not processed in recursion order)")
        current = reflect(datum, i, current)
        ladder.append((current, m))
    return ladder


def extremal_element(graph, word):
    """Id of the unique element of weight w(lambda) inside B_w(lambda)."""
    datum = graph.datum
    ladder = extremal_weights(datum, graph.highest_weight, word)
    b = 0
    for step, (_, m) in zip(reversed(tuple(word)), ladder[1:]):
        column = graph.children[step - 1]
        for _ in range(m):
            b = column[b]
            if b < 0:
                raise RuntimeError("lowering string ended before the extremal weight")
    if graph.weight_of[b] != ladder[-1][0]:
        raise RuntimeError("extremal element has the wrong weight")
    return b


def _partition_error(graph, i):
    """None when the i-edges partition the crystal into strings, else why not.

    One pass down the i-th child column from each top (eps_i = 0) marks what it
    meets; it reports an endless walk first, then the cover count, then overlap.
    It is the one judge of whether the i-edges form finite strings: saturation
    is plain reachability and ends on any i-edges.
    """
    _check_index(graph.datum, i)
    limit, i0, column = len(graph), i - 1, graph.children[i - 1]
    seen, covered, twice = bytearray(limit), 0, None
    for top in (b for b, eps in enumerate(graph.eps_of) if eps[i0] == 0):
        b, steps = top, 0  # steps taken to reach b
        while b >= 0:
            if steps > limit:
                return (f"the {i}-string below element {top} does not end within "
                        f"{limit} steps: the {i}-edges contain a cycle")
            if seen[b] and twice is None:
                twice = b
            seen[b] = 1
            b, steps = column[b], steps + 1
        covered += steps
    if covered != limit:
        reason = f"the {i}-strings cover {covered} element slots of {limit}"
    elif twice is not None:
        reason = f"element {twice} lies in two {i}-strings"
    else:
        return None
    return f"{reason}: the {i}-edges do not form a normal crystal"


def _gather(members):
    """A function reading the entries of ``members`` from a column as one tuple, in C.

    ``operator.itemgetter(*members)``, except that one member still gives
    a 1-tuple and no member an empty one.  One gather serves every column
    a subset is checked on: the child and parent columns of each index
    (``_string_rule``) and the weights (``character.char_of``).
    """
    if len(members) > 1:
        return operator.itemgetter(*members)
    if members:
        (b,) = members
        return lambda column: (column[b],)
    return lambda column: ()


def _string_rule(graph, members, i, gather):
    """(string verdict, filtration verdict) of the subset ``members`` for index i.

    The strings are read off the i-th child and parent columns, which needs
    ``_partition_error(graph, i)`` to have accepted the i-edges as a partition:
    then a string's top is its one element with no parent.  The subset
    breaks a string where a member's parent lies outside it, or where a
    member below the top has its child outside it.  The filtration also
    fails on a string met at its top alone unless that top is dominant.
    Each witness comes from the smallest failing top.  ``gather``,
    ``_gather(members)``, reads the members' children and parents in C; a
    caller checking one subset on every index builds it once.
    """
    i0 = i - 1
    down, up = graph.children[i0], graph.parents[i0]
    below = set(gather(down)).difference(members, (-1,))
    heads = set(map(up.__getitem__, below))  # members whose child lies outside
    # on broken strings: parents outside, and members below a top with a child outside
    broken = set(gather(up)).difference(members, (-1,))
    broken.update(b for b in heads if up[b] >= 0)
    tops = set()
    for b in broken:
        while up[b] >= 0:
            b = up[b]
        tops.add(b)
    string = filtration = True, None
    if tops:
        top = min(tops)
        hit = tuple(sorted(members.intersection(_saturate(graph, (top,), i))))
        string = False, (i, top, hit)
        filtration = False, (("bad singleton layer", i, *hit) if len(hit) == 1
                             else ("layer is a partial string", i, top, hit))
    wt, eps, phi = graph.weight_of, graph.eps_of, graph.phi_of
    lone = [b for b in heads - broken  # tops with a child outside, not dominant
            if not wt[b][i0] == eps[b][i0] + phi[b][i0] > 0]
    if lone and (not tops or min(lone) < min(tops)):
        filtration = False, ("bad singleton layer", i, min(lone))
    return string, filtration

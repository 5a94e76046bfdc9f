"""Demazure subsets B_w(lambda), i-strings and W-filtration layers.

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
The walk keeps two length levels of subsets alive, as int arrays; ``verify``
checks each B_w as it is built, and ``demazure_subsets`` keeps them all.

An i-string is stored once, in the graph's i-th child and parent
columns; ``_partition_error`` decides whether the i-edges partition the
crystal.  Once they do, one local rule reads the string and filtration
verdicts of a subset off the columns (``verify_strings``), and saturation
and string walks read the child columns directly.
"""

import operator
from array import array
from dataclasses import dataclass

from .root_data import (_check_index, _check_rank, _coset_words, _orbit_walk,
                        all_reduced_words, apply_word, canonical_word,
                        is_reduced, left_descents, reflect, weyl_group)


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


def demazure_subsets(graph):
    """Every B_w(lambda) from one pass over the orbit W.lambda.

    Returns (subsets, witness).  ``subsets`` maps each canonical word w (in
    ``weyl_group`` order) to the DemazureCrystal of its point w(lambda),
    the subset ``demazure_crystal(graph, w)`` cuts.  ``witness`` is None
    when the walk's comparisons all agree, else the first point's
    ``(w, ("left descents disagree", i, j, b))`` (see ``_subset_levels``).
    """
    points, witness = {}, None
    for o, w, members, disagreement, _ in _subset_levels(graph, *_coset_words(graph.orbit)):
        points[o] = members
        if witness is None and disagreement is not None:
            witness = (w, disagreement)
    index, lam = graph.orbit.index, graph.highest_weight
    return {w: DemazureCrystal(graph, w, points[index[apply_word(graph.datum, w, lam)]])
            for w in weyl_group(graph.datum)}, witness


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
        for _ in range(m):
            b = graph.f(b, step)
            if b is None:
                raise RuntimeError("lowering string ended before the extremal weight")
    if graph.weight(b) != ladder[-1][0]:
        raise RuntimeError("extremal element has the wrong weight")
    return b


def reduced_word_independence(graph, word):
    """Check that every reduced word of the element cuts the same subset."""
    words = all_reduced_words(graph.datum, word)
    reference = demazure_crystal(graph, words[0]).members
    for other in words[1:]:
        members = demazure_crystal(graph, other).members
        if members != reference:
            return False, (words[0], other)
    return True, None


@dataclass(frozen=True, slots=True)
class IString:
    """A maximal f_tilde_i chain: top has eps_i = 0, length equals phi_i(top)."""

    i: int
    top: int
    members: tuple[int, ...]

    @property
    def length(self):
        return len(self.members) - 1


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


def i_strings(graph, i):
    """The i-strings, in order of their tops; RuntimeError unless ``_partition_error`` passes."""
    error = _partition_error(graph, i)
    if error:
        raise RuntimeError(error)
    strings, column = [], graph.children[i - 1]
    for b, eps in enumerate(graph.eps_of):
        if eps[i - 1] == 0:
            chain = [b]
            while column[chain[-1]] >= 0:
                chain.append(column[chain[-1]])
            strings.append(IString(i=i, top=b, members=tuple(chain)))
    return strings


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


def verify_strings(dc, i):
    """(verify_string_property(dc, i), verify_filtration_structure(dc, i)) by one rule.

    Raises RuntimeError with ``_partition_error``'s message on a non-partition.
    """
    error = _partition_error(dc.graph, i)
    if error:
        raise RuntimeError(error)
    return _string_rule(dc.graph, dc.members, i, _gather(dc.members))


def verify_string_property(dc, i):
    """Each i-string meets the subset in itself, its top alone, or nothing."""
    return verify_strings(dc, i)[0]


def filtration_layers(dc, i):
    """Members split by string length l = eps_i + phi_i (constant on strings)."""
    graph, i0 = dc.graph, i - 1
    _check_index(graph.datum, i)
    layers: dict[int, set[int]] = {}
    for b in dc.members:
        l = graph.eps_of[b][i0] + graph.phi_of[b][i0]
        layers.setdefault(l, set()).add(b)
    return {l: frozenset(v) for l, v in sorted(layers.items())}


def verify_filtration_structure(dc, i):
    """Each layer meets each i-string in the whole string or a dominant top.

    The singleton case must be the string's top and must carry i-weight
    l > 0; that is what makes the corresponding filtration quotient a
    dominant line rather than a truncated string.
    """
    return verify_strings(dc, i)[1]


def quotient_strings(big, small, i):
    """Difference of a covering pair B_w over B_{sw}, s the letter i.

    Requires big to be the f_tilde_i saturation step over small, i.e.
    the elements satisfy w = s_i * (sw) with the length going up.  The
    difference must be a disjoint union of i-strings each missing exactly
    its top, the top sitting in the smaller subset.  Returns the
    difference and a witness (None when the structure holds).
    """
    if big.graph is not small.graph:
        raise ValueError("subsets live in different crystals")
    datum = big.graph.datum
    below = canonical_word(datum, small.word)
    if canonical_word(datum, big.word) == below:
        return frozenset(), None  # degenerate pair, empty difference
    if left_descents(datum, big.word).get(i) != below:
        raise ValueError(
            f"words {big.word} / {small.word} are not a covering pair for letter {i}")
    diff = big.members - small.members
    for s in i_strings(big.graph, i):
        hit = diff.intersection(s.members)
        if not hit:
            continue
        if hit == set(s.members[1:]) and s.top in small.members:
            continue
        return diff, (i, s.top, tuple(sorted(hit)))
    return diff, None

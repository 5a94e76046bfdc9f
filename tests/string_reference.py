"""Reference string checks: the i-strings as lists, one set intersection each.

``demazure._string_rule`` reads a subset's string and filtration verdicts
off the crystal's child and parent columns with one local rule, once
``demazure._partition_error`` accepts the i-edges.  The forms below list
each i-string as an ``IString`` by walking the child column
``graph.children[i - 1]`` down from its top, and intersect it with the
subset: ``string_property`` and ``filtration_structure`` are the two
verdicts, and ``quotient_strings`` checks a covering pair B_w over
B_{s_i w}.  Kept for the differential tests only.  Do not import it from
``src/``.
"""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class IString:
    """A maximal f_tilde_i chain: top has eps_i = 0, length equals phi_i(top)."""

    i: int
    top: int
    members: tuple[int, ...]

    @property
    def length(self):
        return len(self.members) - 1


def i_strings(graph, i):
    """The i-strings, in order of their tops.

    Raises RuntimeError unless they partition the crystal: a walk longer
    than the crystal, or strings that miss or share an element.
    """
    strings, column = [], graph.children[i - 1]
    for top in graph.all_ids():
        if graph.eps_of[top][i - 1] != 0:
            continue
        chain = [top]
        while (child := column[chain[-1]]) >= 0:
            if len(chain) > len(graph):
                raise RuntimeError(f"the {i}-string below element {top} does not end")
            chain.append(child)
        strings.append(IString(i=i, top=top, members=tuple(chain)))
    if sorted(b for s in strings for b in s.members) != list(graph.all_ids()):
        raise RuntimeError(f"the {i}-strings do not partition the crystal")
    return strings


def string_property(graph, members, i):
    """Each i-string meets the subset ``members`` in itself, its top alone, or nothing."""
    for s in i_strings(graph, i):
        hit = members.intersection(s.members)
        if hit == set(s.members) or not hit or hit == {s.top}:
            continue
        return False, (i, s.top, tuple(sorted(hit)))
    return True, None


def filtration_structure(graph, members, i):
    """Each layer ``members`` meets each i-string in the whole string or a dominant top."""
    for s in i_strings(graph, i):
        hit = members.intersection(s.members)
        if not hit or hit == set(s.members):
            continue
        if len(hit) == 1:
            (b,) = hit
            l = graph.eps_of[b][i - 1] + graph.phi_of[b][i - 1]
            if b == s.top and graph.weight_of[b][i - 1] == l and l > 0:
                continue
            return False, ("bad singleton layer", i, b)
        return False, ("layer is a partial string", i, s.top, tuple(sorted(hit)))
    return True, None


def quotient_strings(graph, big, small, i):
    """(big minus small, witness) for a covering pair B_w over B_{s_i w}, as sets of ids.

    The difference must be a disjoint union of i-strings each missing
    exactly its top, the top lying in ``small``; the witness is None when
    it is, else (i, top, hit) for the first string, by top, that is not.
    The caller vouches that the pair covers along the letter i.
    """
    diff = big - small
    for s in i_strings(graph, i):
        hit = diff.intersection(s.members)
        if hit and not (hit == set(s.members[1:]) and s.top in small):
            return diff, (i, s.top, tuple(sorted(hit)))
    return diff, None

"""Reference string checks: one set intersection per i-string.

These are the straightforward forms of ``verify_string_property`` and
``verify_filtration_structure``, which instead read the subset's strings
off the crystal's child and parent columns with one local rule.  Kept for
the differential tests only.
"""

from qcrystal.demazure import i_strings


def string_property(dc, i):
    """Each i-string meets the subset in itself, its top alone, or nothing."""
    for s in i_strings(dc.graph, i):
        hit = dc.members.intersection(s.members)
        if hit == set(s.members) or not hit or hit == {s.top}:
            continue
        return False, (i, s.top, tuple(sorted(hit)))
    return True, None


def filtration_structure(dc, i):
    """Each layer meets each i-string in the whole string or a dominant top."""
    graph = dc.graph
    for s in i_strings(graph, i):
        hit = dc.members.intersection(s.members)
        if not hit or hit == set(s.members):
            continue
        if len(hit) == 1:
            (b,) = hit
            l = graph.eps(b, i) + graph.phi(b, i)
            if b == s.top and graph.weight(b)[i - 1] == l and l > 0:
                continue
            return False, ("bad singleton layer", i, b)
        return False, ("layer is a partial string", i, s.top, tuple(sorted(hit)))
    return True, None

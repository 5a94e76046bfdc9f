"""Test-only reference: the Weyl-group searches qcrystal used before ``_Orbit``.

Before ``root_data`` read the Weyl group off ``_Orbit`` (the breadth-first
orbit of rho and its reflection table) and each word query off its one
point w(rho), it ran two searches of its own: a level-by-level search of
rho's orbit keeping the least candidate word per element, and a
depth-first search for ``weyl_orbit``.  Both, and the word functions on top
of them, are kept here as written then, acting through ``reflect`` and
``apply_word`` only, so the differential tests in ``test_weyl_table.py``
share no orbit search and no descent rule with the code they check.
``all_reduced_words`` lists every reduced word of an element off the same
table; the tests read it to run a check over each word of an element.  Do
not import it from ``src/``.
"""

from functools import lru_cache

from qcrystal.root_data import apply_word, reflect, rho


@lru_cache(maxsize=None)
def element_table(datum):
    """Map w(rho) -> lexicographically smallest reduced word for w.

    Built breadth-first by length; a new element's canonical word is the
    minimum of (i,) + canonical(s_i w) over its left descents, which the
    level order makes available in time.
    """
    table = {rho(datum): ()}
    level = {rho(datum): ()}
    while level:
        nxt = {}
        for key, word in level.items():
            for i in datum.indices():
                new_key = reflect(datum, i, key)
                if new_key in table:
                    continue
                cand = (i,) + word
                if new_key not in nxt or cand < nxt[new_key]:
                    nxt[new_key] = cand
        table.update(nxt)
        level = nxt
    return table


def element_key(datum, word):
    return apply_word(datum, word, rho(datum))


def canonical_word(datum, word):
    return element_table(datum)[element_key(datum, word)]


def weyl_group(datum):
    return tuple(sorted(element_table(datum).values(), key=lambda w: (len(w), w)))


def weyl_order(datum):
    return len(element_table(datum))


def longest_word(datum):
    return max(element_table(datum).values(), key=lambda w: (len(w), w))


def left_descents(datum, word):
    """{i: canonical word of s_i w} over the i with length(s_i w) < length(w)."""
    table = element_table(datum)
    key = element_key(datum, word)
    n = len(table[key])
    out = {}
    for i in datum.indices():
        down = table[reflect(datum, i, key)]
        if len(down) < n:
            out[i] = down
    return out


def all_reduced_words(datum, word):
    """Every reduced word of the element of ``word``, sorted.

    The words of w are (i,) + each word of s_i w over the left descents i
    of w, read off the element table by length, memoized by w(rho).
    """
    table, memo = element_table(datum), {rho(datum): ((),)}

    def rec(key):
        if key not in memo:
            n = len(table[key])
            down = [reflect(datum, i, key) for i in datum.indices()]
            memo[key] = tuple(sorted((i,) + u for i, v in enumerate(down, 1)
                                     if len(table[v]) < n for u in rec(v)))
        return memo[key]

    return rec(element_key(datum, word))


def weyl_orbit(datum, mu):
    """The Weyl orbit of a weight by depth-first search, as a set."""
    orbit = {tuple(mu)}
    frontier = [tuple(mu)]
    while frontier:
        nu = frontier.pop()
        for i in datum.indices():
            image = reflect(datum, i, nu)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit

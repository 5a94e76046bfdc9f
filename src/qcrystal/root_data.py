"""Finite-type root systems and Weyl groups.

Cartan matrices follow the convention a[i][j] = <h_i, alpha_j>, so the j-th
column of the matrix is the simple root alpha_j written in fundamental-weight
coordinates.  Weights are plain tuples of ints in those coordinates; simple
reflections, reduced words, dominance order, positive roots and their
coroots are all computed with exact integer or rational arithmetic.

An element w of the Weyl group W is known by its point w(rho), rho being
regular, and one descent rule reads words off points: s_i shortens w exactly
when <w(rho), h_i> < 0 (``_descent``; Humphreys, Reflection Groups and
Coxeter Groups, 1990, 1.6-1.7).  ``is_reduced`` applies it along its word's
walk from rho, ``longest_word`` at w_0(rho) = -rho.  Only ``weyl_group``,
whose job is to list W, searches the orbit of rho.  ``_Orbit`` is that
breadth-first search, the one Weyl-orbit search of weights in the package
(``positive_roots`` closes the simple roots on its own); the path kernel,
``weyl_orbit`` and ``_orbit_walk``, the one walk over W.lambda, read it too.

Supported types: A1..A4, B2, B3, C3, D4, G2, each written out with its
symmetrizers in the one literal table ``_TYPES``; ``CartanDatum`` checks
every entry when it is first looked up.  G2 is oriented so that
a[1][2] = -3 (alpha_1 short, alpha_2 long); the fundamental weight omega_1
then carries the 7-dimensional representation.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

# name -> (Cartan matrix rows, symmetrizers d with d_i a_ij = d_j a_ji)
_TYPES = {
    "A1": (((2,),), (1,)),
    "A2": (((2, -1), (-1, 2)), (1, 1)),
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1, 1, 1)),
    "A4": (((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)), (1, 1, 1, 1)),
    "B2": (((2, -1), (-2, 2)), (2, 1)),
    "B3": (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), (2, 2, 1)),
    "C3": (((2, -1, 0), (-1, 2, -2), (0, -1, 2)), (1, 1, 2)),
    "D4": (((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)), (1, 1, 1, 1)),
    "G2": (((2, -3), (-1, 2)), (1, 3)),
}


@dataclass(frozen=True)
class CartanDatum:
    """Cartan matrix plus symmetrizers for one finite-type root system."""

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    sym: tuple[int, ...]

    def __post_init__(self):
        n = self.rank
        a = self.cartan
        if len(a) != n or any(len(row) != n for row in a):
            raise ValueError("Cartan matrix shape does not match rank")
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError("diagonal Cartan entries must equal 2")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise ValueError("zero pattern of Cartan matrix must be symmetric")
        if len(self.sym) != n or any(d <= 0 for d in self.sym):
            raise ValueError("symmetrizers must be positive")
        for i in range(n):
            for j in range(n):
                if self.sym[i] * a[i][j] != self.sym[j] * a[j][i]:
                    raise ValueError("sym does not symmetrize the Cartan matrix")
        sym_matrix = [[self.sym[i] * a[i][j] for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            if _det([row[:k] for row in sym_matrix[:k]]) <= 0:
                raise ValueError("symmetrized Cartan matrix is not positive definite")

    @property
    def name(self):
        return f"{self.family}{self.rank}"

    def indices(self):
        """Simple-root indices 1..rank."""
        return range(1, self.rank + 1)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


@lru_cache(maxsize=None)
def cartan_datum(name):
    """Look up a supported type by name, e.g. ``cartan_datum("B2")``."""
    name = name.strip().upper()
    digits = name[1:]
    # isdigit alone admits digits that int() refuses ('²') or reads ('٣')
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"cannot parse type name {name!r} (expected e.g. 'A2')")
    family, rank = name[0], int(digits)
    entry = _TYPES.get(f"{family}{rank}")
    if entry is None:
        raise ValueError(f"type {name} is outside the supported table ({', '.join(_TYPES)})")
    return CartanDatum(family, rank, *entry)


def _check_index(datum, i):
    if not 1 <= i <= datum.rank:
        raise IndexError(f"simple-root index {i} out of range 1..{datum.rank}")


def simple_root(datum, i):
    """alpha_i in fundamental-weight coordinates: the i-th Cartan column."""
    _check_index(datum, i)
    return tuple(datum.cartan[j][i - 1] for j in range(datum.rank))


def _step(datum, i, mu):
    """s_i(mu) for a checked index i and weight mu: alpha_i is column i of the Cartan matrix."""
    c = mu[i - 1]
    return tuple([m - c * row[i - 1] for m, row in zip(mu, datum.cartan)]) if c else tuple(mu)


def reflect(datum, i, mu):
    """Simple reflection s_i(mu) = mu - <h_i, mu> alpha_i."""
    _check_index(datum, i)
    _check_length(datum, mu)
    return _step(datum, i, mu)


def apply_word(datum, word, mu):
    """Act by s_{i_1} ... s_{i_k} on mu, rightmost letter first.

    The weight is checked once, and each letter once as it is applied.
    """
    _check_length(datum, mu)
    for i in reversed(word):
        _check_index(datum, i)
        mu = _step(datum, i, mu)
    return mu


def rho(datum):
    """The Weyl vector: all fundamental-weight coordinates equal to 1."""
    return (1,) * datum.rank


def is_dominant(mu):
    return all(c >= 0 for c in mu)


def _check_length(datum, mu):
    """A weight has rank-many coordinates."""
    if len(mu) != datum.rank:
        raise ValueError(f"weight length {len(mu)} does not match rank {datum.rank}")


def _check_ints(mu):
    """mu as a tuple of ints (anything with ``__index__``)."""
    mu = tuple(mu)
    for k, x in enumerate(mu, 1):
        try:
            operator.index(x)
        except TypeError:
            raise TypeError(f"weight coordinate {k} is {x!r}, not an int") from None
    return mu


def _check_rank(datum, lam):
    """lam as a tuple of rank-many ints."""
    lam = tuple(lam)
    _check_length(datum, lam)
    return _check_ints(lam)


def _check_dominant(datum, lam, subject):
    """lam as a checked tuple of rank-many ints >= 0; ``subject`` is e.g. "Freudenthal needs"."""
    lam = _check_rank(datum, lam)
    if not is_dominant(lam):
        raise ValueError(f"{subject} a dominant weight, got {lam}")
    return lam


class _Orbit:
    """The Weyl orbit of lambda, with the tables the pair kernel looks up.

    The one Weyl-orbit search of weights in the package: ``weyl_group`` and
    ``weyl_orbit`` read it as well.  Run k of a path (o_1, L_1, ...) is
    L_k * points[o_k], D times its true displacement, with heights scaled
    to match.  ``points`` is the orbit breadth-first from lambda under the
    simple reflections, ``index`` its inverse; for i0 = i - 1,
    ``refl[i0][o]`` indexes s_i(points[o]), ``pair[i0][o]`` =
    <points[o], h_i> and ``neg`` is ``pair`` negated.
    """

    __slots__ = ("points", "index", "refl", "pair", "neg")

    def __init__(self, datum, lam):
        points = [tuple(lam)]
        index = {points[0]: 0}
        refl = [[] for _ in datum.indices()]
        for mu in points:  # points grows behind the loop: breadth-first
            for i, row in enumerate(refl, 1):
                image = _step(datum, i, mu)
                if image not in index:
                    index[image] = len(points)
                    points.append(image)
                row.append(index[image])
        self.points, self.index, self.refl = points, index, refl
        self.pair = [list(col) for col in zip(*points)]
        self.neg = [[-x for x in row] for row in self.pair]

    def run(self, o, length):
        return tuple(length * x for x in self.points[o])


def _descent(mu):
    """The least i with <mu, h_i> < 0, or 0: at w(lambda), w shortest, w's least left descent."""
    return next((i for i, c in enumerate(mu, 1) if c < 0), 0)


def _coset_words(orbit):
    """(canonical word by point index, point indices in (length, word) order).

    Breadth-first order is length order of the shortest w with w(lambda) =
    points[o], and ``refl`` is left multiplication; the canonical word of w,
    the lexicographically least, is (i,) + words[refl[i - 1][o]] for its
    least left descent i, ``_descent(points[o])``.
    """
    words = [()]
    for o in range(1, len(orbit.points)):
        i = _descent(orbit.points[o])
        words.append((i,) + words[orbit.refl[i - 1][o]])
    return words, sorted(range(len(words)), key=lambda o: (len(words[o]), words[o]))


def _orbit_walk(orbit, words, order, top, grow):
    """Yield (o, w, value, below) per point o, in ``words, order = _coset_words(orbit)``.

    w = words[o].  The value is ``top`` at lambda, else ``grow(w[0], v)`` for the
    value v at the point of w[1:], refl[w[0] - 1][o].  ``below`` maps the points
    one length shorter than w to their values: only two levels are alive.
    """
    below, level, length = {}, {}, 0
    for o in order:
        w = words[o]
        if len(w) > length:
            below, level, length = level, {}, len(w)
        level[o] = value = grow(w[0], below[orbit.refl[w[0] - 1][o]]) if w else top
        yield o, w, value, below


@lru_cache(maxsize=None)
def weyl_group(datum):
    """All Weyl-group elements as canonical reduced words, sorted by length, off rho's orbit."""
    words, order = _coset_words(_Orbit(datum, rho(datum)))
    return tuple(words[o] for o in order)


def weyl_order(datum):
    """|W|, read off ``positive_roots`` with no Weyl-group table.

    By the Poincare identity sum_w q^l(w) = prod_{beta>0} [ht beta + 1]_q / [ht beta]_q
    at q = 1 (Macdonald, Math. Ann. 199 (1972)), ht beta the coefficient sum.
    """
    heights = [sum(root) for root in positive_roots(datum)]
    return prod(h + 1 for h in heights) // prod(heights)


def is_reduced(datum, word):
    """True iff no shorter word represents the same element.

    One walk from rho, rightmost letter first, checking every letter: s_i v
    is longer than v iff <v(rho), h_i> > 0, so reduced iff that is so at each step.
    """
    mu, reduced = rho(datum), True
    for i in reversed(word):
        _check_index(datum, i)
        reduced = reduced and mu[i - 1] > 0
        mu = _step(datum, i, mu)
    return reduced


def longest_word(datum):
    """Canonical reduced word of the longest element w_0, read off w_0(rho) = -rho."""
    mu, word = tuple(-c for c in rho(datum)), []
    while i := _descent(mu):  # w's least left descent, then on to s_i w
        word.append(i)
        mu = _step(datum, i, mu)
    return tuple(word)


def _solve_root_coords(datum, mu):
    """Exact rational solution c of  sum_i c_i alpha_i = mu."""
    _check_length(datum, mu)
    n = datum.rank
    m = [[Fraction(datum.cartan[r][c]) for c in range(n)] + [Fraction(mu[r])]
         for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(m[r][n] / m[r][r] for r in range(n))


def root_coords(datum, mu):
    """mu written in the simple-root basis, if the coefficients are integers."""
    coords = _solve_root_coords(datum, mu)
    if any(c.denominator != 1 for c in coords):
        raise ValueError(f"{mu} is not in the root lattice of {datum.name}")
    return tuple(int(c) for c in coords)


def dominance_leq(datum, mu, lam):
    """Dominance order: lam - mu a nonnegative integer sum of simple roots."""
    _check_length(datum, mu)
    _check_length(datum, lam)
    diff = tuple(a - b for a, b in zip(lam, mu))
    coords = _solve_root_coords(datum, diff)
    return all(c.denominator == 1 and c >= 0 for c in coords)


@lru_cache(maxsize=None)
def positive_roots(datum):
    """All positive roots, as coefficient tuples over the simple roots.

    Computed as the reflection closure of the simple roots; in finite type
    every root has all-nonnegative or all-nonpositive coefficients.
    """
    n = datum.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        r = frontier.pop()
        for i in range(n):
            pairing = sum(r[j] * datum.cartan[i][j] for j in range(n))
            image = tuple(r[j] - pairing if j == i else r[j] for j in range(n))
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    positives = sorted(r for r in roots if all(c >= 0 for c in r))
    assert 2 * len(positives) == len(roots)
    return tuple(positives)


@lru_cache(maxsize=None)
def _coroots(datum):
    """beta^vee for each positive root beta, as int coordinates over the h_i.

    For beta = sum_i c_i alpha_i, beta^vee = sum_i (c_i d_i / d_beta) h_i
    with d_beta = (beta, beta) / 2 in the symmetrizer scale d of the datum;
    in finite type every coroot is an integer sum of the simple coroots.
    The pairing <mu, beta^vee> is then the dot product of mu with the row.
    """
    a, d, n = datum.cartan, datum.sym, datum.rank
    rows = []
    for root in positive_roots(datum):
        d_beta = sum(root[i] * root[j] * d[i] * a[i][j]
                     for i in range(n) for j in range(n)) // 2
        rows.append(tuple(c * di // d_beta for c, di in zip(root, d)))
    return tuple(rows)


def root_weight_coords(datum, root):
    """Convert simple-root coefficients to fundamental-weight coordinates."""
    _check_length(datum, root)
    n = datum.rank
    return tuple(sum(datum.cartan[j][i] * root[i] for i in range(n)) for j in range(n))


def weyl_orbit(datum, mu):
    """The Weyl orbit of a weight, as a set of weight tuples."""
    _check_length(datum, mu)
    return set(_Orbit(datum, mu).points)


def dominant_representative(datum, mu):
    """The unique dominant weight in the Weyl orbit of mu."""
    mu = tuple(mu)
    _check_length(datum, mu)
    while i := _descent(mu):
        mu = _step(datum, i, mu)
    return mu


def supported_types():
    """Names of every type in the embedded table."""
    return tuple(_TYPES)

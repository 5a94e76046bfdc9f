"""Formal characters, Demazure operators and the Freudenthal oracle.

A formal character is a finite multiplicity map from weights to integers.
Characters of crystal subsets are nonnegative, but Demazure operators need
signed intermediate values, so negative entries are allowed and crystal
characters are validated at the boundary instead.  ``FormalCharacter`` is a
``SparseMap`` (``sparse.py``), the core it shares with ``LaurentPoly``.
``demazure_operator`` is the step of the ``root_data._orbit_walk`` in which
``verify`` grows the Demazure characters,
D_w(e^lambda) = D_{w[0]}(D_{w[1:]}(e^lambda)).

Two independent oracles live here: the Weyl dimension product formula and
Freudenthal's multiplicity recursion.  Neither touches the path model, so
both can certify generated crystals.  Character equality is all that is
certified: agreement of char B(lambda) with the Weyl character is a
consequence of the underlying vanishing theory, not a proof of it.
"""

import itertools
from collections import Counter

from .demazure import _gather, demazure_crystal
from .root_data import (_check_dominant, _check_index, _check_length, _check_rank,
                        _coroots, dominant_representative, is_dominant, positive_roots,
                        root_coords, root_weight_coords, simple_root, weyl_orbit)
from .sparse import SparseMap


class FormalCharacter(SparseMap):
    """Finite integer multiplicity map on the weight lattice.

    A ``SparseMap`` from weight tuple to nonzero multiplicity.
    """

    __slots__ = ()

    @staticmethod
    def _key(weight, mult):
        return tuple(weight)

    @classmethod
    def monomial(cls, weight, mult=1):
        return cls({tuple(weight): mult})

    def multiplicity(self, weight):
        return self._terms.get(tuple(weight), 0)

    __getitem__ = multiplicity

    def support(self):
        return frozenset(self._terms)

    def total(self):
        """Sum of all multiplicities (the dimension, for a crystal character)."""
        return sum(self._terms.values())

    def render(self):
        """Canonical text form: one ``(<coords>) : <mult>`` line per weight."""
        lines = []
        for w, m in self.items():
            coords = ", ".join(str(c) for c in w)
            lines.append(f"({coords}) : {m}")
        return "\n".join(lines)


def char_of(members, graph, gather=None):
    """Character of a collection of crystal element ids, aggregated by weight.

    The weights are read and counted in C, through ``gather``, the
    ``demazure._gather(members)`` a caller already holding one hands in,
    else built here.  Raises IndexError for an id outside 0..len(graph) - 1.
    """
    if members == graph.all_ids():  # the whole column, counted as it stands
        return FormalCharacter._new(dict(Counter(graph.weight_of)))
    if members:  # a negative id would read from the end of the column
        low, high = min(members), max(members)
        if low < 0 or high >= len(graph):
            bad = low if low < 0 else high
            raise IndexError(f"element id {bad} out of range 0..{len(graph) - 1}")
    gather = _gather(members) if gather is None else gather
    return FormalCharacter._new(dict(Counter(gather(graph.weight_of))))


def _expansion(datum, i, mu, shared):
    """(sign, weights) with D_i(e^mu) = sign * sum of e^w over the weights, each from ``shared``."""
    _check_length(datum, mu)
    alpha, m = simple_root(datum, i), mu[i - 1]
    if m >= 0:  # mu + k alpha_i for k = 0, -1, ..., -m
        sign, ks = 1, range(0, -m - 1, -1)
    else:  # -(mu + k alpha_i) for k = 1, ..., -m - 1; none when m == -1
        sign, ks = -1, range(1, -m)
    weights = []
    for k in ks:
        w = tuple(x + k * a for x, a in zip(mu, alpha))
        weights.append(shared.setdefault(w, w))
    return sign, tuple(weights)


def demazure_operator(datum, i, chi, shared=None):
    """The idempotent Demazure operator D_i on the group algebra of P.

    On a monomial e^mu with m = <h_i, mu>:
        m >= 0:   e^mu + e^(mu - alpha_i) + ... + e^(mu - m alpha_i)
        m == -1:  0
        m <= -2:  -(e^(mu + alpha_i) + ... + e^(mu + (-m-1) alpha_i))
    extended linearly.  This is (e^mu - e^(s_i mu - alpha_i)) / (1 - e^(-alpha_i))
    with the geometric series summed exactly.

    ``shared``, a dict kept across the calls of one walk, is its memo.  It
    maps each weight to its one tuple object, so that the characters alive
    together hold one key object per distinct weight, and each index i to
    the expansions {mu: (sign, weights)} of D_i(e^mu) met so far; a term
    c e^mu then adds sign * c over the cached weights.
    """
    shared = {} if shared is None else shared
    memo = shared.get(i)
    if memo is None:
        _check_index(datum, i)
        memo = shared[i] = {}
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for mu, c in chi._terms.items():
        hit = memo.get(mu)
        if hit is None:
            hit = memo[mu] = _expansion(datum, i, mu, shared)
        sign, weights = hit
        c *= sign
        for w in weights:
            out[w] = get(w, 0) + c
    return FormalCharacter._new(out)


def apply_demazure_word(datum, word, chi):
    """Compose D_{i_1} ... D_{i_n}, the rightmost letter acting first, through one memo."""
    for mu in chi._terms:
        _check_rank(datum, mu)
    shared = {}
    for i in reversed(word):
        chi = demazure_operator(datum, i, chi, shared)
    return chi


def verify_demazure_character(graph, lam, word):
    """Check char B_w(lambda) == D_word(e^lambda) exactly.

    The subset recursion saturates letters right to left, so the operator
    composition applies the last letter first; this pairing is what makes
    the two sides agree word by word.
    """
    lam = tuple(lam)
    if tuple(graph.highest_weight) != lam:
        raise ValueError("graph highest weight does not match lam")
    dc = demazure_crystal(graph, word)
    lhs = char_of(dc.members, graph)
    rhs = apply_demazure_word(graph.datum, word, FormalCharacter.monomial(lam))
    if lhs == rhs:
        return True, None
    return False, (lhs, rhs)


def weyl_dimension(datum, lam):
    """Weyl dimension product over positive roots, as an exact integer.

    Each factor is <lam + rho, beta^vee> / <rho, beta^vee>, read off the
    coroot table ``root_data._coroots`` as dot products; the numerators
    and the denominators are multiplied as ints and divided once.
    """
    lam = _check_dominant(datum, lam, "dimension formula needs")
    num = den = 1
    for coroot in _coroots(datum):
        num *= sum(c * (x + 1) for c, x in zip(coroot, lam))
        den *= sum(coroot)
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("non-integral Weyl dimension: root enumeration bug")
    return dim


def weyl_character(datum, lam):
    """Character of the irreducible highest-weight module, via Freudenthal.

    Multiplicities are computed on the dominant cone by the recursion

        (|lam+rho|^2 - |mu+rho|^2) m_mu
            = 2 sum_{alpha > 0} sum_{k >= 1} m_{mu + k alpha} (mu + k alpha, alpha)

    in exact integer arithmetic (no group-algebra division), then spread
    over Weyl orbits.  Independent of the path model by construction.
    """
    lam = _check_dominant(datum, lam, "Freudenthal needs")
    d, n = datum.sym, datum.rank
    roots = [(r, root_weight_coords(datum, r)) for r in positive_roots(datum)]

    # Dominant weights <= lam live in the box 0 <= c <= coords(lam - w0 lam),
    # where -w0(lam) is the dominant representative of -lam.
    neg_lowest = dominant_representative(datum, tuple(-x for x in lam))
    bound = root_coords(datum, tuple(a + b for a, b in zip(lam, neg_lowest)))
    dominant = {}
    for c in itertools.product(*(range(b + 1) for b in bound)):
        shift = root_weight_coords(datum, c)
        mu = tuple(a - s for a, s in zip(lam, shift))
        if is_dominant(mu):
            dominant[mu] = c

    mult = {lam: 1}
    for mu, c in sorted(dominant.items(), key=lambda item: sum(item[1])):
        if mu == lam:
            continue
        total = 0
        for r, rw in roots:
            k = 1
            while all(ci - k * ri >= 0 for ci, ri in zip(c, r)):
                nu = tuple(m + k * w for m, w in zip(mu, rw))
                m_nu = mult.get(dominant_representative(datum, nu), 0)
                if m_nu:
                    total += m_nu * sum(r[j] * d[j] * nu[j] for j in range(n))
                k += 1
        denom = sum(c[j] * d[j] * (lam[j] + mu[j] + 2) for j in range(n))
        m_mu, rem = divmod(2 * total, denom)
        if rem or m_mu <= 0:
            raise ArithmeticError(f"Freudenthal recursion failed at weight {mu}")
        mult[mu] = m_mu

    full: dict[tuple[int, ...], int] = {}
    for mu, m in mult.items():
        for nu in weyl_orbit(datum, mu):
            full[nu] = m
    return FormalCharacter._new(full)

"""The rank-one quantized module V(lambda) over Z[q, q^-1].

Basis vectors are the divided powers f^(k) v for 0 <= k <= lambda, with the
conventions f^(-1) v = f^(lambda+1) v = 0.  Generator actions:

    f . f^(k) v = [k+1]        f^(k+1) v
    e . f^(k) v = [lambda-k+1] f^(k-1) v
    K . f^(k) v = q^(lambda-2k) f^(k) v

Divided powers act through quantum binomials, f^(p) . f^(k) v =
[p+k choose k] f^(p+k) v, so every coefficient stays in Z[q, q^-1]; this
module is the brute-force oracle for the rank-one crystal chain.

A vector is a plain dict from basis index to nonzero ``LaurentPoly``
coefficient; the coefficient arithmetic is the shared ``SparseMap`` core
(``sparse.py``).  Each action sends distinct indices to distinct indices,
so it builds its result in one pass with no accumulation.

``verify_sl2_relation`` checks the sl2 relation by the action maps and,
independently, the bracket identity on [n] in big ints at q = 2^bits, with
``bits`` wide enough for that check to be exact (``_bracket_bits``).
"""

import operator
from dataclasses import dataclass

from .qarith import LaurentPoly, qbinom, qfact, qint, zero


@dataclass(frozen=True)
class RankOneModule:
    lam: int

    def __post_init__(self):
        if operator.index(self.lam) < 0:  # a float or Fraction would give a fractional dim
            raise ValueError("highest weight must be a nonnegative integer")

    @property
    def dim(self):
        return self.lam + 1

    def basis_vector(self, k):
        if not 0 <= k <= self.lam:
            raise IndexError(f"basis index {k} outside 0..{self.lam}")
        return {k: LaurentPoly({0: 1})}


def act_f(m, v):
    """f . v, extended linearly over the basis."""
    return {k + 1: p for k, c in v.items() if k + 1 <= m.lam and (p := qint(k + 1) * c)}


def act_e(m, v):
    """e . v, extended linearly over the basis."""
    return {k - 1: p for k, c in v.items() if k - 1 >= 0 and (p := qint(m.lam - k + 1) * c)}


def act_K(m, v):
    """K . v: scale the k-th basis coefficient by q^(lambda - 2k)."""
    return {k: p for k, c in v.items() if (p := c.shift(m.lam - 2 * k))}


def act_divided_f(m, power, v):
    """f^(power) . v via quantum binomials, staying inside Z[q, q^-1].

    Equal to applying act_f ``power`` times and dividing by [power]!, but
    computed directly; the test suite crosschecks the two routes.
    """
    if power < 0:
        raise ValueError("divided power must be nonnegative")
    if power == 0:
        return {k: c for k, c in v.items() if c}
    return {k + power: p for k, c in v.items()
            if k + power <= m.lam and (p := qbinom(k + power, k) * c)}


def iterated_f_over_factorial(m, power, v):
    """The slow route to f^(power): iterate act_f, then exact-divide by [power]!."""
    for _ in range(power):
        v = act_f(m, v)
    fact = qfact(power)
    return {k: p for k, c in v.items() if (p := c.exact_div(fact))}


def crystal_f_tilde(m, k):
    """f_tilde on the crystal chain 0 -> 1 -> ... -> lambda; None at the end."""
    if not 0 <= k <= m.lam:
        raise IndexError(f"basis index {k} outside 0..{m.lam}")
    return k + 1 if k < m.lam else None


def _bracket_bits(length, top):
    """The smallest ``bits`` with 2^(bits-1) > 2 L C^2 + C, for L = ``length``, C = ``top``.

    If no [n] in the table has more than L terms or a coefficient above C
    in absolute value, a product of two of them has every coefficient at
    most L C^2 in absolute value, and each coefficient of
    [k+1][lam-k] - [k][lam-k+1] - [lam-2k] is at most 2 L C^2 + C.  For
    the true [n], n <= lam + 1, that bound is 2 lam + 3.
    """
    return (2 * length * top * top + top).bit_length() + 1


def _bracket_table(lam):
    """(bits, s, V) with V[n] = 2^(bits s) [n](2^bits) for n = 0..lam+1.

    A first pass over ``qint`` finds the most terms, the largest
    |coefficient| and the lowest exponent of the table, which fix ``bits``
    and the lift s >= 0 that makes every exponent nonnegative (s = lam for
    the true [n]).  A second pass evaluates each [n] once, term by term.
    No [n] is held beyond its own pass.
    """
    length = top = low = 0
    for n in range(lam + 2):
        terms = qint(n)._terms
        if terms:
            length = max(length, len(terms))
            top = max(top, max(map(abs, terms.values())))
            low = min(low, min(terms))
    bits, s = _bracket_bits(length, top), -low
    # qint lists exponents descending; summing upwards keeps the partial sums short
    values = [sum(c << bits * (e + s) for e, c in reversed(qint(n)._terms.items()))
              for n in range(lam + 2)]
    return bits, s, values


def verify_sl2_relation(m):
    """Check (ef - fe) f^(k) v = [lambda - 2k] f^(k) v for every k.

    Two routes per k.  The module route applies the action maps and
    compares the whole vector with [lambda - 2k] f^(k) v as exact Laurent
    polynomials.  The bracket route checks the identity
    [k+1][lam-k] - [k][lam-k+1] = [lam-2k] in big ints, on the table V of
    ``_bracket_table``: times q^(2s) at q = 2^bits it reads
    V[k+1] V[lam-k] - V[k] V[lam-k+1] = 2^(bits s) V[lam-2k], with
    V[-n] = -V[n] as [-n] = -[n].  ``bits`` (``_bracket_bits``) puts every
    coefficient of the difference of the two sides strictly between
    -2^(bits-1) and 2^(bits-1), so at q = 2^bits the difference is a
    balanced base-2^bits numeral with those coefficients as digits, which
    is 0 only when every digit is: the check is exact.  The bracket route
    shares no product with the module route.  Returns (ok, witness).
    """
    lam = m.lam
    bits, s, value = _bracket_table(lam)
    for k in range(lam + 1):
        d = lam - 2 * k
        v = m.basis_vector(k)
        ef, fe = act_e(m, act_f(m, v)), act_f(m, act_e(m, v))
        lhs = {j: p for j in ef.keys() | fe.keys() if (p := ef.get(j, zero) - fe.get(j, zero))}
        rhs = qint(d)
        if lhs != ({k: rhs} if rhs else {}):
            return False, (lam, k)
        bracket = value[k + 1] * value[lam - k] - value[k] * value[lam - k + 1]
        if bracket != (value[d] if d >= 0 else -value[-d]) << bits * s:
            return False, (lam, k)
    return True, None

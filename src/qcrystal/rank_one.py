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
"""

from dataclasses import dataclass

from .qarith import LaurentPoly, qbinom, qfact, qint, zero


@dataclass(frozen=True)
class RankOneModule:
    lam: int

    def __post_init__(self):
        if self.lam < 0:
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


def verify_sl2_relation(m):
    """Check (ef - fe) f^(k) v = [lambda - 2k] f^(k) v for every k.

    Exercises the action maps themselves and the bracket identity
    [k+1][lam-k] - [k][lam-k+1] = [lam-2k] as exact Laurent polynomials.
    Returns (ok, witness).
    """
    for k in range(m.lam + 1):
        v = m.basis_vector(k)
        ef, fe = act_e(m, act_f(m, v)), act_f(m, act_e(m, v))
        lhs = {j: p for j in ef.keys() | fe.keys() if (p := ef.get(j, zero) - fe.get(j, zero))}
        rhs = qint(m.lam - 2 * k)
        if lhs != ({k: rhs} if rhs else {}):
            return False, (m.lam, k)
        direct = qint(k + 1) * qint(m.lam - k) - qint(k) * qint(m.lam - k + 1)
        if direct != qint(m.lam - 2 * k):
            return False, (m.lam, k)
    return True, None

"""Reference algebra: Demazure operator and rank-one actions that accumulate.

These are the accumulate-then-clean forms that ``character.py`` and
``rank_one.py`` replaced: the Demazure operator sums into a dict and hands
it to the public ``FormalCharacter`` constructor, which sums it again, and
each rank-one action adds every product into an accumulator before zero
entries are dropped.  Kept for the differential tests only.
"""

from qcrystal.character import FormalCharacter
from qcrystal.qarith import LaurentPoly, qbinom, qfact, qint
from qcrystal.root_data import simple_root


def demazure_operator(datum, i, chi):
    alpha = simple_root(datum, i)
    out = {}
    for mu, c in chi.items():
        m = mu[i - 1]
        if m >= 0:
            for k in range(m + 1):
                w = tuple(x - k * a for x, a in zip(mu, alpha))
                out[w] = out.get(w, 0) + c
        elif m <= -2:
            for k in range(1, -m):
                w = tuple(x + k * a for x, a in zip(mu, alpha))
                out[w] = out.get(w, 0) - c
    return FormalCharacter(out)


def _clean(vec):
    return {k: c for k, c in vec.items() if c}


def _sub(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, LaurentPoly()) - c
    return _clean(out)


def act_f(m, v):
    out = {}
    for k, c in v.items():
        if k + 1 <= m.lam:
            out[k + 1] = out.get(k + 1, LaurentPoly()) + qint(k + 1) * c
    return _clean(out)


def act_e(m, v):
    out = {}
    for k, c in v.items():
        if k - 1 >= 0:
            out[k - 1] = out.get(k - 1, LaurentPoly()) + qint(m.lam - k + 1) * c
    return _clean(out)


def act_K(m, v):
    return _clean({k: c.shift(m.lam - 2 * k) for k, c in v.items()})


def act_divided_f(m, power, v):
    if power < 0:
        raise ValueError("divided power must be nonnegative")
    if power == 0:
        return _clean(dict(v))
    out = {}
    for k, c in v.items():
        t = k + power
        if t <= m.lam:
            out[t] = out.get(t, LaurentPoly()) + qbinom(t, k) * c
    return _clean(out)


def iterated_f_over_factorial(m, power, v):
    for _ in range(power):
        v = act_f(m, v)
    fact = qfact(power)
    return _clean({k: c.exact_div(fact) for k, c in v.items()})


def verify_sl2_relation(m):
    for k in range(m.lam + 1):
        v = m.basis_vector(k)
        lhs = _sub(act_e(m, act_f(m, v)), act_f(m, act_e(m, v)))
        rhs = _clean({k: qint(m.lam - 2 * k)})
        if lhs != rhs:
            return False, (m.lam, k)
        direct = qint(k + 1) * qint(m.lam - k) - qint(k) * qint(m.lam - k + 1)
        if direct != qint(m.lam - 2 * k):
            return False, (m.lam, k)
    return True, None

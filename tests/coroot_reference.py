"""Test-only reference: Weyl dimensions and path denominators from the roots.

These are the formulas qcrystal used before both read the one coroot table
``root_data._coroots``: a ``Fraction`` product for the Weyl dimension, and
a double loop over each positive root for the lcm of the coroot pairings.
Each derives <lam, beta^vee> from ``positive_roots`` on its own, so the
differential tests in ``test_coroots.py`` share no code path with the
table.  Do not import it from ``src/``.
"""

from fractions import Fraction
from math import lcm

from qcrystal.root_data import positive_roots


def weyl_dimension(datum, lam):
    """Product of <lam + rho, beta^vee> / <rho, beta^vee> as Fractions.

    With beta written over the simple roots the pairing is an integer sum
    against the symmetrizers; the root-length normalizer cancels in the
    ratio.
    """
    d = datum.sym
    acc = Fraction(1)
    for r in positive_roots(datum):
        num = sum(r[j] * d[j] * (lam[j] + 1) for j in range(datum.rank))
        den = sum(r[j] * d[j] for j in range(datum.rank))
        acc *= Fraction(num, den)
    assert acc.denominator == 1, acc
    return int(acc)


def denominator(datum, lam):
    """lcm of the nonzero <lam, beta^vee> over the positive roots beta (1 if none).

    For beta = sum_i c_i alpha_i, beta^vee = sum_i (c_i d_i / d_beta) h_i
    with d_beta = (beta, beta) / 2 in the symmetrizer scale d of the datum.
    """
    a, d, n = datum.cartan, datum.sym, datum.rank
    denom = 1
    for root in positive_roots(datum):
        d_beta = sum(root[i] * root[j] * d[i] * a[i][j]
                     for i in range(n) for j in range(n)) // 2
        pairing = sum(lam[i] * root[i] * d[i] for i in range(n)) // d_beta
        if pairing:
            denom = lcm(denom, pairing)
    return denom

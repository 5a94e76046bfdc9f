"""Reference Laurent product: one dict update per pair of terms.

This is the term-by-term product that ``LaurentPoly.__mul__`` replaced by
Kronecker substitution for every product without a one-term factor.  It works on
the ``items()`` of its operands and returns items, so it shares no code
with the product it checks.  Kept for the differential tests only.
"""

from qcrystal.qarith import LaurentPoly


def schoolbook_items(a, b):
    """The (exponent, coefficient) pairs of a * b, decreasing exponent, zeros dropped.

    Either operand may be a LaurentPoly or an int.
    """
    def pairs(p):
        return p.items() if isinstance(p, LaurentPoly) else [(0, p)]

    out = {}
    for e1, c1 in pairs(a):
        for e2, c2 in pairs(b):
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return tuple(sorted(((e, c) for e, c in out.items() if c), reverse=True))

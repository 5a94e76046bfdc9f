"""Exact arithmetic in Z[q, q^-1].

Laurent polynomials with integer coefficients, balanced quantum integers
[n] = q^(n-1) + q^(n-3) + ... + q^(1-n), quantum factorials and binomials,
and the bar involution q -> q^-1.  Coefficients are Python ints, so quantum
factorials can grow without overflow.  ``LaurentPoly`` is a ``SparseMap``
(``sparse.py``): the shared core holds the terms and supplies sums,
negation, equality and hashing; this module adds products and division.

Products use Kronecker substitution: both factors are shifted to exponent
0 and evaluated at q = 2^bits, the two big ints are multiplied by
CPython's own integer product, and the coefficients are read back as
signed bits-wide digits.  ``bits`` is a multiple of 8 with 2^(bits-1)
above min(len a, len b) * max|a_i| * max|b_j|, a bound on every product
coefficient, so no digit carries into the next and the result is exact.
Every product goes that way except one with a one-term factor c q^e,
which is only a shift by e and a scale by c.
"""

import sys
from functools import lru_cache
from itertools import repeat

from .sparse import SparseMap

#: memoryview formats of 1-, 2-, 4- and 8-byte unsigned digits.
_DIGIT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(terms, lo, n, width, half):
    """The int sum of c * 2^(8 width (e - lo)) over the terms, n digits long."""
    blank = half.to_bytes(width, sys.byteorder) * n
    buf = bytearray(blank)
    fmt = _DIGIT_FORMATS.get(width)
    if fmt:
        digits = memoryview(buf).cast(fmt)
        for e, c in terms.items():
            digits[e - lo] = c + half
    else:
        for e, c in terms.items():
            k = (e - lo) * width
            buf[k:k + width] = (c + half).to_bytes(width, sys.byteorder)
    return int.from_bytes(buf, sys.byteorder) - int.from_bytes(blank, sys.byteorder)


def _unpack(value, lo, n, width, half):
    """Nonzero terms {lo + k: digit k} of an int of n signed width-byte digits."""
    blank = half.to_bytes(width, sys.byteorder) * n
    raw = (value + int.from_bytes(blank, sys.byteorder)).to_bytes(n * width, sys.byteorder)
    fmt = _DIGIT_FORMATS.get(width)
    if fmt:
        digits = memoryview(raw).cast(fmt).tolist()
    else:
        digits = [int.from_bytes(raw[k:k + width], sys.byteorder)
                  for k in range(0, len(raw), width)]
    return {lo + k: d - half for k, d in enumerate(digits) if d != half}


def _kronecker_product(a, b):
    """Terms of the product of two nonzero term maps, by one big-int product."""
    lo_a, lo_b = min(a), min(b)
    na, nb = max(a) - lo_a + 1, max(b) - lo_b + 1
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    width = (bound.bit_length() + 8) // 8  # bytes, with 2^(8 width - 1) > bound
    if width <= 8:
        width = 1 << (width - 1).bit_length()  # round up to a memoryview format
    half = 1 << (8 * width - 1)
    value = _pack(a, lo_a, na, width, half) * _pack(b, lo_b, nb, width, half)
    return _unpack(value, lo_a + lo_b, na + nb - 1, width, half)


class ExactDivisionError(ArithmeticError):
    """Division of Laurent polynomials left a nonzero remainder."""


class LaurentPoly(SparseMap):
    """A Laurent polynomial in q over the integers.

    A ``SparseMap`` from exponent to nonzero coefficient.  Values are
    immutable and hashable; all arithmetic is exact and returns new objects.
    Ints take part in sums, products and comparisons as constants.
    """

    __slots__ = ()

    @staticmethod
    def _key(exp, coef):
        if not isinstance(exp, int) or not isinstance(coef, int):
            raise TypeError("exponents and coefficients must be ints")
        return exp

    # -- inspection ----------------------------------------------------

    def coefficient(self, exp):
        return self._terms.get(exp, 0)

    def min_exp(self):
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exp(self):
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    # -- ring structure ------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly._new({0: other})
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:  # c q^e times b: a shift and a scale
            ((e1, c1),) = a.items()
            return LaurentPoly._new({e1 + e2: c1 * c2 for e2, c2 in b.items()})
        return LaurentPoly._new(_kronecker_product(a, b) if a and b else {})

    __rmul__ = __mul__

    def shift(self, n):
        """Multiply by q^n."""
        return LaurentPoly._new({e + n: c for e, c in self._terms.items()})

    def exact_div(self, other):
        """Exact quotient self / other; raises ExactDivisionError otherwise."""
        divisor = self._coerce(other)
        if divisor is None:
            raise TypeError(f"cannot divide a LaurentPoly by {type(other).__name__!r}")
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly()
        # Lowest possible quotient exponent; anything below means inexact.
        floor = self.min_exp() - divisor.min_exp()
        dmax = divisor.max_exp()
        dlead = divisor._terms[dmax]
        rem = dict(self._terms)
        quo: dict[int, int] = {}
        while rem:
            rmax = max(rem)
            shift = rmax - dmax
            c, r = divmod(rem[rmax], dlead)
            if shift < floor or r:
                raise ExactDivisionError(f"{self} is not divisible by {divisor}")
            quo[shift] = quo.get(shift, 0) + c
            for e, d in divisor._terms.items():
                e2 = e + shift
                v = rem.get(e2, 0) - c * d
                if v:
                    rem[e2] = v
                else:
                    rem.pop(e2, None)
        return LaurentPoly._new(quo)

    def __hash__(self):
        # A constant equals the int it holds, so it must hash like it.
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return super().__hash__()

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for idx, (e, c) in enumerate(self.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if idx == 0:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)


#: The generator q and the ring unit, for convenience.
q = LaurentPoly({1: 1})
one = LaurentPoly({0: 1})
zero = LaurentPoly()


def qint(n):
    """Balanced quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n).

    [0] = 0 and [-n] = -[n], so bar([n]) = [n] for all n.
    """
    if n < 0:
        return -qint(-n)
    return LaurentPoly._new(dict(zip(range(n - 1, -n, -2), repeat(1))))


@lru_cache(maxsize=None)
def qfact(n):
    """Quantum factorial [n]! = [n][n-1]...[1]."""
    if n < 0:
        raise ValueError("quantum factorial needs n >= 0")
    if n == 0:
        return one
    return qfact(n - 1) * qint(n)


def qbinom(m, k):
    """Quantum binomial coefficient [m choose k] = [m]! / ([k]! [m-k]!).

    The quotient is computed by exact division, which doubles as a check
    that [k]! [m-k]! really divides [m]!.  Returns 0 when k > m; evaluating
    at q = 1 recovers the ordinary binomial coefficient.
    """
    if m < 0 or k < 0:
        raise ValueError("quantum binomial needs m, k >= 0")
    if k > m:
        return zero
    return qfact(m).exact_div(qfact(k) * qfact(m - k))


def bar(p):
    """Bar involution: send q to q^-1, i.e. negate every exponent."""
    return LaurentPoly({-e: c for e, c in p.items()})


def eval_at_one(p):
    """Specialize q to 1: the sum of all coefficients."""
    return sum(c for _, c in p.items())

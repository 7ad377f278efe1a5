"""Exact arithmetic in Q(L), L the real root of 2*X^3 - X^2 - X - 1.

An element is stored as integers (n0 + n1*L + n2*L**2) / den in canonical
form: den > 0 and gcd(n0, n1, n2, den) = 1, so equality is decided field
by field.  Signs are decided by the field norm: L is the only real root
of the irreducible cubic, so the other two conjugates of x are complex
conjugates of each other, and N(x) = x * |s(x)|**2 has the sign of x; it
is the determinant of an integer matrix (see triple_sign).  The letter
weights of the metric and the radius function live here too, and rational
enclosures: of elements, over dyadic bounds for L, and of logarithms, as
atanh series summed in fixed-point integers with every floor and the tail
accounted for, rounded outward to 2**-80.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import check_int
from .words import reduce_word

__all__ = [
    "CubicNumber",
    "LAMBDA",
    "LAMBDA_INV",
    "WEIGHT",
    "lambda_length",
    "length_triple",
    "count_triple",
    "triple_sign",
    "triple_compare_power",
    "radius_index",
    "ln_enclosure",
    "log_lambda_enclosure",
]


def _columns(c0: int, c1: int, c2: int) -> tuple[tuple[int, int, int], ...]:
    """The coordinates of x, 2L*x and 4L^2*x for x = c0 + c1*L + c2*L^2.
    By 2L^3 = L^2 + L + 1, 2L times (c0, c1, c2) is (c2, 2c0 + c2, 2c1 + c2),
    so the three are integer columns with determinant 8 N(x)."""
    x2 = (c2, 2 * c0 + c2, 2 * c1 + c2)
    return (c0, c1, c2), x2, (x2[2], 2 * x2[0] + x2[2], 2 * x2[1] + x2[2])


def _det3(cols):
    (a, b, c), (d, e, f), (g, h, i) = cols
    return a * (e * i - f * h) - d * (b * i - c * h) + g * (b * f - c * e)


def triple_sign(c0: int, c1: int, c2: int) -> int:
    """Exact sign of x = c0 + c1*L + c2*L^2 for integer coefficients: the
    sign of its norm N(x) = x * |s(x)|**2, s a complex embedding, read off
    the determinant 8 N(x) of ``_columns``.  N(x) = 0 only for x = 0, as
    the minimal polynomial is irreducible.  The determinant is exact only
    in integers, so any other coefficient type is a TypeError."""
    n = _det3(_columns(c0, c1, c2))
    if type(n) is not int:
        raise TypeError(f"triple_sign needs int coefficients, not {type(n).__name__}")
    return (n > 0) - (n < 0)


@functools.cache
def _lambda_bounds(bits: int) -> tuple[int, int]:
    """(lo, lo + 1) with lo / 2**bits < L < (lo + 1) / 2**bits, by bisection
    of [1, 2]: L > mid / 2**k iff 2**k * L - mid > 0."""
    lo = 1
    for k in range(1, bits + 1):
        lo *= 2
        if triple_sign(-lo - 1, 1 << k, 0) > 0:
            lo += 1
    return lo, lo + 1


_set = object.__setattr__


def _store(x: "CubicNumber", n0: int, n1: int, n2: int, den: int) -> "CubicNumber":
    """Store (n0 + n1*L + n2*L^2) / den, den > 0, in x in canonical form."""
    g = math.gcd(n0, n1, n2, den)
    _set(x, "n0", n0 // g)
    _set(x, "n1", n1 // g)
    _set(x, "n2", n2 // g)
    _set(x, "den", den // g)
    return x


def _new(n0: int, n1: int, n2: int, den: int) -> "CubicNumber":
    return _store(object.__new__(CubicNumber), n0, n1, n2, den)


class CubicNumber:
    __slots__ = ("n0", "n1", "n2", "den")

    def __init__(self, c0=0, c1=0, c2=0):
        if not all(isinstance(c, (int, Fraction)) for c in (c0, c1, c2)):
            raise TypeError("CubicNumber coefficients must be int or Fraction")
        den = math.lcm(c0.denominator, c1.denominator, c2.denominator)
        n0, n1, n2 = (c.numerator * (den // c.denominator) for c in (c0, c1, c2))
        _store(self, n0, n1, n2, den)

    def __setattr__(self, name, value):
        raise AttributeError("CubicNumber is immutable")

    def _fractions(self) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(n, self.den) for n in (self.n0, self.n1, self.n2))

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        a, b = self.den, o.den
        return _new(self.n0 * b + o.n0 * a, self.n1 * b + o.n1 * a, self.n2 * b + o.n2 * a, a * b)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.n0, -self.n1, -self.n2, self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        a0, a1, a2 = self.n0, self.n1, self.n2
        b0, b1, b2 = other.n0, other.n1, other.n2
        t0 = a0 * b0
        t1 = a0 * b1 + a1 * b0
        t2 = a0 * b2 + a1 * b1 + a2 * b0
        t3 = a1 * b2 + a2 * b1
        t4 = a2 * b2
        # reduce with 2*L^3 = L^2 + L + 1, hence 4*L^4 = 3*L^2 + 3*L + 1,
        # over 4 times the product of the denominators
        return _new(
            4 * t0 + 2 * t3 + t4,
            4 * t1 + 2 * t3 + 3 * t4,
            4 * t2 + 2 * t3 + 3 * t4,
            4 * self.den * other.den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "CubicNumber":
        # solve self * y = 1 by integer Cramer's rule: for x the numerator
        # and z the solution of z0*x + z1*2L*x + z2*4L^2*x = 1 over the
        # columns of x, y = den * (z0 + 2*z1*L + 4*z2*L^2)
        m = _columns(self.n0, self.n1, self.n2)
        det = _det3(m)  # 8 N(x), zero only for x = 0
        if not det:
            raise ZeroDivisionError("inverse of zero in Q(L)")
        z = [_det3(m[:i] + ((1, 0, 0),) + m[i + 1 :]) for i in range(3)]
        k = self.den if det > 0 else -self.den
        return _new(k * z[0], 2 * k * z[1], 4 * k * z[2], abs(det))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = CubicNumber(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order ----------------------------------------------------------

    def sign(self) -> int:
        return triple_sign(self.n0, self.n1, self.n2)

    def compare(self, other) -> int:
        if isinstance(other, int):
            return triple_sign(self.n0 - other * self.den, self.n1, self.n2)
        o = _coerce(other)
        a, b = self.den, o.den
        return triple_sign(self.n0 * b - o.n0 * a, self.n1 * b - o.n1 * a, self.n2 * b - o.n2 * a)

    def __eq__(self, other):
        if not isinstance(other, (CubicNumber, int, Fraction)):
            return NotImplemented
        o = _coerce(other)
        return (self.n0, self.n1, self.n2, self.den) == (o.n0, o.n1, o.n2, o.den)

    def __hash__(self):
        # a rational element hashes as the equal Fraction (and int)
        if self.n1 == 0 and self.n2 == 0:
            return hash(Fraction(self.n0, self.den))
        return hash((self.n0, self.n1, self.n2, self.den))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    # -- reporting ------------------------------------------------------

    def enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, of width < ``width``, which must be > 0."""
        if not width > 0:
            raise ValueError(f"width must be > 0, not {width}")
        # interval evaluation over L's bounds [lo, hi]/q, at 64 bits and
        # doubled until narrow enough (lo > 0, so each term is monotone in L)
        bits = 64
        while True:
            lo, hi = _lambda_bounds(bits)
            q = 1 << bits
            t1, t2 = (self.n1 * lo * q, self.n1 * hi * q), (self.n2 * lo * lo, self.n2 * hi * hi)
            base, d = self.n0 * q * q, q * q * self.den
            low, high = base + min(t1) + min(t2), base + max(t1) + max(t2)
            if Fraction(high - low, d) < width:
                return Fraction(low, d), Fraction(high, d)
            bits *= 2

    def __float__(self):
        lo, hi = self.enclosure(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def __repr__(self):
        return "CubicNumber({!s}, {!s}, {!s})".format(*self._fractions())

    def __str__(self):
        return "{} + {}*L + {}*L^2".format(*self._fractions())


def _coerce(x) -> CubicNumber:
    if isinstance(x, CubicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return _new(x.numerator, 0, 0, x.denominator)
    raise TypeError(f"expected int, Fraction or CubicNumber, not {type(x).__name__}")


LAMBDA = CubicNumber(0, 1, 0)
LAMBDA_INV = CubicNumber(-1, -1, 2)  # 1 = L * (2L^2 - L - 1)

# letter weights; all have integer coefficients in the (1, L, L^2) basis
_WEIGHT_TRIPLE = {
    "a": (-2, 2, 0),  # 2(L - 1)
    "b": (3, -2, 0),  # 1 - |a| = L^-3
    "c": (1, -3, 2),  # 2L^2 - 3L + 1
    "d": (2, 1, -2),  # -2L^2 + L + 2
}

WEIGHT = {g: CubicNumber(*t) for g, t in _WEIGHT_TRIPLE.items()}


def lambda_length(w: str) -> CubicNumber:
    """Weighted length of the element w: the sum of the letter weights of
    its reduced form, so the identity "aa" has length 0.

    Valid as the group element's length because reduced normal forms are
    geodesic for the weighted metric.
    """
    return _new(*length_triple(reduce_word(w)), 1)


def length_triple(w: str) -> tuple[int, int, int]:
    """The integer triple of lambda_length(w), from the letter counts of w.
    A w without a str's ``count`` is a TypeError that names its type."""
    try:
        counts = [w.count(x) for x in "abcd"]
    except (AttributeError, TypeError):
        raise TypeError(f"word must be a str, not {type(w).__name__}") from None
    if sum(counts) != len(w):
        bad = next(ch for ch in w if ch not in _WEIGHT_TRIPLE)
        raise ValueError(f"not a letter of a, b, c, d: {bad!r}")
    return count_triple(*counts)


def count_triple(na: int, nb: int, nc: int, nd: int) -> tuple[int, int, int]:
    """The integer triple of the length of a word with these letter counts:
    na*(-2, 2, 0) + nb*(3, -2, 0) + nc*(1, -3, 2) + nd*(2, 1, -2)."""
    return -2 * na + 3 * nb + nc + 2 * nd, 2 * na - 2 * nb - 3 * nc + nd, 2 * nc - 2 * nd


@functools.cache
def _lambda_power(k: int) -> CubicNumber:
    """L**k, cached: the radius tests compare against a few powers often.
    For k >= 2 it is the square of the cached L**(k // 2), times L when k
    is odd, so the thresholds L**0, L**1, ... take one or two products each."""
    if k < 2:
        return LAMBDA**k
    half = _lambda_power(k // 2)
    square = half * half
    return square * LAMBDA if k & 1 else square


def triple_compare_power(triple: tuple[int, int, int], k: int) -> int:
    """Exact sign of (t0 + t1*L + t2*L^2) - L^k, for integer triples, k >= 0."""
    return _new(*triple, 1).compare(_lambda_power(k))


def compare_power_to_int(k: int, n) -> int:
    """Exact sign of L^k - n for a rational n, k >= 0."""
    return _lambda_power(k).compare(n)


@functools.cache
def _power_ceiling(k: int) -> int:
    """The least integer >= L**k, k >= 0: for an integer n, L**k <= n iff
    _power_ceiling(k) <= n."""
    lo, _ = _lambda_power(k).enclosure(Fraction(1))
    # lo <= L^k < lo + 1, so the ceiling is ceil(lo) or ceil(lo) + 1
    c = math.ceil(lo)
    return c if compare_power_to_int(k, c) <= 0 else c + 1


# log(L) as a float, for the starting guess of radius_index only
_LOG_LAMBDA = math.log(_lambda_bounds(64)[0] / (1 << 64))


def radius_index(n: int) -> int:
    """The unique m with L^(m+1) <= n < L^(m+2), for an integer n >= 1, by
    comparisons with the exact integer thresholds ceil(L^k), starting one
    below the float guess.  Only an input that is not a plain int >= 1
    goes through ``check_int``, which rejects it with the usual error."""
    if type(n) is not int or n < 1:
        check_int(n, "radius", 1)
    # log(n) >= 0, so the guess is at least -1
    m = int(math.log(n) / _LOG_LAMBDA) - 1
    while _power_ceiling(m + 2) <= n:
        m += 1
    while m >= 0 and _power_ceiling(m + 1) > n:
        m -= 1
    # final m may be -1 for n = 1 (L^0 = 1 <= 1 < L)
    return m


# the precision of the logarithm enclosures: results are rounded outward to
# multiples of 2**-_LN_BITS; the series runs 16 guard bits finer
_LN_BITS = 80
_SERIES_BITS = _LN_BITS + 16


def _atanh_fixed(p: int, q: int, bits: int = _SERIES_BITS) -> tuple[int, int]:
    """Integers lo <= hi with lo <= atanh(p/q) * 2**bits <= hi, for q > 0
    and |p/q| <= 1/3.

    Sums the floored terms p^(2j+1) 2**bits // (q^(2j+1) (2j+1)) of the
    series, each at most one unit low, until the tail after j terms, at
    most |t|^(2j+1) / ((2j+1)(1 - t^2)) for t = p/q, is at most one unit;
    the sum s then puts atanh(t) in [s - 1, s + j + 1].  At the default
    bits that is at most 30 units wide (j <= 28).
    """
    if p == 0:
        return 0, 0
    p2, q2 = p * p, q * q
    gap = q2 - p2  # q^2 (1 - t^2) > 0
    num, den = p << bits, q  # p^(2j+1) 2**bits and q^(2j+1)
    s = j = 0
    while True:
        s += num // (den * (2 * j + 1))
        num *= p2
        den *= q2
        j += 1
        if abs(num) * q2 <= den * (2 * j + 1) * gap:  # the tail bound <= 1
            return s - 1, s + j + 1


def _round_out(lo: int, hi: int, shift: int) -> tuple[int, int]:
    """The integer interval [lo, hi] rounded outward to multiples of
    2**shift, in units of 2**shift."""
    return lo >> shift, -(-hi >> shift)


# atanh(1/3) = ln(2)/2 in units of 2**-_SERIES_BITS, at most 2 units wide:
# summed at twice the bits, then rounded outward
_HALF_LN2 = _round_out(*_atanh_fixed(1, 3, 2 * _SERIES_BITS), _SERIES_BITS)


def ln_enclosure(y) -> tuple[Fraction, Fraction]:
    """Rational enclosure of ln(y) for rational y > 0, with endpoints that
    are multiples of 2**-_LN_BITS.

    Writes y = m * 2**k with m in (1/2, 2), so that ln(y) = 2k atanh(1/3) +
    2 atanh(t) for t = (m - 1)/(m + 1), |t| < 1/3, and sums both series in
    fixed-point integers of 2**-(_LN_BITS + 16) (see _atanh_fixed).  With
    atanh(1/3) held to 2 units and atanh(t) to at most 30, the enclosure
    is at most 4|k| + 60 units wide before the outward rounding, so the
    result is at most 2 * 2**-_LN_BITS wide for |k| <= 16 000.  A y that
    is not an int or a Fraction raises TypeError, one <= 0 ValueError.
    """
    if not isinstance(y, (int, Fraction)):
        raise TypeError(f"ln needs an int or Fraction, not {type(y).__name__}")
    if y <= 0:
        raise ValueError("ln needs y > 0")
    num, den = y.numerator, y.denominator
    k = num.bit_length() - den.bit_length()
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    at_lo, at_hi = _atanh_fixed(num - den, num + den)
    h_lo, h_hi = _HALF_LN2
    lo = 2 * (min(k * h_lo, k * h_hi) + at_lo)
    hi = 2 * (max(k * h_lo, k * h_hi) + at_hi)
    lo, hi = _round_out(lo, hi, _SERIES_BITS - _LN_BITS)
    return Fraction(lo, 1 << _LN_BITS), Fraction(hi, 1 << _LN_BITS)


def log_lambda_enclosure(y) -> tuple[Fraction, Fraction]:
    """Rational enclosure of log base L of y (y rational > 0): an enclosure
    of ln(y) divided outward by one of ln(L) over L's bounds at _LN_BITS.
    Rejects y as ``ln_enclosure`` does."""
    lo, hi = _lambda_bounds(_LN_BITS)
    q = 1 << _LN_BITS
    den = (ln_enclosure(Fraction(lo, q))[0], ln_enclosure(Fraction(hi, q))[1])  # ln(L) > 0
    quotients = [x / d for x in ln_enclosure(y) for d in den]
    return min(quotients), max(quotients)

"""Exact arithmetic in Q(L), L the real root of 2*X^3 - X^2 - X - 1.

Elements are stored as rational coefficient triples c0 + c1*L + c2*L**2.
Equality is decided coefficient-wise; order comparisons refine a shared
rational isolating interval for L until the sign of the difference is
certain.  The letter weights of the metric and the radius function live
here too.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "CubicNumber",
    "LAMBDA",
    "LAMBDA_INV",
    "WEIGHT",
    "lambda_length",
    "length_triple",
    "triple_compare_power",
    "radius_index",
    "ln_enclosure",
    "log_lambda_enclosure",
]


def _minpoly_sign(p: int, q: int) -> int:
    """Sign of 2*x^3 - x^2 - x - 1 at x = p/q (q > 0)."""
    v = 2 * p * p * p - p * p * q - p * q * q - q * q * q
    return (v > 0) - (v < 0)


class _Enclosure:
    """Shared isolating interval [lo, hi] = [num_lo, num_hi] / 2**k for L.

    Starts at [1, 2]: the minimal polynomial changes sign there and is
    increasing, so the interval always contains exactly the real root.
    """

    def __init__(self):
        self.num_lo = 1
        self.num_hi = 2
        self.k = 0
        self.refine(64)

    def refine(self, bits: int) -> None:
        while self.k < bits:
            self.num_lo *= 2
            self.num_hi *= 2
            self.k += 1
            mid = (self.num_lo + self.num_hi) // 2
            if _minpoly_sign(mid, 1 << self.k) <= 0:
                self.num_lo = mid
            else:
                self.num_hi = mid

    def bounds(self) -> tuple[Fraction, Fraction]:
        q = 1 << self.k
        return Fraction(self.num_lo, q), Fraction(self.num_hi, q)


_ENCLOSURE = _Enclosure()


def _sign_int_triple(c0: int, c1: int, c2: int) -> int:
    """Exact sign of c0 + c1*L + c2*L^2 for integer coefficients."""
    if c0 == 0 and c1 == 0 and c2 == 0:
        return 0
    enc = _ENCLOSURE
    while True:
        lo, hi, q = enc.num_lo, enc.num_hi, 1 << enc.k
        # interval evaluation over [lo, hi]/q with common denominator q^2
        t1a, t1b = c1 * lo * q, c1 * hi * q
        t2a, t2b = c2 * lo * lo, c2 * hi * hi
        base = c0 * q * q
        low = base + min(t1a, t1b) + min(t2a, t2b)
        high = base + max(t1a, t1b) + max(t2a, t2b)
        if low > 0:
            return 1
        if high < 0:
            return -1
        # a nonzero element of Q(L) is nonzero at L, so refinement terminates
        enc.refine(enc.k * 2)


def _sign_fraction_triple(c0: Fraction, c1: Fraction, c2: Fraction) -> int:
    d = c0.denominator * c1.denominator * c2.denominator
    return _sign_int_triple(
        c0.numerator * (d // c0.denominator),
        c1.numerator * (d // c1.denominator),
        c2.numerator * (d // c2.denominator),
    )


class CubicNumber:
    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0=0, c1=0, c2=0):
        object.__setattr__(self, "c0", Fraction(c0))
        object.__setattr__(self, "c1", Fraction(c1))
        object.__setattr__(self, "c2", Fraction(c2))

    def __setattr__(self, name, value):
        raise AttributeError("CubicNumber is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return CubicNumber(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    __radd__ = __add__

    def __neg__(self):
        return CubicNumber(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        a0, a1, a2 = self.c0, self.c1, self.c2
        b0, b1, b2 = other.c0, other.c1, other.c2
        t0 = a0 * b0
        t1 = a0 * b1 + a1 * b0
        t2 = a0 * b2 + a1 * b1 + a2 * b0
        t3 = a1 * b2 + a2 * b1
        t4 = a2 * b2
        # reduce with 2*L^3 = L^2 + L + 1, hence 4*L^4 = 3*L^2 + 3*L + 1
        return CubicNumber(
            t0 + Fraction(t3, 2) + Fraction(t4, 4),
            t1 + Fraction(t3, 2) + Fraction(3 * t4, 4),
            t2 + Fraction(t3, 2) + Fraction(3 * t4, 4),
        )

    __rmul__ = __mul__

    def inverse(self) -> "CubicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(L)")
        # solve (self * x) = 1 as a 3x3 linear system over Q
        cols = [
            self * CubicNumber(1),
            self * LAMBDA,
            self * LAMBDA * LAMBDA,
        ]
        m = [[col.c0, col.c1, col.c2] for col in cols]  # columns
        # Cramer's rule on the transposed (column-major) matrix
        det = _det3(m)
        sol = []
        rhs = (Fraction(1), Fraction(0), Fraction(0))
        for i in range(3):
            mi = [list(col) for col in m]
            mi[i] = list(rhs)
            sol.append(_det3(mi) / det)
        return CubicNumber(*sol)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int):
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

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def sign(self) -> int:
        return _sign_fraction_triple(self.c0, self.c1, self.c2)

    def compare(self, other) -> int:
        return (self - _coerce(other)).sign()

    def __eq__(self, other):
        if not isinstance(other, (CubicNumber, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return (self.c0, self.c1, self.c2) == (other.c0, other.c1, other.c2)

    def __hash__(self):
        return hash((self.c0, self.c1, self.c2))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- reporting ------------------------------------------------------

    def enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, of width < ``width``."""
        while True:
            lo_l, hi_l = _ENCLOSURE.bounds()
            pts = []
            for x in (lo_l, hi_l):
                pts.append(self.c0 + self.c1 * x + self.c2 * x * x)
            lo = min(pts) - abs(self.c2) * (hi_l - lo_l) * (hi_l + lo_l)
            hi = max(pts) + abs(self.c2) * (hi_l - lo_l) * (hi_l + lo_l)
            if hi - lo < width:
                return lo, hi
            _ENCLOSURE.refine(_ENCLOSURE.k * 2)

    def __float__(self):
        lo, hi = self.enclosure(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"CubicNumber({self.c0!s}, {self.c1!s}, {self.c2!s})"

    def __str__(self):
        return f"{self.c0} + {self.c1}*L + {self.c2}*L^2"

    @classmethod
    def parse(cls, text: str) -> "CubicNumber":
        parts = text.replace(" ", "").split("+")
        c = [Fraction(0)] * 3
        for part in parts:
            if part.endswith("*L^2"):
                c[2] = Fraction(part[:-4])
            elif part.endswith("*L"):
                c[1] = Fraction(part[:-2])
            else:
                c[0] = Fraction(part)
        return cls(*c)


def _coerce(x) -> CubicNumber:
    if isinstance(x, CubicNumber):
        return x
    return CubicNumber(Fraction(x))


def _det3(cols):
    (a, b, c), (d, e, f), (g, h, i) = cols
    return a * (e * i - f * h) - d * (b * i - c * h) + g * (b * f - c * e)


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
    """Weighted length of a reduced word: the sum of its letter weights.

    Valid as the group element's length because reduced normal forms are
    geodesic for the weighted metric.
    """
    return CubicNumber(*length_triple(w))


def length_triple(w: str) -> tuple[int, int, int]:
    c0 = c1 = c2 = 0
    for ch in w:
        t = _WEIGHT_TRIPLE[ch]
        c0 += t[0]
        c1 += t[1]
        c2 += t[2]
    return c0, c1, c2


# cache of L^k as (den, n0, n1, n2) with den a power of two
_POWER_CACHE: dict[int, tuple[int, int, int, int]] = {0: (1, 1, 0, 0)}


def _power_scaled(k: int) -> tuple[int, int, int, int]:
    if k not in _POWER_CACHE:
        p = LAMBDA**k
        den = 1
        for c in (p.c0, p.c1, p.c2):
            while c.denominator > den:
                den *= 2
        _POWER_CACHE[k] = (
            den,
            int(p.c0 * den),
            int(p.c1 * den),
            int(p.c2 * den),
        )
    return _POWER_CACHE[k]


def triple_compare_power(triple: tuple[int, int, int], k: int) -> int:
    """Exact sign of (t0 + t1*L + t2*L^2) - L^k, for integer triples, k >= 0."""
    den, n0, n1, n2 = _power_scaled(k)
    return _sign_int_triple(triple[0] * den - n0, triple[1] * den - n1, triple[2] * den - n2)


def compare_power_to_int(k: int, n) -> int:
    """Exact sign of L^k - n for a rational n, k >= 0."""
    n = Fraction(n)
    den, n0, n1, n2 = _power_scaled(k)
    m = n.denominator
    return _sign_int_triple(n0 * m - n.numerator * den, n1 * m, n2 * m)


def radius_index(n: int) -> int:
    """The unique m with L^(m+1) <= n < L^(m+2), by exact power comparisons."""
    if n < 1:
        raise ValueError("radius_index needs n >= 1")
    # float guess from the enclosure midpoint, then exact verification
    lo, hi = _ENCLOSURE.bounds()
    guess = int(math.log(n) / math.log(float((lo + hi) / 2)))
    m = max(guess - 3, -1)
    while compare_power_to_int(m + 2, n) <= 0:
        m += 1
    while m >= 0 and compare_power_to_int(m + 1, n) > 0:
        m -= 1
    # final m may be -1 for n = 1 (L^0 = 1 <= 1 < L)
    return m


def _atanh_enclosure(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(t) for |t| <= 1/3: the series t^(2j+1)/(2j+1)
    summed exactly until its tail, bounded by the geometric series
    |t|^(2N+1) / ((2N+1)(1 - t^2)), drops below 2**-bits."""
    t2 = t * t
    power = t
    total = Fraction(0)
    j = 0
    while True:
        total += power / (2 * j + 1)
        power *= t2
        j += 1
        tail = abs(power) / ((2 * j + 1) * (1 - t2))
        if tail < Fraction(1, 1 << bits):
            return total - tail, total + tail


def ln_enclosure(y, bits: int = 80) -> tuple[Fraction, Fraction]:
    """Rational enclosure of ln(y) for rational y > 0.

    Writes y = m * 2**k with m in (1/2, 2), so that ln(y) = k ln(2) +
    2 atanh((m - 1)/(m + 1)) with ln(2) = 2 atanh(1/3), and rounds the
    result outward to multiples of 2**-bits; the width is at most
    (4|k| + 6) * 2**-bits.
    """
    y = Fraction(y)
    if y <= 0:
        raise ValueError("ln needs y > 0")
    k = y.numerator.bit_length() - y.denominator.bit_length()
    m = y / Fraction(2) ** k
    half_ln2 = _atanh_enclosure(Fraction(1, 3), bits)
    at_lo, at_hi = _atanh_enclosure((m - 1) / (m + 1), bits)
    lo = 2 * (min(k * x for x in half_ln2) + at_lo)
    hi = 2 * (max(k * x for x in half_ln2) + at_hi)
    q = 1 << bits
    return Fraction(math.floor(lo * q), q), Fraction(math.ceil(hi * q), q)


def log_lambda_enclosure(y, bits: int = 80) -> tuple[Fraction, Fraction]:
    """Rational enclosure of log base L of y (y rational > 0): an enclosure
    of ln(y) divided outward by one of ln(L) over the isolating interval."""
    _ENCLOSURE.refine(bits)
    lam_lo, lam_hi = _ENCLOSURE.bounds()
    den = (ln_enclosure(lam_lo, bits)[0], ln_enclosure(lam_hi, bits)[1])  # ln(L) > 0
    quotients = [x / d for x in ln_enclosure(y, bits) for d in den]
    return min(quotients), max(quotients)

import functools
import math
import os
import random
import subprocess
import sys
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import reduced_words
from grigorchuk import cubic
from grigorchuk.cubic import (
    LAMBDA,
    LAMBDA_INV,
    WEIGHT,
    CubicNumber,
    compare_power_to_int,
    lambda_length,
    length_triple,
    ln_enclosure,
    log_lambda_enclosure,
    radius_index,
    triple_compare_power,
    triple_sign,
)

small_rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
)
cubics = st.builds(CubicNumber, small_rationals, small_rationals, small_rationals)


def test_defining_polynomial():
    assert 2 * LAMBDA**3 == LAMBDA**2 + LAMBDA + 1
    assert LAMBDA * LAMBDA_INV == CubicNumber(1)


def test_lambda_is_the_real_root_near_1_23():
    lo, hi = LAMBDA.enclosure(Fraction(1, 10**6))
    assert Fraction(123, 100) < lo < hi < Fraction(124, 100)


@pytest.mark.parametrize("width", [0, -1])
def test_enclosure_needs_a_positive_width(width):
    """No interval is narrower than 0, so the width is rejected before any
    bounds for L are bisected: refining them would never end."""
    with pytest.raises(ValueError, match="width must be > 0"):
        LAMBDA.enclosure(width)


def test_weight_identities_exact():
    a, b, c, d = (WEIGHT[x] for x in "abcd")
    assert a + c == LAMBDA_INV
    assert a + d == LAMBDA**-2
    assert b == CubicNumber(1) - a
    assert b == LAMBDA**-3
    assert b == c + d
    assert a + b + c + d < CubicNumber(3)


@pytest.mark.parametrize("exponent", [0.5, 2.0])
def test_power_takes_only_int_exponents(exponent):
    """A non-int exponent gets Python's own ** TypeError."""
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*\* or pow\(\)"):
        LAMBDA**exponent


def test_weights_are_positive_and_below_one():
    for x in "abcd":
        assert CubicNumber(0) < WEIGHT[x] < CubicNumber(1)


@given(cubics, cubics)
def test_field_arithmetic_commutes(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert x - y == -(y - x)


@given(cubics, cubics, cubics)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(cubics)
@example(CubicNumber(0))
def test_inverse(x):
    if x != CubicNumber(0):
        assert x * x.inverse() == CubicNumber(1)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@given(cubics, cubics)
def test_order_is_total_and_respects_addition(x, y):
    assert (x < y) + (x == y) + (y < x) == 1
    if x < y:
        assert x + CubicNumber(1) < y + CubicNumber(1)


def test_repr_shows_the_coefficients():
    assert repr(LAMBDA_INV) == "CubicNumber(-1, -1, 2)"


def test_cubic_numbers_are_immutable():
    # hash and the cached powers rely on it
    with pytest.raises(AttributeError, match="immutable"):
        LAMBDA.n0 = 5
    assert LAMBDA == CubicNumber(0, 1, 0)


def test_lambda_length_additive_on_letters():
    assert lambda_length("ab") == WEIGHT["a"] + WEIGHT["b"]
    assert lambda_length("") == CubicNumber(0)
    # the length of the element, not of the letters as written
    assert lambda_length("aa") == CubicNumber(0)
    assert lambda_length("bc") == WEIGHT["d"]


@given(reduced_words())
def test_length_triple_matches_lambda_length(w):
    assert CubicNumber(*length_triple(w)) == lambda_length(w)


@given(st.text(alphabet="abcd", max_size=40))
def test_length_triple_sums_the_letter_weights(w):
    expected = [0, 0, 0]
    for ch in w:
        for i, c in enumerate(cubic._WEIGHT_TRIPLE[ch]):
            expected[i] += c
    assert length_triple(w) == tuple(expected)


@pytest.mark.parametrize("w, bad", [("abx", "x"), ("A", "A"), ("ab ", " ")])
def test_length_triple_names_a_foreign_letter(w, bad):
    with pytest.raises(ValueError, match=repr(bad)):
        length_triple(w)


@pytest.mark.parametrize("w", [None, 5, 2.5, object(), b"ab"])
def test_length_triple_takes_only_a_str(w):
    with pytest.raises(TypeError, match=f"^word must be a str, not {type(w).__name__}$"):
        length_triple(w)


def test_triple_compare_power():
    assert triple_compare_power(length_triple("ab"), 0) == 0  # |ab| = 1
    assert triple_compare_power(length_triple("abab"), 3) == 1  # 2 > L^3
    assert triple_compare_power(length_triple("b"), 0) == -1


def test_radius_index_values():
    assert radius_index(2) == 2
    assert radius_index(5) == 6
    assert radius_index(10) == 9
    assert radius_index(20) == 13


@functools.cache
def _lambda_bracket(bits: int = 64) -> tuple[Fraction, Fraction]:
    """[lo, hi] containing L with hi - lo <= 2**-bits, by Fraction bisection
    of 2X^3 - X^2 - X - 1 (increasing on [1, 2]); shares no code with cubic."""
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > Fraction(1, 2**bits):
        mid = (lo + hi) / 2
        if 2 * mid**3 - mid**2 - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_pinned_radius_levels_by_bisection():
    # second route to i(n): bound L^k by lo^k, hi^k
    lo, hi = _lambda_bracket()
    assert Fraction(123, 100) < lo < hi < Fraction(124, 100)
    for n, m in {2: 2, 5: 6, 10: 9, 20: 13}.items():
        assert hi ** (m + 1) <= n < lo ** (m + 2)  # L^(m+1) <= n < L^(m+2)
        assert radius_index(n) == m
    # the old claim i(10) = 11 needs L^12 <= 10, but already L^11 > 10
    assert lo**11 > 10


def _reference_mul(a, b):
    """Product of Fraction triples, reduced with 4L^4 = 3L^2 + 3L + 1 and
    2L^3 = L^2 + L + 1."""
    t = [Fraction(0)] * 5
    for i in range(3):
        for j in range(3):
            t[i + j] += a[i] * b[j]
    return (
        t[0] + t[3] / 2 + t[4] / 4,
        t[1] + t[3] / 2 + 3 * t[4] / 4,
        t[2] + t[3] / 2 + 3 * t[4] / 4,
    )


def _reference_sign(c) -> int:
    """Sign of c0 + c1*L + c2*L^2 by interval evaluation over ever finer
    bisection brackets (L > 0, so each term is monotone in L)."""
    if not any(c):
        return 0
    bits = 64
    while True:
        lo, hi = _lambda_bracket(bits)
        terms = [(c[1] * x, c[2] * x * x) for x in (lo, hi)]
        low = c[0] + min(t[0] for t in terms) + min(t[1] for t in terms)
        high = c[0] + max(t[0] for t in terms) + max(t[1] for t in terms)
        if low > 0 or high < 0:
            return 1 if low > 0 else -1
        bits *= 2


def _convergents(bits: int = 256):
    """The convergents p/q of L's continued fraction, while the bisection
    bracket at these bits still fixes each partial quotient."""
    lo, hi = _lambda_bracket(bits)
    (p0, q0), (p1, q1) = (1, 0), (0, 1)
    while math.floor(lo) == math.floor(hi):
        a = math.floor(lo)
        p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
        yield p0, q0
        if lo == a:
            return
        lo, hi = 1 / (hi - a), 1 / (lo - a)


def _power_ceiling_by_bisection(k: int) -> int:
    """ceil(L^k) for k >= 1, from brackets fine enough to fix it."""
    bits = 128
    while True:
        lo, hi = _lambda_bracket(bits)
        if math.ceil(lo**k) == math.ceil(hi**k):
            return math.ceil(lo**k)
        bits *= 2


def test_triple_sign_decides_near_ties():
    """p - q*L for the convergents p/q of L, which alternate about L and
    come within 1/q^2 of it, and L^k against ceil(L^k) and ceil(L^k) - 1,
    agree with the bisection oracle."""
    ps = list(_convergents())
    assert ps[-1][1] > 2**60
    for i, (p, q) in enumerate(ps):
        assert triple_sign(p, -q, 0) == _reference_sign((p, -q, 0)) == (-1) ** (i + 1), (p, q)
    for k in range(1, 201):
        x = LAMBDA**k
        c = _power_ceiling_by_bisection(k)
        for n, sign in ((c, -1), (c - 1, 1)):
            t = (x.n0 - n * x.den, x.n1, x.n2)
            assert triple_sign(*t) == _reference_sign(t) == sign, (k, n)


def test_triple_sign_takes_only_ints():
    """The determinant is exact only in integers: in float arithmetic this
    near-tie p - q*L gets the wrong sign, so floats are a TypeError."""
    t = (722427618, -585553385, 0)
    assert triple_sign(*t) == _reference_sign(t)
    with pytest.raises(TypeError, match="float"):
        triple_sign(*map(float, t))
    with pytest.raises(TypeError, match="Fraction"):
        triple_sign(Fraction(1, 2), 0, 0)


def test_enclosures_do_not_depend_on_earlier_signs():
    """A near-tie decided before leaves L's enclosure as it was: the one
    over the 64-bit bisection bracket."""
    p, q = next((p, q) for p, q in _convergents() if q > 2**40)
    assert LAMBDA.enclosure(Fraction(1, 10**6)) == _lambda_bracket(64)
    assert triple_sign(p, -q, 0) != 0
    assert LAMBDA.enclosure(Fraction(1, 10**6)) == _lambda_bracket(64)


def _fractions_of(x: CubicNumber):
    assert x.den > 0 and math.gcd(x.n0, x.n1, x.n2, x.den) == 1  # canonical
    return tuple(Fraction(n, x.den) for n in (x.n0, x.n1, x.n2))


triples = st.tuples(small_rationals, small_rationals, small_rationals)


@given(triples, triples)
def test_arithmetic_agrees_with_fraction_reference(a, b):
    x, y = CubicNumber(*a), CubicNumber(*b)
    assert _fractions_of(x) == a
    assert _fractions_of(x + y) == tuple(p + q for p, q in zip(a, b))
    assert _fractions_of(x - y) == tuple(p - q for p, q in zip(a, b))
    assert _fractions_of(x * y) == _reference_mul(a, b)
    assert x.compare(y) == _reference_sign(tuple(p - q for p, q in zip(a, b)))
    assert (x * y).sign() == _reference_sign(_reference_mul(a, b))


def test_hash_agrees_with_equality():
    assert {CubicNumber(1): "one"}[1] == "one"
    assert Fraction(1, 2) in {CubicNumber(Fraction(1, 2))}
    assert CubicNumber(Fraction(6, 4), 0, 0) in {Fraction(3, 2)}
    assert hash(LAMBDA * LAMBDA_INV) == hash(1)
    assert hash(LAMBDA) == hash(LAMBDA * 1) != hash(LAMBDA_INV)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        CubicNumber(0.1)
    with pytest.raises(TypeError):
        CubicNumber(1) < 1.0
    with pytest.raises(TypeError):
        CubicNumber(1) <= 1.0
    with pytest.raises(TypeError):
        CubicNumber(1) * 0.5
    with pytest.raises(TypeError):
        0.5 * CubicNumber(1)
    assert CubicNumber(1) != 1.0


@given(st.integers(min_value=1, max_value=100_000))
def test_radius_index_brackets_exactly(n):
    m = radius_index(n)
    assert compare_power_to_int(m + 1, n) <= 0
    assert compare_power_to_int(m + 2, n) > 0


def test_log_lambda_enclosure_of_4():
    lo, hi = log_lambda_enclosure(4)
    assert lo < hi
    assert hi - lo < Fraction(1, 10**6)
    # rounds to 6.60 at two decimals
    assert Fraction(6595, 1000) < lo < hi < Fraction(6605, 1000)


positive_rationals = st.fractions(
    min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6
)


@given(positive_rationals, positive_rationals)
def test_ln_enclosure_is_additive(p, q):
    lo, hi = ln_enclosure(p * q)
    p_lo, p_hi = ln_enclosure(p)
    q_lo, q_hi = ln_enclosure(q)
    assert lo <= hi
    assert lo <= p_hi + q_hi and p_lo + q_lo <= hi


def test_ln_enclosure_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_enclosure(0)


@pytest.mark.parametrize("enclosure", [ln_enclosure, log_lambda_enclosure])
@pytest.mark.parametrize("y", [0.1, 2.0, "3", Decimal(3)], ids=["0.1", "2.0", "str", "Decimal"])
def test_enclosures_reject_what_is_not_an_int_or_fraction(enclosure, y):
    # Fraction(y) would take each of these: ln 0.1000000000000000055... for 0.1
    with pytest.raises(TypeError, match="int or Fraction"):
        enclosure(y)


def _atanh_by_fractions(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(t) for |t| <= 1/3, of width below 2**-bits: the
    series t^(2j+1)/(2j+1) summed in exact Fractions until its tail bound
    |t|^(2N+1) / ((2N+1)(1 - t^2)) drops below 2**-(bits+1): an oracle
    that shares no rounding with cubic._atanh_fixed."""
    t2 = t * t
    power = t
    total = Fraction(0)
    j = 0
    while True:
        total += power / (2 * j + 1)
        power *= t2
        j += 1
        tail = abs(power) / ((2 * j + 1) * (1 - t2))
        if tail < Fraction(1, 1 << (bits + 1)):
            return total - tail, total + tail


_SERIES_UNIT = Fraction(1, 1 << cubic._SERIES_BITS)


@st.composite
def series_arguments(draw):
    """(p, q) with q > 0 and |p/q| <= 1/3, each of up to 80 bits."""
    q = draw(st.integers(min_value=1, max_value=1 << 80))
    return draw(st.integers(min_value=-(q // 3), max_value=q // 3)), q


@given(series_arguments())
@example((0, 1))
@example((1, 3))
@example((-1, 3))
@example((-1, 1 << 32))  # one exact term: only the tail keeps the lower end below
@example(((1 << 80) // 3, 1 << 80))
def test_fixed_point_atanh_meets_the_fraction_series(pq):
    """The integer enclosure meets a Fraction-series one 2**20 times
    narrower, so an endpoint off by a single unit of 2**-_SERIES_BITS
    shows."""
    p, q = pq
    lo, hi = cubic._atanh_fixed(p, q)
    o_lo, o_hi = _atanh_by_fractions(Fraction(p, q), cubic._SERIES_BITS + 20)
    assert lo * _SERIES_UNIT <= o_hi and o_lo <= hi * _SERIES_UNIT
    assert 0 <= hi - lo <= 30


def test_half_ln2_constant_meets_the_fraction_series():
    lo, hi = cubic._HALF_LN2
    o_lo, o_hi = _atanh_by_fractions(Fraction(1, 3), cubic._SERIES_BITS + 20)
    assert lo * _SERIES_UNIT <= o_hi and o_lo <= hi * _SERIES_UNIT
    assert hi - lo <= 2


@given(
    st.integers(min_value=1, max_value=1 << 80),
    st.integers(min_value=1, max_value=1 << 80),
    st.integers(min_value=-1000, max_value=1000),
)
@example(1, 1, 0)
@example(1, 1, 1000)
@example((1 << 40) + 1, 1, 0)
def test_ln_enclosure_meets_the_fraction_series(a, b, shift):
    """ln(y) = 2k atanh(1/3) + 2 atanh(t) by the Fraction series meets the
    enclosure, whose endpoints are multiples of 2**-80 at most two apart
    (|k| <= 1081 here)."""
    y = Fraction(a, b) * Fraction(2) ** shift
    lo, hi = ln_enclosure(y)
    assert (lo * (1 << 80)).denominator == 1 and (hi * (1 << 80)).denominator == 1
    assert 0 <= hi - lo <= Fraction(2, 1 << 80)
    k = y.numerator.bit_length() - y.denominator.bit_length()
    m = y / Fraction(2) ** k
    h_lo, h_hi = _atanh_by_fractions(Fraction(1, 3), 100)
    a_lo, a_hi = _atanh_by_fractions((m - 1) / (m + 1), 100)
    o_lo = 2 * (min(k * h_lo, k * h_hi) + a_lo)
    o_hi = 2 * (max(k * h_lo, k * h_hi) + a_hi)
    assert lo <= o_hi and o_lo <= hi
    ln_y = math.log(a) - math.log(b) + shift * math.log(2)
    assert lo - 1e-9 <= ln_y <= hi + 1e-9


def test_log_checks_run_without_mpmath():
    import grigorchuk

    script = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from grigorchuk import reports\n"
        "for check in (reports.check_radius_index, reports.check_growth_cross):\n"
        "    (rep,) = check()\n"
        "    assert rep.status == 'pass', check\n"
    )
    src = os.path.dirname(os.path.dirname(grigorchuk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_enclosure_contains_value():
    x = WEIGHT["a"] * LAMBDA - CubicNumber(Fraction(1, 3))
    lo, hi = x.enclosure(Fraction(1, 10**9))
    assert CubicNumber(lo) <= x <= CubicNumber(hi)
    assert hi - lo <= Fraction(2, 10**9)


def test_enclosure_narrower_than_64_bits():
    # L's 64-bit bounds are too wide for a width of 2^-80, so they double
    lo, hi = LAMBDA.enclosure(Fraction(1, 2**80))
    assert CubicNumber(lo) <= LAMBDA <= CubicNumber(hi)
    assert hi - lo < Fraction(1, 2**80)


def test_radius_index_rejects_zero():
    # a plain int in range skips check_int; everything else still meets it
    with pytest.raises(ValueError, match="^radius must be >= 1$"):
        radius_index(0)


@pytest.mark.parametrize("n", [True, 2.0, Fraction(5)])
def test_radius_index_takes_only_int(n):
    with pytest.raises(TypeError, match=f"^radius must be an int, not {type(n).__name__}$"):
        radius_index(n)


def test_radius_index_takes_an_int_subclass():
    class Radius(int):
        pass

    assert [radius_index(Radius(n)) for n in (1, 2, 20, 10**6)] == [
        radius_index(n) for n in (1, 2, 20, 10**6)
    ]


def test_lambda_power_agrees_with_pow():
    # each power squares a cached half; built cold from a large k down and
    # from a small k up, both orders agree with L**k
    for ks in (range(300, -3, -1), range(-2, 301)):
        cubic._lambda_power.cache_clear()
        assert [cubic._lambda_power(k) for k in ks] == [LAMBDA**k for k in ks]


def test_power_ceilings_by_bisection():
    lo, hi = _lambda_bracket(128)
    for k in range(81):
        c = cubic._power_ceiling(k)
        assert hi**k <= c and c - 1 < lo**k  # c - 1 < L^k <= c


def _radius_index_by_comparison(n: int) -> int:
    """i(n) by exact comparisons of L^k with n, as radius_index found it
    before it read integer thresholds."""
    m = max(int(math.log(n) / math.log(float(LAMBDA))) - 3, -1)
    while compare_power_to_int(m + 2, n) <= 0:
        m += 1
    while m >= 0 and compare_power_to_int(m + 1, n) > 0:
        m -= 1
    return m


def test_radius_index_agrees_with_exact_comparison():
    rng = random.Random(2025)
    ns = list(range(1, 20_001)) + [rng.randint(1, 10**9) for _ in range(2_000)]
    assert [radius_index(n) for n in ns] == [_radius_index_by_comparison(n) for n in ns]


def test_radius_index_reads_two_thresholds_per_n(monkeypatch):
    # the float estimate less one is i(n) here, so each correcting loop
    # reads one threshold and stops; n = 1 (m = -1) skips the second
    calls = []
    real = cubic._power_ceiling
    monkeypatch.setattr(cubic, "_power_ceiling", lambda k: calls.append(k) or real(k))
    for n in range(1, 10_001):
        radius_index(n)
    assert len(calls) == 2 * 10_000 - 1


@pytest.mark.parametrize("scale", [0.97, 1.03])
def test_radius_index_corrects_a_wrong_guess(monkeypatch, scale):
    """With log(L) 3 % off, the float guess is wrong for most n, too high
    (0.97) or too low (1.03), and the correcting loops alone make i(n) the
    m with T_(m+1) <= n < T_(m+2) over the thresholds T_k = ceil(L^k), for
    n = 1..10 000 and at both ends of each threshold interval up to 10^6."""
    thresholds = [cubic._power_ceiling(0)]
    while thresholds[-1] <= 10**6:
        thresholds.append(cubic._power_ceiling(len(thresholds)))
    edges = sorted({n for t in thresholds for n in (t - 1, t) if 10_000 < n <= 10**6})
    ns = [*range(1, 10_001), *edges]
    monkeypatch.setattr(cubic, "_LOG_LAMBDA", cubic._LOG_LAMBDA * scale)
    assert [radius_index(n) for n in ns] == [bisect_right(thresholds, n) - 2 for n in ns]


@given(cubics, st.integers(min_value=-(10**12), max_value=10**12))
def test_compare_with_int_agrees_with_cubic(x, n):
    assert x.compare(n) == x.compare(CubicNumber(n))

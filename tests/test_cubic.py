import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import reduced_words
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


def test_weight_identities_exact():
    a, b, c, d = (WEIGHT[x] for x in "abcd")
    assert a + c == LAMBDA_INV
    assert a + d == LAMBDA**-2
    assert b == CubicNumber(1) - a
    assert b == LAMBDA**-3
    assert b == c + d
    assert a + b + c + d < CubicNumber(3)


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
def test_inverse(x):
    if x != CubicNumber(0):
        assert x * x.inverse() == CubicNumber(1)


@given(cubics, cubics)
def test_order_is_total_and_respects_addition(x, y):
    assert (x < y) + (x == y) + (y < x) == 1
    if x < y:
        assert x + CubicNumber(1) < y + CubicNumber(1)


def test_parse_roundtrip():
    x = CubicNumber(Fraction(1, 2), -3, Fraction(7, 5))
    assert CubicNumber.parse(str(x)) == x


def test_lambda_length_additive_on_letters():
    assert lambda_length("ab") == WEIGHT["a"] + WEIGHT["b"]
    assert lambda_length("") == CubicNumber(0)


@given(reduced_words())
def test_length_triple_matches_lambda_length(w):
    assert CubicNumber(*length_triple(w)) == lambda_length(w)


def test_triple_compare_power():
    assert triple_compare_power(length_triple("ab"), 0) == 0  # |ab| = 1
    assert triple_compare_power(length_triple("abab"), 3) == 1  # 2 > L^3
    assert triple_compare_power(length_triple("b"), 0) == -1


def test_radius_index_values():
    assert radius_index(2) == 2
    assert radius_index(5) == 6
    assert radius_index(10) == 9
    assert radius_index(20) == 13


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


def test_log_checks_run_without_mpmath():
    import grigorchuk

    script = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from grigorchuk import reports\n"
        "cfg = reports.CheckConfig(radius_exhaustive=100, radius_random=5, growth_maxn=5)\n"
        "for check in (reports.check_radius_index, reports.check_growth_cross):\n"
        "    assert check(cfg).status == 'pass', check\n"
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


def test_radius_index_rejects_zero():
    with pytest.raises(ValueError):
        radius_index(0)

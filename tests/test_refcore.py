"""Reference-kernel accuracy and self-consistency.

mpmath (50 digits) is the independent oracle.
"""

import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gamma_envelope import refcore

mp.mp.dps = 50


def test_backend_name():
    assert refcore.backend() == "python"


class TestLnGamma:
    def test_at_one(self):
        assert refcore.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_at_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert refcore.ln_gamma(0.5) == pytest.approx(
            math.log(math.sqrt(math.pi)), rel=1e-14
        )

    def test_at_3_5_via_recurrence(self):
        # Gamma(3.5) = 2.5 * 1.5 * Gamma(1.5), Gamma(1.5) = sqrt(pi)/2
        expected = math.log(2.5 * 1.5 * math.sqrt(math.pi) / 2.0)
        assert refcore.ln_gamma(3.5) == pytest.approx(expected, rel=1e-13)

    def test_accuracy_sweep(self):
        rng = random.Random(20240811)
        xs = [10.0**e for e in range(-3, 7)]
        xs += [rng.uniform(1e-3, 100.0) for _ in range(400)]
        xs += [rng.uniform(100.0, 1e6) for _ in range(100)]
        for x in xs:
            ref = float(mp.loggamma(x))
            assert abs(refcore.ln_gamma(x) - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                refcore.ln_gamma(bad)


# 10^-k, 1 +- 10^-k and 2 +- 10^-k for k = 3..12: the pole of ln Gamma at 0
# and its zeros at 1 and 2, approached from both sides
NEAR_ZEROS = [10.0**-k for k in range(3, 13)] + [
    c + s * 10.0**-k for k in range(3, 13) for c in (1.0, 2.0)
    for s in (-1.0, 1.0)]


def _rel_err(value, ref):
    return abs(value - ref) / abs(ref)


class TestNearZeros:
    def test_ln_gamma(self):
        for x in NEAR_ZEROS:
            ref = mp.loggamma(x)
            assert _rel_err(refcore.ln_gamma(x), ref) <= 2e-15, x

    def test_ln_gamma1p_and_twin(self):
        # at the same arguments of Gamma: 1 + x near 0, 1 and 2, x from
        # -1 + 10^-k to 1 + 10^-k
        xs = [x - 1.0 for x in NEAR_ZEROS]
        twin = refcore.ln_gamma1p_array(np.array(xs))
        for x, v in zip(xs, twin.tolist()):
            ref = mp.loggamma(1 + mp.mpf(x))
            assert _rel_err(refcore.ln_gamma1p(x), ref) <= 2e-15, x
            assert _rel_err(v, ref) <= 2e-15, x

    def test_ln_gamma1p_exact_zeros(self):
        assert refcore.ln_gamma1p(0.0) == 0.0
        assert refcore.ln_gamma1p(1.0) == 0.0
        assert refcore.ln_gamma(1.0) == refcore.ln_gamma(2.0) == 0.0

    def test_ln_gamma1p_far_from_zeros_is_ln_gamma(self):
        for x in (-0.5, 0.1, 0.5, 0.9 - 1e-9, 1.5, 3.5, 1e6):
            assert refcore.ln_gamma1p(x) == refcore.ln_gamma(1.0 + x)

    @pytest.mark.parametrize("lam", [1.0, 6.0])
    def test_log_base_arg_within_4_ulps(self, lam):
        for x in (1.0 + s * 10.0**-k for k in range(3, 13) for s in (-1, 1)):
            m = mp.mpf(x)
            ref = float(m * (m - 1) / (m + lam))
            assert abs(refcore.log_base_arg(x, lam) - ref) <= 4 * math.ulp(
                ref), x

    @pytest.mark.parametrize("x", [1e154, 1.3e154, 1.35e154, 1e200, 1e300,
                                   1.7e308])
    @pytest.mark.parametrize("lam", [1.0, 6.0])
    def test_log_base_arg_past_the_product_overflow(self, x, lam):
        # x(x-1) overflows past ~1.34e154; the value does not
        m = mp.mpf(x)
        ref = float(m * (m - 1) / (m + lam))
        for value in (refcore.log_base_arg(x, lam),
                      refcore.log_base_arg(np.array([0.5, x]), lam)[1]):
            assert abs(value - ref) <= 4 * math.ulp(ref), x

    def test_log_base_arg_keeps_its_bits_where_the_product_is_finite(self):
        xs = np.array([0.5, 2.0, 1e100, 1e154, 1.3e154, 1e200])
        plain = [x * (x - 1.0) / (x + 2.0) for x in xs[:-1].tolist()]
        assert refcore.log_base_arg(xs, 2.0)[:-1].tolist() == plain
        assert [refcore.log_base_arg(x, 2.0)
                for x in xs[:-1].tolist()] == plain

    @pytest.mark.parametrize("lam", [1.0, 2.0, 6.0])
    def test_log_base_keeps_its_digits_next_to_0_and_1(self, lam):
        # ln((x^2+lam)/(x+lam)) vanishes at 0 and 1; within 4 ulps there,
        # the same bits on a float and on an array
        xs = [s * 10.0**-k for k in range(1, 17) for s in (1.0, -1.0)]
        xs = [x for x in xs if x > 0.0] + [1.0 + x for x in xs] + [1e-300]
        on_array = refcore.log_base(refcore.ON_ARRAY, np.array(xs), lam)
        for x, element in zip(xs, on_array.tolist()):
            with mp.workdps(50):  # ln(1 + x(x-1)/(x+lam)), exactly
                m = mp.mpf(x)
                ref = float(mp.log1p(m * (m - 1) / (m + lam)))
            value = refcore.log_base(refcore.AT_POINT, x, lam)
            assert value == element
            assert abs(value - ref) <= 4 * math.ulp(ref), x

    @pytest.mark.parametrize("bad", [-1.0, -2.0, math.nan, math.inf])
    def test_ln_gamma1p_domain(self, bad):
        with pytest.raises(ValueError):
            refcore.ln_gamma1p(bad)


class TestDigamma:
    def test_at_one_is_minus_gamma(self):
        assert refcore.digamma(1.0) == pytest.approx(
            -refcore.EULER_GAMMA, abs=1e-13
        )

    def test_at_two(self):
        assert refcore.digamma(2.0) == pytest.approx(
            1.0 - refcore.EULER_GAMMA, abs=1e-13
        )

    def test_at_half(self):
        assert refcore.digamma(0.5) == pytest.approx(
            -refcore.EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12
        )

    def test_accuracy_sweep(self):
        rng = random.Random(7)
        for _ in range(400):
            x = rng.uniform(1e-3, 1e4)
            ref = float(mp.digamma(x))
            assert abs(refcore.digamma(x) - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            refcore.digamma(-2.0)


class TestPolygamma:
    def test_trigamma_at_one(self):
        assert refcore.polygamma(1, 1.0) == pytest.approx(
            math.pi**2 / 6.0, rel=1e-13
        )

    def test_trigamma_at_two(self):
        # recurrence: psi'(2) = psi'(1) - 1
        assert refcore.polygamma(1, 2.0) == pytest.approx(
            math.pi**2 / 6.0 - 1.0, rel=1e-12
        )

    def test_psi2_recurrence_at_two(self):
        assert refcore.polygamma(2, 2.0) == pytest.approx(
            refcore.polygamma(2, 1.0) + 2.0, rel=1e-12
        )

    def test_sign_pattern(self):
        for k in (1, 2, 3):
            v = refcore.polygamma(k, 3.7)
            assert (-1.0) ** (k + 1) * v > 0.0

    def test_accuracy_sweep(self):
        rng = random.Random(11)
        for _ in range(200):
            x = rng.uniform(1e-3, 1e4)
            for k in (1, 2, 3):
                ref = float(mp.polygamma(k, x))
                assert abs(refcore.polygamma(k, x) - ref) <= 1e-10 * abs(ref)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            refcore.polygamma(4, 1.0)
        with pytest.raises(ValueError):
            refcore.polygamma(0, 1.0)

    # psi^(k)(x) ~ k!/x^(k+1) leaves double range below about
    # 1e-154, 1e-103 and 1e-77 (k = 1, 2, 3); the Taylor band's x^(k+1)
    # underflows to 0 from 1e-162, 1e-108 and 1e-81
    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 2, 3]),
           x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(k=1, x=1e-162)
    @example(k=1, x=1e-155)
    @example(k=2, x=1e-108)
    @example(k=3, x=1e-81)
    @example(k=3, x=5e-324)
    def test_finite_or_value_error(self, k, x):
        for kernel in (refcore.polygamma, lambda k, x:
                       refcore.polygamma_array(k, np.array([x]))[0]):
            try:
                value = kernel(k, x)
            except ValueError:
                continue
            assert math.isfinite(value), (k, x)


class TestConsistency:
    def test_lngamma_recurrence(self):
        rng = random.Random(123)
        for _ in range(1000):
            x = rng.uniform(0.5, 100.0)
            lhs = refcore.ln_gamma(x + 1.0)
            rhs = refcore.ln_gamma(x) + math.log(x)
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))

    def test_digamma_recurrence(self):
        rng = random.Random(123)
        for _ in range(1000):
            x = rng.uniform(0.5, 100.0)
            assert refcore.digamma(x + 1.0) - refcore.digamma(x) == (
                pytest.approx(1.0 / x, abs=1e-11)
            )

    def test_digamma_derivative_matches_trigamma(self):
        h = 1e-5
        for x in (0.7, 1.3, 2.9, 10.1, 42.0):
            fd = (refcore.digamma(x + h) - refcore.digamma(x - h)) / (2 * h)
            assert fd == pytest.approx(refcore.polygamma(1, x), abs=1e-6)


class TestConstants:
    def test_euler_gamma_window(self):
        c = refcore.constants()
        assert 0.577215664 < c.euler_gamma < 0.577215665

    def test_import_check_catches_a_broken_digamma(self, monkeypatch):
        refcore._check_gamma_literal()
        monkeypatch.setattr(refcore, "digamma", lambda x: -0.6)
        with pytest.raises(RuntimeError, match="disagrees"):
            refcore._check_gamma_literal()

    def test_exact_relations(self):
        c = refcore.constants()
        assert c.alpha_sharp == 2.0 * (1.0 - c.euler_gamma)
        assert c.beta_sharp == c.euler_gamma
        assert c.alzer_alpha == 1.0 - c.euler_gamma

    def test_envelope_exponents(self, monkeypatch):
        # f_lambda's limits at 1 and 0; the sharp pair is lambda = 1, and
        # each call reads the literal afresh
        c = refcore.constants()
        assert refcore.envelope_exponents(1.0) == (c.alpha_sharp,
                                                   c.beta_sharp)
        g = c.euler_gamma
        assert refcore.envelope_exponents(6.0) == (7.0 * (1.0 - g), 6.0 * g)
        monkeypatch.setattr(refcore, "EULER_GAMMA", 0.5)
        assert refcore.envelope_exponents(2.0) == (1.5, 1.0)

    def test_five_decimal_anchors(self):
        c = refcore.constants()
        # the published decimals are truncated, not rounded, so the
        # window is one unit in the last printed place
        assert c.alzer_alpha == pytest.approx(0.42278, abs=1e-5)
        assert c.alzer_beta == pytest.approx(0.53385, abs=1e-5)
        assert c.alpha_sharp == pytest.approx(0.8455687, abs=5e-8)
        assert c.beta_sharp == pytest.approx(0.5772157, abs=5e-8)

    def test_series_coefficients_exact(self):
        # each float coefficient is the correctly rounded exact rational
        lngamma = [(1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
                   (-691, 360360), (1, 156), (-3617, 122400),
                   (43867, 244188), (-174611, 125400)]
        digamma = [(1, 12), (-1, 120), (1, 252), (-1, 240), (1, 132),
                   (-691, 32760), (1, 12), (-3617, 8160), (43867, 14364),
                   (-174611, 6600)]
        assert refcore._LNGAMMA_COEFFS == tuple(
            float(Fraction(p, q)) for p, q in lngamma
        )
        assert refcore._DIGAMMA_COEFFS == tuple(
            float(Fraction(p, q)) for p, q in digamma
        )
        # psi^(k) series: float(B_2n) times (2n+k-1)!/(2n)!, per order
        for k, (_, _, _, _, coeffs) in refcore._POLYGAMMA_CONSTANTS.items():
            assert coeffs == tuple(
                float(Fraction(*b)) * (math.factorial(2 * n + k - 1)
                                       // math.factorial(2 * n))
                for n, b in enumerate(refcore._BERNOULLI, 1)
            )

    def test_built_once(self):
        assert refcore.constants() is refcore.constants()

    def test_literal_matches_kernel(self):
        assert abs(refcore.EULER_GAMMA + refcore.digamma(1.0)) <= 1e-12


class TestZetaTable:
    def test_entries_correctly_rounded(self):
        # zeta(m) - 1 at 50 digits, rounded once to double, for m = 2..14
        with mp.workdps(50):
            expected = tuple(float(mp.zeta(m) - 1) for m in range(2, 15))
        assert refcore.ZETA_MINUS_ONE == expected


def _ulps_around(c, n=4):
    """c and the n doubles on either side of it."""
    out, below, above = [c], c, c
    for _ in range(n):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return sorted(out)


class TestTaylorBand:
    """ln Gamma on (0, 2.5) and ln_gamma1p on (-1, 1.5): the Taylor series
    about 2, with no recurrence shift."""

    @pytest.mark.parametrize("kernel, low, high, oracle", [
        (refcore.ln_gamma, 0.5, 2.5, mp.loggamma),
        (refcore.ln_gamma1p, -0.5, 1.5, lambda x: mp.loggamma(1 + mp.mpf(x))),
    ], ids=["ln_gamma", "ln_gamma1p"])
    def test_against_mpmath(self, kernel, low, high, oracle):
        rng = random.Random(20261018)
        xs = [rng.uniform(low, high) for _ in range(2000)]
        xs += [x for c in (low, low + 1.0, high) for x in _ulps_around(c)]
        for x in xs:
            err = _rel_err(kernel(x), oracle(x))
            if low < x < high:
                assert err <= 2e-15, x
            else:
                # just outside the band the shift keeps its absolute
                # error: up to 1.4e-14 relative at 2.5 + 4 ulps
                assert err <= 2e-14, x

    def test_twin_equals_scalar_at_branch_edges(self):
        # 1 + x rounds onto 0.5 or 2.5 just inside (-0.5, 1.5); the twin
        # takes the scalar kernel's branch there too (TestArrayKernels
        # compares the two inside the band)
        xs = [x for c in (-0.5, -0.1, 0.1, 0.5, 0.9, 1.5)
              for x in _ulps_around(c)]
        twin = refcore.ln_gamma1p_array(np.array(xs)).tolist()
        assert twin == [refcore.ln_gamma1p(x) for x in xs]

    def test_ln_gamma_twin_equals_scalar_on_the_band(self):
        rng = random.Random(15)
        xs = [rng.uniform(0.5, 2.5) for _ in range(2000)]
        xs += [x for c in (0.5, 1.0, 1.5, 2.0, 2.5) for x in _ulps_around(c)]
        twin = refcore.ln_gamma_array(np.array(xs)).tolist()
        assert twin == [refcore.ln_gamma(x) for x in xs]

    def test_ln_gamma_twin_overflows_as_the_scalar(self):
        # past x ~ 2.56e305 the Stirling sum leaves double range
        xs = [1e305, 1e306, 1.7e308]
        twin = refcore.ln_gamma_array(np.array(xs)).tolist()
        assert twin == [refcore.ln_gamma(x) for x in xs]
        assert twin[1:] == [math.inf, math.inf]


# (id, scalar kernel, array twin, oracle, order k of psi^(k); None for
# ln Gamma)
_FIVE = [
    ("ln_gamma", refcore.ln_gamma, refcore.ln_gamma_array, mp.loggamma,
     None),
    ("digamma", refcore.digamma, refcore.digamma_array, mp.digamma, 0),
] + [
    ("polygamma%d" % k, partial(refcore.polygamma, k),
     partial(refcore.polygamma_array, k), partial(mp.polygamma, k), k)
    for k in (1, 2, 3)
]


# The band tables' derivation, at 60 digits: the Taylor series about 2 to
# degree 60, re-expanded in Chebyshev polynomials T_j(2z), cut after its
# first n terms, re-expanded in powers of z and each coefficient rounded
# once.  The error of the cut on |z| <= 1/2, where |T_j| <= 1, is at most
# the dropped Chebyshev coefficients' absolute sum plus the Taylor tail.
_DEGREE = 60


def _taylor_about_2(k, n):
    """The Taylor coefficients of z^0..z^n about 2 of ln Gamma(2+z)/z (k
    None) or psi^(k)(2+z): (-1)^m (zeta(m)-1)/m at z^(m-1) and
    (-1)^(k+m+1) (k+m)!/m! (zeta(k+m+1)-1) at z^m, with 1 - gamma at z^0
    for ln Gamma and psi (DLMF 5.7.3, 5.7.4, 5.15.1)."""
    if k is None:
        return [1 - mp.euler] + [(-1) ** m * (mp.zeta(m) - 1) / m
                                 for m in range(2, n + 2)]
    head = [1 - mp.euler] if k == 0 else []
    return head + [(-1) ** (k + m + 1) * mp.factorial(k + m) / mp.factorial(m)
                   * (mp.zeta(k + m + 1) - 1) for m in range(len(head), n + 1)]


def _chebyshev_t(j):
    """The integer coefficients of T_j, lowest power first."""
    prev, cur = [1], [0, 1]
    for _ in range(j - 1):
        prev, cur = cur, [2 * c - p for c, p in
                          zip([0] + cur, prev + [0, 0])]
    return cur if j else prev


@functools.lru_cache(maxsize=None)
def _chebyshev_about_2(k):
    """(c_0..c_60 of the series in T_j(2z), the Taylor tail past degree
    60 at |z| = 1/2, the smallest |f| on |z| <= 1/2), at 60 digits."""
    with mp.workdps(60):
        # to degree 180, past which a term is below 60 digits of the tail
        taylor = _taylor_about_2(k, 3 * _DEGREE)
        tail = sum(abs(c) / mp.mpf(2) ** m
                   for m, c in enumerate(taylor) if m > _DEGREE)
        # c z^m = c 2^-m t^m, t = 2z, and t^m = 2^(1-m) sum_i C(m, i)
        # T_(m-2i), with T_0 taken at half weight
        cheb = [mp.mpf(0)] * (_DEGREE + 1)
        for m, c in enumerate(taylor[:_DEGREE + 1]):
            for i in range(m // 2 + 1):
                w = c * mp.binomial(m, i) / mp.mpf(2) ** (2 * m - 1)
                cheb[m - 2 * i] += w / 2 if 2 * i == m else w
        ends = [mp.loggamma(2 + z) / z if k is None
                else mp.polygamma(k, 2 + z)
                for z in (mp.mpf(-0.5), mp.mpf(0.5))]
        # each |f| is monotone on the band
        floor = min(map(abs, ends))
    return cheb, tail, floor


def _economized(k, n):
    """The first n Chebyshev terms in powers of z, each coefficient rounded
    once, highest power first."""
    cheb = _chebyshev_about_2(k)[0]
    with mp.workdps(60):
        power = [mp.mpf(0)] * n
        for j in range(n):
            for i, w in enumerate(_chebyshev_t(j)):
                power[i] += cheb[j] * w * mp.mpf(2) ** i
    return tuple(float(c) for c in reversed(power))


def _cut_error(k, n):
    """The error bound of the first n Chebyshev terms, over the smallest
    |f| on the band."""
    cheb, tail, floor = _chebyshev_about_2(k)
    with mp.workdps(60):
        return (sum(map(abs, cheb[n:])) + tail) / floor


@pytest.mark.parametrize("name, scalar, twin, oracle, k", _FIVE,
                         ids=[f[0] for f in _FIVE])
class TestFiveKernelBand:
    """Every kernel on (0, 2.5): its Taylor series about 2, economized, at
    z = x - 2, x - 1 or x, with no recurrence shift."""

    def test_seams_against_mpmath(self, name, scalar, twin, oracle, k):
        # the seams 0.5, 1.5 and 2.5, their neighbours, and 1 and 2
        xs = [x for c in (0.5, 1.5, 2.5) for x in _ulps_around(c, 2)]
        xs += [1.0, 2.0]
        with mp.workdps(30):
            for x in xs:
                ref = oracle(x)
                value = scalar(x)
                if ref == 0:  # ln Gamma at 1 and 2
                    assert value == 0.0, x
                    continue
                # psi: 3.1e-15 at 1.5 - 1 ulp, next to its zero at 1.4616;
                # past 2.5 the shift keeps its absolute error
                assert _rel_err(value, ref) <= (4e-15 if x < 2.5 else 2e-14), x
        # past 2.5 only the psi^(k) twins take the scalar's every operation
        xs = [x for x in xs if x < 2.5 or k]
        assert twin(np.array(xs)).tolist() == list(map(scalar, xs))

    def test_named_values(self, name, scalar, twin, oracle, k):
        values = {
            "ln_gamma": [(1.0, 0), (2.0, 0), (0.5, mp.log(mp.sqrt(mp.pi)))],
            "digamma": [(1.0, -mp.euler), (2.0, 1 - mp.euler),
                        (0.5, -mp.euler - 2 * mp.log(2))],
            "polygamma1": [(1.0, mp.pi ** 2 / 6), (2.0, mp.pi ** 2 / 6 - 1)],
            "polygamma2": [(1.0, -2 * mp.zeta(3))],
            "polygamma3": [(1.0, mp.pi ** 4 / 15)],
        }[name]
        with mp.workdps(30):
            for x, ref in values:
                value = scalar(x)
                assert (value == 0.0 if ref == 0
                        else _rel_err(value, ref) <= 4e-16), x

    def test_accuracy_against_mpmath(self, name, scalar, twin, oracle, k):
        rng = random.Random(20261019)
        low = -300.0 / (k + 1) if k else -300.0  # psi^(k) stays finite
        xs = [10.0 ** rng.uniform(low, math.log10(2.5)) for _ in range(200)]
        xs += [rng.uniform(0.0, 2.5) for _ in range(300)]
        # the module docstring's figures, but psi's: these points hold it
        # to 2.7e-16 max(1, |psi|) where the docstring's 20000 reach 3.3e-16
        with mp.workdps(40):
            for x in xs:
                ref = oracle(x)
                value = scalar(x)
                if name == "digamma":
                    # absolute next to its zero at 1.4616, relative elsewhere
                    err = abs(value - ref) / max(1, abs(ref))
                    assert err <= 2.7e-16, x
                    if not 1.4 < x < 1.5:
                        assert _rel_err(value, ref) <= 4e-15, x
                else:
                    assert _rel_err(value, ref) <= (
                        5.5e-16 if k is None else 4.6e-16), x

    def test_twin_equals_scalar(self, name, scalar, twin, oracle, k):
        # 10^5 seeded points: uniform on (0, 2.5), log-uniform down to where
        # psi^(k) leaves double range, and at the seams
        rng = np.random.default_rng(20261019)
        low = -300.0 / (k + 1) if k else -300.0
        xs = np.concatenate([
            rng.uniform(0.0, 2.5, 70000),
            10.0 ** rng.uniform(low, math.log10(2.5), 30000),
            [x for c in (0.5, 1.0, 1.5, 2.0) for x in _ulps_around(c)],
        ])
        xs = xs[(xs > 0.0) & (xs < 2.5)]
        assert len(xs) >= 100000
        assert twin(xs).tolist() == list(map(scalar, xs.tolist()))

    def test_coefficients_against_mpmath(self, name, scalar, twin, oracle,
                                         k):
        # each committed table is its derivation, entry for entry
        table = (refcore._LNGAMMA2P_COEFFS if k is None
                 else refcore._PSI2P_COEFFS[k])
        assert table == _economized(k, len(table))

    def test_term_count(self, name, scalar, twin, oracle, k):
        # the rule of the module docstring: the cut's error bound is below
        # 2^-54 of the smallest |f| on the band, and one term fewer breaks it
        table = (refcore._LNGAMMA2P_COEFFS if k is None
                 else refcore._PSI2P_COEFFS[k])
        n = len(table)
        assert n == {None: 18, 0: 20, 1: 20, 2: 22, 3: 23}[k]
        assert _cut_error(k, n) < 2.0 ** -54
        assert _cut_error(k, n - 1) >= 2.0 ** -54


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polygamma_twin_equals_scalar_past_the_band(k):
    # the shift and the series take the same products on a float and an
    # array, so psi', psi'' and psi''' twins equal their scalars everywhere
    rng = np.random.default_rng(19 + k)
    xs = np.concatenate([rng.uniform(2.5, 16.0, 50000),
                         10.0 ** rng.uniform(math.log10(2.5), 300.0, 50000),
                         _ulps_around(2.5), _ulps_around(15.0)])
    xs = xs[xs >= 2.5]
    values = refcore.polygamma_array(k, xs).tolist()
    assert values == [refcore.polygamma(k, x) for x in xs.tolist()]


def _array_kernels():
    # (id, twin, scalar kernel, oracle, lower end of the domain).  The
    # ln Gamma twin is ln_gamma1p_array, ln Gamma(1+x) on x > -1: every
    # sample below is shifted by that lower end, so it runs on the proof
    # chain's (0, 1) where the others run on (1, 2).
    return [
        ("ln_gamma", refcore.ln_gamma1p_array, refcore.ln_gamma1p,
         lambda x: mp.loggamma(1 + mp.mpf(x)), -1.0),
        ("ln_gamma_of_x", refcore.ln_gamma_array, refcore.ln_gamma,
         mp.loggamma, 0.0),
        ("digamma", refcore.digamma_array, refcore.digamma, mp.digamma, 0.0),
    ] + [
        ("polygamma%d" % k,
         lambda x, k=k: refcore.polygamma_array(k, x),
         lambda x, k=k: refcore.polygamma(k, x),
         lambda x, k=k: mp.polygamma(k, x), 0.0)
        for k in (1, 2, 3)
    ]


@pytest.mark.parametrize(
    "name, array, scalar, oracle, low", _array_kernels(),
    ids=[k[0] for k in _array_kernels()],
)
class TestArrayKernels:
    def test_accuracy_against_mpmath(self, name, array, scalar, oracle, low):
        # the scalar sweeps' samples and tolerance, on the audit range
        # (1, 2) and across the wide range
        rng = random.Random(20240811)
        xs = [10.0**e for e in range(-3, 7)]
        xs += [rng.uniform(1e-3, 100.0) for _ in range(400)]
        xs += [rng.uniform(100.0, 1e6) for _ in range(100)]
        xs += [rng.uniform(1.0, 2.0) for _ in range(200)] + [1.0, 2.0]
        xs = [low + x for x in xs]
        values = array(np.array(xs))
        for x, v in zip(xs, values):
            ref = float(oracle(x))
            assert abs(v - ref) <= 1e-12 * (1.0 + abs(ref)), x

    def test_close_to_scalar(self, name, array, scalar, oracle, low):
        # same scheme and operation order: past the Taylor band (0, 2.5)
        # the ln Gamma and psi twins differ only where numpy's log rounds
        # differently, by a few ulps of the shift sum.  ln Gamma(1+x) takes
        # no shift on (-1, 1.5), where the twin and the scalar kernel are
        # equal; it is sampled on (-0.75, 3).  The others are sampled on
        # the shift's range [2.5, 16).
        rng = np.random.default_rng(5)
        if name == "ln_gamma":
            xs = low + rng.uniform(0.25, 4.0, 8000)
        else:
            xs = low + rng.uniform(2.5, 16.0, 4000)
        values = array(xs)
        ref = np.array([scalar(float(x)) for x in xs])
        assert np.all(np.abs(values - ref) <= 1e-14 * (1.0 + np.abs(ref)))
        assert np.mean(values == ref) >= 0.9
        if name == "ln_gamma":
            band = xs < 1.5
            assert np.array_equal(values[band], ref[band])

    def test_keeps_shape(self, name, array, scalar, oracle, low):
        # a twin takes a 1-D array only: a 2-D or 0-d array, which would
        # come back in its own shape, and a float are rejected by name
        xs = low + np.array([0.5, 1.5, 3.0, 40.0])
        assert array(xs).shape == (4,)
        for other, kind in [(xs.reshape(2, 2), "2-D float64 array"),
                            (xs[2:3].reshape(()), "0-D float64 array"),
                            (low + 3.0, "float")]:
            with pytest.raises(ValueError,
                               match="requires a 1-D numpy array, got %s$"
                               % kind):
                array(other)

    def test_empty(self, name, array, scalar, oracle, low):
        out = array(np.array([]))
        assert out.shape == (0,)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, -1e-300]
    )
    def test_domain_errors(self, name, array, scalar, oracle, low, bad):
        # at or below the lower end, or not finite
        with pytest.raises(ValueError):
            array(low + np.array([1.5, bad, 2.5]))


# Edge cases of the twins' split at the band's end 2.5 and, inside the
# band, at 0.5 and 1.5: an array wholly on one side is handed over whole,
# with no gather or scatter.  Points
# are ln Gamma's arguments, listed and then drawn from a span; the
# ln_gamma1p twin takes each minus 1.
_TWIN_CASES = {
    "all_in_band": ([1e-8, 0.1, 0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 1.9, 2.0,
                     2.4999999999999996], (0.0, 2.5)),
    "none_in_band": ([2.5, 3.0, 7.25, 14.999999999999998, 15.0, 40.0, 1e6],
                     (2.5, 40.0)),
    "mid_band_only": ([0.5, 0.75, 1.0, 1.25, 1.4999999999999998],
                      (0.5, 1.5)),
    "low_band_only": ([1e-8, 0.1, 0.3, 0.49999999999999994], (0.0, 0.5)),
    "empty": ([], None),
}


def _twins():
    # (id, twin, scalar kernel, shift of the points)
    return [
        ("ln_gamma", refcore.ln_gamma_array, refcore.ln_gamma, 0.0),
        ("ln_gamma1p", refcore.ln_gamma1p_array, refcore.ln_gamma1p, -1.0),
        ("digamma", refcore.digamma_array, refcore.digamma, 0.0),
    ] + [
        ("polygamma%d" % k, partial(refcore.polygamma_array, k),
         partial(refcore.polygamma, k), 0.0)
        for k in (1, 2, 3)
    ]


def _expected(name, twin, scalar, shift, xs):
    """What the twin must return on the array ``xs``: its scalar kernel's
    values, bit for bit, except past the band for ln Gamma and psi, whose
    twins may round numpy's log differently (module docstring); there, its
    own values through the gather path, forced by a first point in the
    band."""
    expected = np.array([scalar(x) for x in xs.tolist()])
    if name in ("ln_gamma", "ln_gamma1p", "digamma"):
        far = xs - shift >= 2.5
        mixed = twin(np.concatenate([[1.0 + shift], xs]))[1:]
        expected[far] = mixed[far]
    return expected


@pytest.mark.parametrize("name, twin, scalar, shift", _twins(),
                         ids=[t[0] for t in _twins()])
class TestTwinEdgeCases:
    @pytest.mark.parametrize("case", sorted(_TWIN_CASES))
    def test_equals_scalar(self, name, twin, scalar, shift, case):
        points, span = _TWIN_CASES[case]
        if span:
            points = points + np.random.default_rng(24).uniform(
                *span, 200).tolist()
        xs = np.array([x for x in points if x > 0.0]) + shift
        values = twin(xs)
        assert type(values) is np.ndarray and values.shape == xs.shape
        expected = _expected(name, twin, scalar, shift, xs)
        assert values.tolist() == expected.tolist()

    def test_shift_takes_any_order(self, name, twin, scalar, shift):
        # the shift sorts the elements below the cutoff; repeated points
        # and any order give each element the same value
        xs = np.random.default_rng(30).uniform(2.5, 20.0, 300)
        xs = np.concatenate([xs, xs[:50], [2.5, 15.0, 3.0, 3.0]]) + shift
        perm = np.random.default_rng(31).permutation(len(xs))
        assert twin(xs)[perm].tolist() == twin(xs[perm]).tolist()
        assert twin(xs).tolist() == _expected(name, twin, scalar, shift,
                                              xs).tolist()

    @pytest.mark.parametrize("x", [1e-8, 0.3, 1.0, 1.25, 2.0, 3.0, 40.0])
    def test_zero_d(self, name, twin, scalar, shift, x):
        # a 0-d array is rejected by name; its one element, as a 1-D
        # array, takes the one-point path
        with pytest.raises(ValueError, match="got 0-D float64 array$"):
            twin(np.array(x + shift))
        value = twin(np.array([x + shift]))
        expected = _expected(name, twin, scalar, shift, np.array([x + shift]))
        assert value.tolist() == expected.tolist()


def test_array_polygamma_unsupported_order():
    with pytest.raises(ValueError):
        refcore.polygamma_array(4, np.array([1.0]))


def _exact_series(name, k):
    """(kept tail, full table, exact partial sum before the first tail
    term, exact tail terms) of one kernel's series at y = _SHIFT_CUTOFF,
    from the exact Bernoulli table."""
    y = Fraction(refcore._SHIFT_CUTOFF)
    bern = [(n, Fraction(*b)) for n, b in enumerate(refcore._BERNOULLI, 1)]
    if name == "ln_gamma":
        return (refcore._LNGAMMA_TAIL, refcore._LNGAMMA_COEFFS, 0,
                [b / (2 * n * (2 * n - 1)) * y ** (1 - 2 * n)
                 for n, b in bern])
    if name == "digamma":
        return (refcore._DIGAMMA_TAIL, refcore._DIGAMMA_COEFFS, 0,
                [b / (2 * n) * y ** (-2 * n) for n, b in bern])
    lead = (math.factorial(k - 1) * y ** -k
            + Fraction(math.factorial(k), 2) * y ** -(k + 1))
    return (refcore._POLYGAMMA_TAILS[k], refcore._POLYGAMMA_CONSTANTS[k][4],
            lead, [b * math.perm(2 * n + k - 1, k - 1) * y ** (-2 * n - k)
                   for n, b in bern])


_SERIES = [("ln_gamma", None), ("digamma", None),
           ("polygamma", 1), ("polygamma", 2), ("polygamma", 3)]
_SERIES_IDS = ["ln_gamma", "digamma", "polygamma1", "polygamma2", "polygamma3"]


@pytest.mark.parametrize("name, k", _SERIES, ids=_SERIES_IDS)
class TestTrimmedTails:
    def test_tail_is_a_leading_slice(self, name, k):
        tail, table, _, _ = _exact_series(name, k)
        assert len(table) == 10
        assert tail == table[:len(tail)]

    def test_dropped_terms_below_half_an_ulp(self, name, k):
        # a term below 2^-54 of the sum it is added to is below half an
        # ulp of it, so the rounded sum does not move; every dropped term
        # must be, at the cutoff (the ratio falls as y grows), while the
        # last kept term is not
        tail, _, partial, terms = _exact_series(name, k)
        m = len(tail)
        before_last = partial + sum(terms[:m - 1])
        partial = before_last + terms[m - 1]
        assert abs(terms[m - 1]) >= abs(before_last) / 2**54
        for t in terms[m:]:
            assert abs(t) < abs(partial) / 2**54


# y**n as the kernels take it, a product (numpy's ** and float ** round
# some y differently)
_POWER = {1: lambda y: y, 2: lambda y: y * y, 3: lambda y: y * y * y,
          4: lambda y: (y * y) * (y * y), 5: lambda y: (y * y) * (y * y) * y}


def _ten_term_series(name, k, y, log):
    """The kernels' asymptotic series summed over all ten Bernoulli terms,
    in the kernels' operation order; float or array."""
    inv = 1.0 / y
    inv2 = inv * inv
    if name == "ln_gamma":
        tail, p = 0.0, inv
        for c in refcore._LNGAMMA_COEFFS:
            tail += c * p
            p = p * inv2
        return (y - 0.5) * log(y) - y + refcore._HALF_LN_TWO_PI + tail
    if name == "digamma":
        tail, p = 0.0, inv2
        for c in refcore._DIGAMMA_COEFFS:
            tail += c * p
            p = p * inv2
        return log(y) - 0.5 * inv - tail
    sign, _, fact_km1, half_fact_k, coeffs = refcore._POLYGAMMA_CONSTANTS[k]
    value = fact_km1 * _POWER[k](inv) + half_fact_k * _POWER[k + 1](inv)
    p = _POWER[k + 2](inv)
    for c in coeffs:
        value += c * p
        p = p * inv2
    return sign * value


def _ten_term_kernel(name, k, x, log):
    """Reference kernel: the recurrence shift, then the ten-term series;
    ``x`` a float (``log`` = math.log) or an array (np.log)."""
    if name == "ln_gamma":
        term = log
    elif name == "digamma":
        def term(y):
            return 1.0 / y
    else:
        rec = refcore._POLYGAMMA_CONSTANTS[k][1]

        def term(y):
            return rec / _POWER[k + 1](y)
    cutoff = refcore._SHIFT_CUTOFF
    if isinstance(x, float):
        y, shift = x, 0.0
        while y < cutoff:
            shift += term(y)
            y += 1.0
    else:
        # as in the kernels, elements past the cutoff evaluate a term that
        # is multiplied by 0; for psi^(k) it overflows at y > 1e77
        y, shift = x.copy(), 0.0
        below = y < cutoff
        with np.errstate(over="ignore"):
            while below.any():
                shift += term(y) * below
                y += below
                below = y < cutoff
    series = _ten_term_series(name, k, y, log)
    return series + shift if k else series - shift


@pytest.mark.parametrize("name, k", _SERIES, ids=_SERIES_IDS)
def test_trimmed_kernels_equal_ten_term_series(name, k):
    # 10^5 seeded points past the Taylor band: on [2.5, 4), where the shift
    # is longest, log-uniform up to 1e300 and densely around the cutoff.
    # On (0, 2.5) every kernel sums its Taylor series about 2 instead, so
    # the band is left out (TestFiveKernelBand checks it against mpmath).
    rng = np.random.default_rng(20261018)
    xs = np.concatenate([
        rng.uniform(2.5, 4.0, 30000),
        10.0 ** rng.uniform(math.log10(2.5), 300.0, 40000),
        rng.uniform(14.0, 17.0, 30000),
    ])
    xs = xs[xs >= 2.5]
    twin_xs = xs
    if name == "ln_gamma":
        # the twin is ln_gamma1p_array, whose x shifts as 1 + x does in
        # the reference
        array = refcore.ln_gamma1p_array(xs)
        twin_xs = 1.0 + xs
        scalar = list(map(refcore.ln_gamma, xs.tolist()))
    elif k:
        array = refcore.polygamma_array(k, xs)
        scalar = [refcore.polygamma(k, x) for x in xs.tolist()]
    else:
        array = getattr(refcore, name + "_array")(xs)
        scalar = list(map(getattr(refcore, name), xs.tolist()))
    ref_array = _ten_term_kernel(name, k, twin_xs, np.log)
    assert np.array_equal(array, ref_array)
    ref_scalar = [_ten_term_kernel(name, k, x, math.log) for x in xs.tolist()]
    assert scalar == ref_scalar


# The generated straight-line series against plain loops over the same
# tables, which take the same steps in the same order: equal bit for bit.


def _loop_horner(coeffs, z):
    s = 0.0
    for c in coeffs:
        s = s * z + c
    return s


def _loop_forward(coeffs, acc, p, r):
    for c in coeffs:
        acc = acc + c * p
        p = p * r
    return acc


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


_TAYLOR_TABLES = [("ln_gamma", None)] + [("psi", k) for k in range(4)]


@pytest.mark.parametrize("name, k", _TAYLOR_TABLES,
                         ids=["ln_gamma", "psi0", "psi1", "psi2", "psi3"])
def test_generated_taylor_series_equals_a_loop(name, k):
    if name == "ln_gamma":
        coeffs, i = refcore._LNGAMMA2P_COEFFS, refcore._LN_GAMMA
    else:
        coeffs, i = refcore._PSI2P_COEFFS[k], k
    rng = np.random.default_rng(20261020)
    zs = np.concatenate([rng.uniform(-0.5, 0.5, 100000),
                         [-0.5, 0.5, -0.0, 0.0]])
    ref = [_loop_horner(coeffs, z) for z in zs.tolist()]
    refcore._taylor[i](0.0)  # the first call puts the series in its slot
    series = refcore._taylor[i]
    assert series.__name__ == "<lambda>"
    assert _same_bits([series(z) for z in zs.tolist()], ref)
    assert _same_bits(series(zs), ref)
    assert _same_bits(series(zs), _loop_horner(coeffs, zs))


def _tail_args(name, k, y):
    """(acc, p, r) of the kernel's series at y, where its tail, the loop
    of _loop_forward, starts; float or array."""
    inv = 1.0 / y
    r = inv * inv
    if name == "ln_gamma":
        return 0.0, inv, r
    if name == "digamma":
        return 0.0, r, r
    _, _, fact_km1, half_fact_k, _ = refcore._POLYGAMMA_CONSTANTS[k]
    return (fact_km1 * _POWER[k](inv) + half_fact_k * _POWER[k + 1](inv),
            _POWER[k + 2](inv), r)


def _loop_series(name, k, y, log):
    """The kernel's Stirling series at y with its kept tail summed by a
    loop, in the kernels' operation order; float or array."""
    kept = (refcore._LNGAMMA_TAIL if name == "ln_gamma" else
            refcore._DIGAMMA_TAIL if name == "digamma" else
            refcore._POLYGAMMA_TAILS[k])
    tail = _loop_forward(kept, *_tail_args(name, k, y))
    if name == "ln_gamma":
        return (y - 0.5) * log(y) - y + refcore._HALF_LN_TWO_PI + tail
    if name == "digamma":
        return log(y) - 0.5 * (1.0 / y) - tail
    return refcore._POLYGAMMA_CONSTANTS[k][0] * tail


@pytest.mark.parametrize("name, k", _SERIES, ids=_SERIES_IDS)
def test_generated_tail_equals_a_loop(name, k):
    # the generated series, head and tail written out, against the same
    # sum with a loop over the tail, at a float with math.log and on an
    # array with numpy's
    i = {"ln_gamma": refcore._LN_GAMMA, "digamma": 0}.get(name, k)
    refcore._series[i](15.0)  # the first call puts it in its slot
    series = refcore._series[i]
    assert series.__name__ == "series"
    rng = np.random.default_rng(20261021)
    ys = np.concatenate([rng.uniform(15.0, 100.0, 20000),
                         10.0 ** rng.uniform(math.log10(15.0), 300.0, 80000),
                         _ulps_around(15.0)[4:],
                         [1e300, 1.7976931348623157e308]])
    ref = [_loop_series(name, k, y, math.log) for y in ys.tolist()]
    with np.errstate(over="ignore"):  # ln Gamma's sum overflows at the top
        assert _same_bits(list(map(series, ys.tolist())), ref)
        assert _same_bits(series(ys, np.log),
                          _loop_series(name, k, ys, np.log))
        if k:  # no log taken: the array's elements are the floats' values
            assert _same_bits(series(ys, np.log), ref)


def _loop_band(k, x):
    """The band of psi^(k), k = 0..3, of ln Gamma(1+x) (k None) or of ln
    Gamma (k "ln_gamma") at a float, by plain loops: _loop_horner at z, the
    recurrence terms with their powers as products.  ZeroDivisionError
    where x**(k+1) is 0."""
    if k == "ln_gamma":
        if x > 0.5:
            return _loop_band(None, x - 1.0)
        return _loop_band(None, x) - math.log(x)
    if k is None:
        coeffs = refcore._LNGAMMA2P_COEFFS
        if x < 0.5:
            return _loop_horner(coeffs, x) * x - math.log1p(x)
        return _loop_horner(coeffs, x - 1.0) * (x - 1.0)
    coeffs = refcore._PSI2P_COEFFS[k]
    rec, power = refcore._RECURRENCE[k], _POWER[k + 1]
    if x >= 1.5:
        return _loop_horner(coeffs, x - 2.0)
    if x >= 0.5:
        return _loop_horner(coeffs, x - 1.0) + rec / power(x)
    return _loop_horner(coeffs, x) + (rec / power(x) + rec / power(1.0 + x))


def _value_or_error(fn, x):
    try:
        return fn(x)
    except ZeroDivisionError as exc:
        return type(exc)


def _band_points(k):
    """Seeded points in each sub-band of one band, its edges, and for
    psi^(k) the subnormals and the x where x**(k+1) first underflows."""
    if k is None:  # ln Gamma(1+x) on (-0.5, 1.5)
        rng = np.random.default_rng(20261022)
        xs = [rng.uniform(-0.5, 0.5, 5000), rng.uniform(0.5, 1.5, 5000),
              _ulps_around(0.5), _ulps_around(0.0), _ulps_around(1.0),
              _ulps_around(-0.5)[5:], _ulps_around(1.5)[:4],
              [5e-324, -5e-324]]
        lo, hi = -0.5, 1.5
    elif k == "ln_gamma":  # ln Gamma on (0, 2.5), a = x - 1 above 0.5
        rng = np.random.default_rng(20261027)
        xs = [rng.uniform(0.0, 0.5, 3000), rng.uniform(0.5, 1.5, 3000),
              rng.uniform(1.5, 2.5, 3000),
              10.0 ** rng.uniform(-323.0, 0.0, 3000),
              _ulps_around(0.5), _ulps_around(1.5), _ulps_around(2.5),
              [5e-324]]
        lo, hi = 0.0, 2.5
    else:
        rng = np.random.default_rng(20261022 + k)
        tiny = 2.0 ** (-1075.0 / (k + 1))  # below it x**(k+1) rounds to 0
        xs = [rng.uniform(0.0, 0.5, 3000), rng.uniform(0.5, 1.5, 3000),
              rng.uniform(1.5, 2.5, 3000),
              10.0 ** rng.uniform(-323.0, 0.0, 3000),
              _ulps_around(0.5), _ulps_around(1.5), _ulps_around(2.5)[:4],
              _ulps_around(tiny), [5e-324, 1e-310, 2.2250738585072014e-308]]
        lo, hi = 0.0, 2.5
    return [x for x in np.concatenate(xs).tolist() if lo < x < hi]


@pytest.mark.parametrize("k", [None, "ln_gamma", 0, 1, 2, 3],
                         ids=["ln_gamma1p", "ln_gamma", "psi0", "psi1",
                              "psi2", "psi3"])
def test_generated_band_equals_a_loop(k):
    # each scalar band, generated into its kernel (ln Gamma(1+x): its own
    # function), against plain loops on (0, 2.5): the same doubles, and
    # ZeroDivisionError at the same points, where polygamma raises its
    # ValueError
    if k is None:
        slots, i, name = refcore._band, 0, "band"
    else:
        slots, name = refcore._kernel, "kernel"
        i = refcore._LN_GAMMA if k == "ln_gamma" else k
    slots[i](1.0)  # the first call puts it in its slot
    band = slots[i]
    assert band.__name__ == name
    xs = _band_points(k)
    got = [_value_or_error(band, x) for x in xs]
    ref = [_value_or_error(partial(_loop_band, k), x) for x in xs]
    assert got == ref  # the errors, and the doubles up to the sign of 0
    values = [(a, b) for a, b in zip(got, ref) if isinstance(a, float)]
    assert _same_bits(*zip(*values))
    if k in (1, 2, 3):
        raised = [x for x, v in zip(xs, got) if v is ZeroDivisionError]
        assert 5e-324 in raised and len(raised) >= 5
        for x in raised:
            with pytest.raises(ValueError, match="not a finite double"):
                refcore.polygamma(k, x)


def _nested_calls(fn, *args):
    """The code objects of the Python calls that one call of fn makes
    beneath its own frame, in order."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    assert calls[0] is fn.__code__
    return calls[1:]


# one x in each branch: x < 0.5, [0.5, 1.5), [1.5, 2.5), a shift, past 15
_BRANCH_XS = [0.3, 1.2, 2.0, 5.0, 50.0]


@pytest.mark.parametrize("x", _BRANCH_XS)
@pytest.mark.parametrize("name, k", _SERIES, ids=_SERIES_IDS)
def test_one_nested_call_per_kernel_call(name, k, x):
    # a kernel is one generated function; nothing else is called
    fn, args = getattr(refcore, name), ((k, x) if k else (x,))
    fn(*args)  # the first call generates the code
    assert [c.co_name for c in _nested_calls(fn, *args)] == ["kernel"]


@pytest.mark.parametrize("x", [-0.3, 0.05, 0.95, 1.2])
def test_ln_gamma1p_on_its_bands_makes_one_nested_call(x):
    refcore.ln_gamma1p(x)
    assert [c.co_name for c in _nested_calls(refcore.ln_gamma1p, x)] == [
        "band"]


def test_ln_gamma1p_off_its_bands_hands_on_to_ln_gamma():
    refcore.ln_gamma1p(0.5)
    assert [c.co_name for c in _nested_calls(refcore.ln_gamma1p, 0.5)] == [
        "ln_gamma", "kernel"]


_FRESH_IMPORT = """
import json
import gamma_envelope
from gamma_envelope import refcore
print(json.dumps({name: [f.__name__ for f in getattr(refcore, name)]
                  for name in ("_kernel", "_series", "_band", "_taylor",
                               "_term")}))
"""


def test_import_generates_only_psi():
    # each generated function is made at its first call; importing the
    # package calls digamma(1.0) alone, to check EULER_GAMMA
    src = os.path.dirname(os.path.dirname(refcore.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    names = json.loads(proc.stdout)
    assert names.pop("_kernel") == ["kernel"] + ["first_call"] * 4
    assert names == {"_series": ["first_call"] * 5, "_band": ["first_call"],
                     "_taylor": ["first_call"] * 5,
                     "_term": ["first_call"] * 5}

"""Reference-kernel accuracy and self-consistency.

mpmath (50 digits) is the independent oracle.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

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
        for x in (-0.5, 0.1, 0.5, 0.9 - 1e-9, 1.1, 3.5, 1e6):
            assert refcore.ln_gamma1p(x) == refcore.ln_gamma(1.0 + x)

    @pytest.mark.parametrize("lam", [1.0, 6.0])
    def test_log_base_arg_within_4_ulps(self, lam):
        for x in (1.0 + s * 10.0**-k for k in range(3, 13) for s in (-1, 1)):
            m = mp.mpf(x)
            ref = float(m * (m - 1) / (m + lam))
            assert abs(refcore.log_base_arg(x, lam) - ref) <= 4 * math.ulp(
                ref), x

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

    def test_exact_relations(self):
        c = refcore.constants()
        assert c.alpha_sharp == 2.0 * (1.0 - c.euler_gamma)
        assert c.beta_sharp == c.euler_gamma
        assert c.alzer_alpha == 1.0 - c.euler_gamma

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
                float(b) * (math.factorial(2 * n + k - 1)
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


def _array_kernels():
    # (id, twin, scalar kernel, oracle, lower end of the domain).  The
    # ln Gamma twin is ln_gamma1p_array, ln Gamma(1+x) on x > -1: every
    # sample below is shifted by that lower end, so it runs on the proof
    # chain's (0, 1) where the others run on (1, 2).
    return [
        ("ln_gamma", refcore.ln_gamma1p_array, refcore.ln_gamma1p,
         lambda x: mp.loggamma(1 + mp.mpf(x)), -1.0),
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
        # same scheme and operation order: they differ only where numpy's
        # log, log1p or ** rounds differently, by a few ulps of the shift
        # sum
        xs = low + np.random.default_rng(5).uniform(1.0, 2.0, 4000)
        values = array(xs)
        ref = np.array([scalar(float(x)) for x in xs])
        assert np.all(np.abs(values - ref) <= 1e-14 * (1.0 + np.abs(ref)))
        assert np.mean(values == ref) >= 0.9

    def test_keeps_shape(self, name, array, scalar, oracle, low):
        xs = low + np.array([[0.5, 1.5], [3.0, 40.0]])
        assert array(xs).shape == (2, 2)
        assert array(xs)[1, 0] == array(np.array([low + 3.0]))[0]
        assert array(low + 3.0) == array(np.array([low + 3.0]))[0]

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


def test_array_polygamma_unsupported_order():
    with pytest.raises(ValueError):
        refcore.polygamma_array(4, np.array([1.0]))


def _exact_series(name, k):
    """(kept tail, full table, exact partial sum before the first tail
    term, exact tail terms) of one kernel's series at y = _SHIFT_CUTOFF,
    from the exact Bernoulli table."""
    y = Fraction(refcore._SHIFT_CUTOFF)
    bern = list(enumerate(refcore._BERNOULLI, 1))
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
    value = fact_km1 * inv**k + half_fact_k * inv ** (k + 1)
    p = inv ** (2 + k)
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
            return rec / y ** (k + 1)
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
    # 10^5 seeded points on the audit range (1, 2), log-uniform across the
    # double range and densely around the cutoff.  psi^(k)(x) ~ k!/x^(k+1)
    # leaves double range near x = 1e-308^(1/(k+1)) (there the scalar
    # kernel raises ZeroDivisionError and the twin returns inf), so its
    # log-uniform band starts at 1e-300^(1/(k+1)).
    rng = np.random.default_rng(20261018)
    low = -300.0 / (k + 1) if k else -300.0
    xs = np.concatenate([
        rng.uniform(1.0, 2.0, 30000),
        10.0 ** rng.uniform(low, 300.0, 40000),
        rng.uniform(14.0, 17.0, 30000),
    ])
    twin_xs = xs
    if name == "ln_gamma":
        # the twin is ln_gamma1p_array, whose x shifts as 1 + x does in
        # the reference; within 0.1 of the zeros of ln Gamma each kernel
        # sums its Taylor series instead, so those points are left out
        # (the zero tests check them against mpmath)
        twin_xs = xs[(abs(xs) >= 0.1) & (abs(xs - 1.0) >= 0.1)]
        array = refcore.ln_gamma1p_array(twin_xs)
        twin_xs = 1.0 + twin_xs
        xs =xs[(abs(xs - 1.0) >= 0.1) & (abs(xs - 2.0) >= 0.1)]
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

"""Bound-family catalog: examples, containment, sharpness, consistency."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gamma_envelope import bounds, refcore
from gamma_envelope.bounds import DomainError

mp.mp.dps = 50


def true_log_gamma(bp):
    if bp.argument_convention == bounds.GAMMA_OF_X_PLUS_1:
        return refcore.ln_gamma(bp.x + 1.0)
    return refcore.ln_gamma(bp.x)


def mp_ln_gamma1p(x):
    """ln Gamma(1+x) at the working precision, also next to x = 0: 1 + x
    is added exactly, however many digits that takes."""
    return mp.loggamma(mp.fadd(1, mp.mpf(x), exact=True))


# x = 10^-k and 1 - 10^-k, where ln Gamma(x+1) and the log of an
# envelope base both vanish
NEXT_TO_THE_ENDS = ([10.0**-k for k in range(1, 15)]
                    + [1.0 - 10.0**-k for k in range(1, 14)])


class TestTheoremBounds:
    def test_midpoint_example(self):
        bp = bounds.theorem_bounds(0.5)
        assert bp.lower == pytest.approx(0.857130243093468, rel=1e-12)
        assert bp.upper == pytest.approx(0.900109497984874, rel=1e-12)
        assert bp.lower < math.sqrt(math.pi) / 2.0 < bp.upper

    def test_both_sides_approach_one_at_zero(self):
        bp = bounds.theorem_bounds(1e-9)
        assert bp.lower == pytest.approx(1.0, abs=1e-8)
        assert bp.upper == pytest.approx(1.0, abs=1e-8)

    def test_exponent_one_collapses_to_rational_lower(self):
        bp = bounds.theorem_bounds(0.5, alpha=1.0, beta=1.0)
        assert bp.lower == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert bp.upper == pytest.approx(5.0 / 6.0, rel=1e-15)

    def test_weak_exponents_flagged(self):
        assert bounds.theorem_bounds(0.5).warning is None
        c = refcore.constants()
        assert bounds.theorem_bounds(0.5, alpha=c.alpha_sharp - 1e-3).warning
        assert bounds.theorem_bounds(0.5, beta=c.beta_sharp + 1e-3).warning

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                bounds.theorem_bounds(bad)

    def test_sharpness_lower(self):
        # weakening alpha below the sharp value breaks containment near 1
        c = refcore.constants()
        alpha = c.alpha_sharp - 1e-3
        xs = np.linspace(0.9, 1.0 - 1e-6, 2000)
        assert any(
            bounds.theorem_bounds(float(x), alpha=alpha).log_lower
            >= refcore.ln_gamma(float(x) + 1.0)
            for x in xs
        )

    def test_sharpness_upper(self):
        c = refcore.constants()
        beta = c.beta_sharp + 1e-3
        xs = np.linspace(1e-6, 0.1, 2000)
        assert any(
            bounds.theorem_bounds(float(x), beta=beta).log_upper
            <= refcore.ln_gamma(float(x) + 1.0)
            for x in xs
        )


class TestExtendedBounds:
    def test_example_2_5(self):
        bp = bounds.extended_bounds(2.5)
        assert bp.lower == pytest.approx(3.21423841160051, rel=1e-12)
        assert bp.upper == pytest.approx(3.37541061744328, rel=1e-12)
        true = float(mp.gamma(3.5))
        assert bp.lower < true < bp.upper

    def test_integer_equality(self):
        bp = bounds.extended_bounds(3.0)
        assert bp.is_equality_point
        assert bp.lower == pytest.approx(6.0, rel=1e-14)
        assert bp.upper == pytest.approx(6.0, rel=1e-14)

    def test_agrees_with_theorem_bounds_on_unit_interval(self):
        for x in (0.1, 0.5, 0.77):
            a = bounds.extended_bounds(x)
            b = bounds.theorem_bounds(x)
            assert a.log_lower == b.log_lower
            assert a.log_upper == b.log_upper

    def test_factorials(self):
        for n in range(1, 11):
            bp = bounds.extended_bounds(float(n))
            fact = float(math.factorial(n))
            assert bp.lower == pytest.approx(fact, rel=1e-12)
            assert bp.upper == pytest.approx(fact, rel=1e-12)

    def test_containment_sweep(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(1e-3, 20.0, 2000)
        xs = xs[np.abs(xs - np.round(xs)) > 1e-9]
        for x in xs:
            bp = bounds.extended_bounds(float(x))
            lg = refcore.ln_gamma(float(x) + 1.0)
            assert bp.log_lower < lg < bp.log_upper

    def test_domain(self):
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                bounds.extended_bounds(bad)

    @pytest.mark.parametrize("x", [1000.25, 1e7 + 0.5, 1e300])
    def test_large_x_against_mpmath(self, x):
        # the product x (x-1) ... (t+1) has ~x factors; its log comes from
        # ln Gamma, accurate and in constant time
        bp = bounds.extended_bounds(x)
        t = x - math.floor(x)
        log_prod = mp.loggamma(mp.mpf(x) + 1) - mp.loggamma(mp.mpf(t) + 1)
        lb = mp.log((mp.mpf(t) ** 2 + 1) / (mp.mpf(t) + 1))
        c = refcore.constants()
        for got, exponent in ((bp.log_lower, c.alpha_sharp),
                              (bp.log_upper, c.beta_sharp)):
            want = mp.mpf(exponent) * lb + log_prod
            assert abs(got - want) <= 4e-16 * abs(want)
        assert bp.is_equality_point == (t == 0.0)


class TestPolygammaBounds:
    def test_trigamma_at_one(self):
        bp = bounds.polygamma_bounds(1, 1.0)
        assert (bp.lower, bp.upper) == (1.5, 2.0)
        assert tuple(bp) == (1.5, 2.0)  # the sandwich is exactly two sides
        assert bp.lower < math.pi**2 / 6.0 < bp.upper

    def test_trigamma_at_two(self):
        bp = bounds.polygamma_bounds(1, 2.0)
        assert (bp.lower, bp.upper) == (0.625, 0.75)
        assert bp.lower < math.pi**2 / 6.0 - 1.0 < bp.upper

    def test_second_order_at_one(self):
        # (k-1)!/x^k + k!/(2 x^(k+1)) at k=2, x=1 is 1 + 1 = 2
        bp = bounds.polygamma_bounds(2, 1.0)
        assert (bp.lower, bp.upper) == (2.0, 3.0)
        # -psi''(1) = 2 zeta(3)
        assert bp.lower < 2.0 * float(mp.zeta(3)) < bp.upper

    def test_sandwich_log_grid(self):
        xs = np.logspace(math.log10(0.01), math.log10(100.0), 2000)
        for k in (1, 2, 3):
            for x in xs:
                bp = bounds.polygamma_bounds(k, float(x))
                v = (-1.0) ** (k + 1) * refcore.polygamma(k, float(x))
                assert bp.lower < v < bp.upper

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_array_equals_float(self, k):
        # every power is a product, so both sides of the array form equal
        # the float form's, element by element; seeded points run from
        # below to past the range (1e-200 to 1e300), where the float form
        # raises, and an array raises at its first such element
        rng = np.random.default_rng(20 + k)
        grids = [np.logspace(math.log10(0.01), math.log10(100.0), n)
                 for n in (200, 2000, 20000)]
        for xs in grids + [10.0 ** rng.uniform(-200.0, 300.0, 20000)]:
            pairs, fine = [], []
            for x in xs.tolist():
                try:
                    pairs.append(bounds.polygamma_bounds(k, x))
                    fine.append(x)
                except DomainError as exc:
                    pairs.append(str(exc))
            kept = [p for p in pairs if not isinstance(p, str)]
            bp = bounds.polygamma_bounds(k, np.array(fine))
            for field in ("lower", "upper"):
                assert getattr(bp, field).tolist() == [
                    getattr(p, field) for p in kept]
            errors = [p for p in pairs if isinstance(p, str)]
            if errors:
                with pytest.raises(DomainError) as exc:
                    bounds.polygamma_bounds(k, xs)
                assert str(exc.value) == errors[0]

    def test_array_domain(self):
        # a rejected k, or x that is not finite and positive, raises at the
        # first element as the float form does there
        xs = np.array([2.0, 0.0, math.nan])
        for k, x in ((1, 0.0), (0, 2.0), (1.5, 2.0)):
            with pytest.raises(DomainError) as at_point:
                bounds.polygamma_bounds(k, x)
            with pytest.raises(DomainError) as on_array:
                bounds.polygamma_bounds(k, xs if k == 1 else xs[:1])
            assert str(on_array.value) == str(at_point.value)
        assert bounds.polygamma_bounds(1, np.array([])).lower.shape == (0,)
        for k in (0, 1.5, 200):  # k is checked with no element to check
            with pytest.raises(DomainError, match="k >= 1|integer k|range"):
                bounds.polygamma_bounds(k, np.array([]))

    def test_domain(self):
        for k in (0, 1.5):  # not an integer >= 1
            with pytest.raises(DomainError):
                bounds.polygamma_bounds(k, 1.0)
        for bad in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                bounds.polygamma_bounds(1, bad)
        for bad in ([1.0, 2.0], (1.0,)):  # neither a float nor an array
            with pytest.raises(DomainError, match="1-D numpy array"):
                bounds.polygamma_bounds(1, bad)
        # x**k or x**(k+1) under- or overflows
        for k, bad in ((3, 1e-120), (1, 1e-200), (1, 1e300), (3, 1e300)):
            with pytest.raises(DomainError):
                bounds.polygamma_bounds(k, bad)


class TestFamilyCatalog:
    def test_catalog_enumerable(self):
        cat = bounds.catalog()
        ids = [row[0] for row in cat]
        assert sorted(ids) == sorted(
            [
                "ivady", "qi_guo", "qi_guo_extended", "qi_guo_rearranged",
                "lambda6", "alzer_power", "alzer_batir", "qi_guo_zhang",
                "batir_12", "batir_14", "batir_15", "unitball",
            ]
        )
        for _, domain, citation, convention in cat:
            assert domain and citation and convention

    def test_ivady_example(self):
        bp = bounds.evaluate_family("ivady", 0.5)
        assert bp.lower == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert bp.upper == pytest.approx(0.9, rel=1e-15)

    def test_lambda6_example(self):
        bp = bounds.evaluate_family("lambda6", 0.5)
        assert bp.lower == pytest.approx(0.872988531490423, rel=1e-12)
        assert bp.upper == pytest.approx(0.890409934330686, rel=1e-12)
        assert bp.lower < math.sqrt(math.pi) / 2.0 < bp.upper

    def test_alzer_small_x_example(self):
        up_alzer = bounds.evaluate_family("alzer_power", 0.05).upper
        up_rearr = bounds.evaluate_family("qi_guo_rearranged", 0.05).upper
        true = float(mp.gamma(0.05))
        assert up_alzer == pytest.approx(25.7521436487923, rel=1e-10)
        assert up_rearr == pytest.approx(19.4726528802553, rel=1e-10)
        assert true < up_rearr < up_alzer

    def test_unitball_one_sided(self):
        bp = bounds.evaluate_family("unitball", 2.0)
        assert bp.one_sided
        assert bp.lower == -math.inf
        assert bp.upper == pytest.approx(16.0, rel=1e-13)

    def test_repr_names_every_field(self):
        bp = bounds.evaluate_family("unitball", 2.0)
        assert repr(bp) == (
            "BoundPair(log_lower=-inf, log_upper=%r, "
            "argument_convention='gamma_of_x_plus_1', family='unitball', "
            "x=2.0, is_equality_point=False, one_sided=True, warning=None)"
            % (bp.log_upper,))

    def test_alzer_power_rejects_one(self):
        with pytest.raises(DomainError):
            bounds.evaluate_family("alzer_power", 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fid", sorted(bounds.FAMILIES))
    def test_non_finite_rejected(self, fid, x):
        with pytest.raises(DomainError, match="finite"):
            bounds.evaluate_family(fid, x)

    @pytest.mark.parametrize("fid", sorted(bounds.FAMILIES))
    @settings(max_examples=150, deadline=None)
    @given(x=st.floats())
    @example(x=5e-324)  # the smallest subnormal
    @example(x=170.5)  # a log side in [709, ln DBL_MAX]
    @example(x=2.56e305)  # about where lnGamma(x+1) overflows
    @example(x=1.7976931348623157e308)  # the largest double
    def test_input_contract(self, fid, x):
        # every family at every float: a DomainError, or a pair with
        # finite log sides (a one-sided family's lower one exactly -inf),
        # float sides that are their exponentials (so neither is NaN), and
        # the catalog entry's identity
        entry = bounds.FAMILIES[fid]
        try:
            bp = bounds.evaluate_family(fid, x)
        except DomainError:
            return
        assert math.isfinite(bp.log_upper)
        if entry.one_sided:
            assert bp.log_lower == -math.inf
        else:
            assert math.isfinite(bp.log_lower)
        assert bp.lower == bounds._safe_exp(bp.log_lower)
        assert bp.upper == bounds._safe_exp(bp.log_upper)
        assert (bp.family, bp.x, bp.argument_convention, bp.one_sided) == (
            fid, x, entry.convention, entry.one_sided
        )
        with pytest.raises(AttributeError):  # derived from the log sides
            bp.lower = bp.upper

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            bounds.evaluate_family("nope", 0.5)

    def test_safe_exp_saturates_exactly_past_ln_dbl_max(self):
        top = refcore.LN_DBL_MAX
        assert bounds._safe_exp(top) == math.exp(top) == 1.7976931348622732e308
        above = math.nextafter(top, math.inf)
        with pytest.raises(OverflowError):
            math.exp(above)
        assert bounds._safe_exp(above) == math.inf
        assert bounds._safe_exp(-math.inf) == -math.inf

    @pytest.mark.parametrize("fid", sorted(bounds.FAMILIES))
    def test_containment(self, fid):
        if fid == "qi_guo_extended":
            xs = np.linspace(1e-4, 50.0, 2000)
            xs = xs[np.abs(xs - np.round(xs)) > 1e-9]
        elif fid in ("ivady", "qi_guo", "qi_guo_rearranged", "lambda6"):
            xs = np.linspace(1e-6, 1.0 - 1e-6, 2000)
        elif fid == "qi_guo_zhang":
            xs = np.linspace(1e-6, 1.0 - 1e-6, 2000)
        elif fid == "alzer_power":
            xs = np.concatenate(
                [
                    np.linspace(1e-4, 1.0 - 1e-4, 1000),
                    np.linspace(1.0 + 1e-4, 50.0, 1000),
                ]
            )
        elif fid == "unitball":
            xs = np.linspace(0.5 + 1e-4, 50.0, 2000)
        else:
            xs = np.linspace(1e-4, 50.0, 2000)
        for x in xs:
            bp = bounds.evaluate_family(fid, float(x))
            lg = true_log_gamma(bp)
            assert bp.log_lower < lg < bp.log_upper, (fid, x)

    @pytest.mark.parametrize("fid, x", [
        (fid, x) for fid in ("ivady", "lambda6") for x in NEXT_TO_THE_ENDS
    ] + [("ivady", x) for x in (1e-16, 1e-17, 1e-300)])
    def test_containment_against_mpmath_next_to_the_ends(self, fid, x):
        # strict: the log of the rounded quotient (x^2+c)/(x+c) lost the
        # digits that decide these
        bp = bounds.evaluate_family(fid, x)
        assert bp.log_lower < mp_ln_gamma1p(x) < bp.log_upper

    def test_refinement_of_rational_lower_bound(self):
        # the sharp-exponent lower bound dominates the plain rational one
        # everywhere on (0,1): base in (0,1) and exponent 2(1-gamma) < 1
        for x in np.linspace(1e-6, 1.0 - 1e-6, 2000):
            qg = bounds.evaluate_family("qi_guo", float(x))
            iv = bounds.evaluate_family("ivady", float(x))
            assert qg.lower >= iv.lower


# the thresholds of the lambda open problem: f_lambda cannot increase
# past LAMBDA_INC = gamma/(pi^2/6 - 2 gamma) nor decrease below
# LAMBDA_DEC = (pi^2/6 - gamma)/(3 - 2 gamma - pi^2/6)
LAMBDA_INC = 1.1767837797985385
LAMBDA_DEC = 5.321706147024761


class TestEnvelope:
    POINTS = np.linspace(0.0, 1.0, 402)[1:-1].tolist() + NEXT_TO_THE_ENDS

    @pytest.mark.parametrize(
        "lam", [0.1, 0.5, 1.0, LAMBDA_INC, LAMBDA_DEC, 6.0, 100.0])
    def test_containment_against_mpmath(self, lam):
        # a side within 4 ulps of ln Gamma(x+1) is unresolved, not a pass;
        # one beyond that on the wrong side is violated
        sides = bounds._envelope(lam)
        violated, unresolved = [], []
        with mp.workdps(40):
            for x in self.POINTS:
                ref = mp_ln_gamma1p(x)
                resolution = 4 * math.ulp(float(ref))
                for side, sign in zip(sides(x, refcore.AT_POINT), (-1, 1)):
                    margin = sign * (side - ref)
                    if abs(margin) <= resolution:
                        unresolved.append((x, sign))
                    elif margin < 0:
                        violated.append((x, sign, side))
        assert violated == []
        assert len(unresolved) <= 10, unresolved

    def test_catalog_envelopes(self):
        # qi_guo and lambda6 are the envelope at lambda = 1 and 6, and
        # their exponents are the sharp constants' literals, bit for bit
        g = refcore.EULER_GAMMA
        for fid, lam, lower, upper in [("qi_guo", 1.0, 2.0 * (1.0 - g), g),
                                       ("lambda6", 6.0, 6.0 * g,
                                        7.0 * (1.0 - g))]:
            for x in (1e-9, 0.25, 0.5, 0.999):
                lb = math.log1p(x * (x - 1.0) / (x + lam))
                bp = bounds.evaluate_family(fid, x)
                assert (bp.log_lower, bp.log_upper) == (lower * lb, upper * lb)


def _batir_14_logs(x):
    """Both log sides of batir_14 at 50 digits, in the textbook form
    ln(sqrt(2)) + (x+1/2) ln(x+1/2) - x and
    gamma e^-gamma + (x+e^-gamma) ln(x+e^-gamma) - x."""
    x = mp.mpf(x)
    c = mp.exp(-mp.euler)
    half = mp.mpf(1) / 2
    return (
        mp.log(2) / 2 + (x + half) * mp.log(x + half) - x,
        mp.euler * c + (x + c) * mp.log(x + c) - x,
    )


class TestBatir14:
    @pytest.mark.parametrize(
        "x", [1e-12, 1e-8, 1e-6, 1e-3, 0.5, 0.999, 3.5, 100.0, 1e6]
    )
    def test_log_sides_against_mpmath(self, x):
        # both sides vanish like O(x) at 0, so the error is relative
        bp = bounds.evaluate_family("batir_14", x)
        for got, want in zip((bp.log_lower, bp.log_upper), _batir_14_logs(x)):
            assert abs(got - want) <= 1e-14 * abs(want), (x, got, want)

    @pytest.mark.parametrize("x", [1e-320, 1e-300, 1e-20])
    def test_sides_ordered_near_zero(self, x):
        bp = bounds.evaluate_family("batir_14", x)
        assert bp.log_lower < bp.log_upper < 0.0

    def test_sides_do_not_cross_at_the_smallest_subnormal(self):
        # the true gap (ln 2 - gamma) x is 0.12 of the one subnormal step
        # here, so both sides round to -x; they must not cross
        bp = bounds.evaluate_family("batir_14", 5e-324)
        assert bp.log_lower <= bp.log_upper

"""Monotonicity sweeps, family comparison, and conjecture probes."""

import math

import mpmath as mp
import numpy as np
import pytest

from gamma_envelope import analysis as an
from gamma_envelope import bounds, refcore

mp.mp.dps = 50
G = refcore.EULER_GAMMA

# points near the zeros at 0 and 1, at and either side of 1e-6 from each
BAND_POINTS = [1e-12, 5e-7, 9.999999e-7, 1e-6, 1.000001e-6,
               1.0 - 1.000001e-6, 1.0 - 1e-6, 1.0 - 5e-7, 1.0 - 1e-12]


class TestRatioFamilies:
    def test_lambda_one_matches_base_ratio(self):
        # both ratios are one quotient
        from gamma_envelope.proofaudit import ratio_R

        xs = an._grid(0.0, 1.0, 2000).tolist() + BAND_POINTS
        for x in xs:
            assert ratio_R(x) == an.lambda_ratio(1.0, x), x

    def test_lambda6_limits(self):
        assert an.lambda_ratio(6.0, 1e-7) == pytest.approx(6.0 * G, abs=1e-5)
        assert an.lambda_ratio(6.0, 1.0 - 1e-7) == pytest.approx(
            7.0 * (1.0 - G), abs=1e-5
        )

    def test_tau_at_removable_point(self):
        for tau in (0.5, 1.0, 2.0, 6.0):
            assert an.tau_ratio(tau, 1.0) == pytest.approx(
                -(1.0 + tau) * G, abs=1e-9
            )

    def test_tau_limit_tolerance(self):
        for tau in (0.5, 1.0, 2.0, 6.0):
            assert abs(
                an.tau_ratio(tau, 1.0 + 1e-7) - (-(1.0 + tau) * G)
            ) <= 1e-5

    def test_near_the_zeros_against_mpmath(self):
        # lambda_ratio at 10^-k and 1 - 10^-k, tau_ratio (ln Gamma(x), x > 0)
        # also at 1 + 10^-k and 2 +- 10^-k, k = 3..12
        near = [c + s * 10.0**-k for k in range(3, 13)
                for c in (0.0, 1.0, 2.0) for s in (-1.0, 1.0)]
        for lam in (0.5, 1.0, 6.0):
            for x in (x for x in near if 0.0 < x < 1.0):
                m = mp.mpf(x)
                ref = mp.loggamma(m + 1) / mp.log((m * m + lam) / (m + lam))
                assert abs(an.lambda_ratio(lam, x) - ref) <= 2e-15 * abs(
                    ref), (lam, x)
        for tau in (0.5, 2.0):
            for x in (x for x in near if x > 0.0):
                m = mp.mpf(x)
                ref = mp.loggamma(m) / mp.log((m * m + tau) / (m + tau))
                assert abs(an.tau_ratio(tau, x) - ref) <= 2e-15 * abs(
                    ref), (tau, x)

    @pytest.mark.parametrize("x", [5e-324, 1e-310])
    def test_lambda_limit_at_subnormal_x(self, x):
        for lam in (0.5, 1.0, 6.0):
            assert an.lambda_ratio(lam, x) == lam * G

    def test_tau_examples(self):
        assert an.tau_ratio(1.0, 1.0) == pytest.approx(-2.0 * G, abs=1e-9)
        assert an.tau_ratio(1.0, 2.0) == 0.0

    def test_unitball_values(self):
        assert an.F_unitball(1.0) == 0.0
        assert an.F_unitball(2.0) == pytest.approx(
            math.log(2.0) / (2.0 * math.log(4.0)), rel=1e-14
        )
        # Stirling leading order: (ln x - 1)/(ln x + ln 2) at 1e6
        lead = (math.log(1e6) - 1.0) / (math.log(1e6) + math.log(2.0))
        assert an.F_unitball(1e6) == pytest.approx(lead, abs=5e-3)
        assert an.F_unitball(1e6) < 1.0

    def test_h_cm_values(self):
        assert an.h_cm(1.0) == 2.0
        expected = float(mp.log(2) / (mp.log(5) - mp.log(3)))
        assert an.h_cm(2.0) == pytest.approx(expected, rel=1e-13)

    def test_domains(self):
        with pytest.raises(ValueError):
            an.lambda_ratio(0.0, 0.5)
        with pytest.raises(ValueError):
            an.tau_ratio(1.0, 0.0)
        with pytest.raises(ValueError):
            an.F_unitball(0.5)
        with pytest.raises(ValueError):
            an.h_cm(0.0)

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    @pytest.mark.parametrize("x", [5e-324, 1e-320])
    def test_tau_ratio_beyond_double_range(self, tau, x):
        # the quotient overflows, or its denominator rounds to -0.0
        with pytest.raises(ValueError, match="not a finite double"):
            an.tau_ratio(tau, x)


class TestCheckMonotone:
    def test_base_ratio_increasing_on_unit_interval(self):
        rep = an.check_monotone("ratio_R", 0.0, 1.0, "increasing", 10000)
        assert rep.verdict == "consistent"
        assert rep.strict_violations == []

    def test_base_ratio_increasing_beyond_one(self):
        rep = an.check_monotone("ratio_R", 0.0, 5.0, "increasing", 10000)
        assert rep.verdict == "consistent"

    def test_lambda6_decreasing(self):
        rep = an.check_monotone(
            "lambda_ratio:6", 0.0, 1.0, "decreasing", 10000
        )
        assert rep.verdict == "consistent"

    def test_violation_detected(self):
        # q is not monotone on (0,1): it has an interior minimum
        rep = an.check_monotone("q", 0.0, 1.0, "increasing", 500)
        assert rep.verdict == "violated"
        assert rep.strict_violations

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            an.check_monotone("nope", 0.0, 1.0, "increasing", 100)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            an.check_monotone("ratio_R", 1.0, 0.0, "increasing", 100)

    @pytest.mark.parametrize("grid_n", [0, 1])
    def test_grid_without_a_step(self, grid_n):
        with pytest.raises(ValueError, match="grid_n"):
            an.check_monotone("ratio_R", 0.0, 1.0, "increasing", grid_n)


class TestLambdaThresholds:
    def test_brackets(self):
        inc, dec, table = an.search_lambda_thresholds(
            grid_n=1000, lambda_tol=1e-3
        )
        assert 1.0 < inc <= dec < 6.0
        classes = dict((round(l, 3), c) for l, c in table)
        assert classes[1.0] == "increasing"
        assert classes[6.0] == "decreasing"

    def test_table_internally_consistent(self):
        inc, dec, table = an.search_lambda_thresholds(
            grid_n=1000, lambda_tol=1e-3
        )
        for lam, cls in table:
            if lam <= inc:
                assert cls == "increasing", lam
            if lam >= dec + 1e-9:
                assert cls == "decreasing", lam

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # an infinite tolerance would stop the bisection at once and
        # report the coarse grid points as the estimates
        with pytest.raises(ValueError, match="lambda_tol"):
            an.search_lambda_thresholds(grid_n=1000, lambda_tol=tol)

    def test_no_transition_raises(self, monkeypatch):
        monkeypatch.setattr(an, "_lambda_classifier",
                            lambda xs: lambda lam: "increasing")
        with pytest.raises(RuntimeError, match="no transition"):
            an.search_lambda_thresholds(1000)

    def test_stable_under_grid_doubling(self):
        inc1, dec1, _ = an.search_lambda_thresholds(1000, 1e-3)
        inc2, dec2, _ = an.search_lambda_thresholds(2000, 1e-3)
        assert abs(inc1 - inc2) < 1e-2
        assert abs(dec1 - dec2) < 1e-2

    @pytest.mark.parametrize(
        "lam", [0.5, 1.0, 1.1765625000000002, 6.0, 100.0]
    )
    def test_sweep_equals_scalar_ratio(self, lam):
        # the search's grid plus the band points
        xs = np.sort(np.concatenate([an._grid(0.0, 1.0, 2000), BAND_POINTS]))
        vals = an._lambda_sweep(xs)(lam)
        expected = [an.lambda_ratio(lam, x) for x in xs.tolist()]
        assert all(v == e for v, e in zip(vals.tolist(), expected))

    def test_kernels_evaluated_once_per_grid_point(self, monkeypatch):
        # the numerator does not depend on lambda: one array kernel call
        # evaluates it over the whole grid, and every classification only
        # rebuilds the denominator
        calls, scalar_calls = [], []
        kernel, scalar = refcore.ln_gamma1p_array, refcore.ln_gamma1p
        monkeypatch.setattr(
            refcore, "ln_gamma1p_array",
            lambda x: calls.append(np.copy(x)) or kernel(x),
        )
        monkeypatch.setattr(
            refcore, "ln_gamma1p",
            lambda x: scalar_calls.append(x) or scalar(x),
        )
        an.search_lambda_thresholds(2000)
        assert len(calls) == 1
        assert np.array_equal(calls[0], an._grid(0.0, 1.0, 2000))
        assert scalar_calls == []

    @pytest.mark.parametrize("grid_n", [2000, 20000])
    def test_ends_first_agrees_with_full_sweep(self, grid_n):
        xs = an._grid(0.0, 1.0, grid_n)
        values = an._lambda_sweep(xs)
        classify = an._lambda_classifier(xs)
        inc, dec, _ = an.search_lambda_thresholds(grid_n, 1e-9)
        lams = np.concatenate([
            np.linspace(0.5, 8.0, 501),
            np.linspace(inc - 1e-6, inc + 1e-6, 21),
            np.linspace(dec - 1e-6, dec + 1e-6, 21),
        ])
        seen = set()
        for lam in lams.tolist():
            cls = an._classify_lambda(xs, values(lam))
            assert classify(lam) == cls, lam
            seen.add(cls)
        assert seen == {"increasing", "non-monotone", "decreasing"}

    @pytest.mark.parametrize("grid_n, limit", [(2000, 17), (20000, 15)])
    def test_full_sweeps_only_for_possibly_monotone(
        self, monkeypatch, grid_n, limit
    ):
        # a lambda whose end steps rule out both directions is decided
        # from four grid points; a full-grid classification of all 65
        # lambda of the search would exceed the limit
        calls = []
        full = an._classify_lambda
        monkeypatch.setattr(
            an, "_classify_lambda",
            lambda xs, vals: calls.append(len(xs)) or full(xs, vals),
        )
        an.search_lambda_thresholds(grid_n)
        assert 0 < len(calls) <= limit
        assert set(calls) == {grid_n}

    def test_bracket_errs_outward(self):
        # f_lambda'(0+) vanishes at lambda_inc and f_lambda'(1-) at
        # lambda_dec: no lambda above lambda_inc is increasing on (0, 1)
        # and none below lambda_dec decreasing, so a grid, which can only
        # miss a non-monotone stretch, errs outward
        z2 = math.pi**2 / 6.0
        lam_inc = G / (z2 - 2.0 * G)
        lam_dec = (z2 - G) / (3.0 - 2.0 * G - z2)
        assert lam_inc == 1.1767837797985385
        assert lam_dec == 5.321706147024761
        with mp.workdps(30):
            ref_inc = mp.euler / (mp.zeta(2) - 2 * mp.euler)
            ref_dec = (mp.zeta(2) - mp.euler) / (3 - 2 * mp.euler - mp.zeta(2))
            assert abs(lam_inc - ref_inc) <= 1e-15 * ref_inc
            assert abs(lam_dec - ref_dec) <= 1e-15 * ref_dec
        for grid_n in (2000, 20000):
            inc, dec, _ = an.search_lambda_thresholds(grid_n, 1e-9)
            assert inc >= lam_inc, grid_n
            assert dec <= lam_dec, grid_n


class TestCMProbe:
    def test_h_cm_consistent(self):
        rep = an.cm_probe("h_cm", 0.1, 50.0, 6, 0.01)
        assert rep.verdict == "consistent"
        assert rep.violations == []

    def test_order0_and_order1_sanity(self):
        xs = np.arange(0.1, 50.0, 0.01)
        vals = np.array([an.h_cm(float(x)) for x in xs])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) <= 0.0)

    def test_violation_detected_for_non_cm_function(self):
        # ratio_R is increasing, so order-1 differences are positive:
        # (-1)^1 * positive < -tol fails complete monotonicity
        rep = an.cm_probe("ratio_R", 0.1, 5.0, 2, 0.01)
        assert rep.verdict == "violated"

    def test_stencil_domain_check(self):
        with pytest.raises(ValueError):
            an.cm_probe("h_cm", 0.1, 0.2, 6, 0.05)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="max_order"):
            an.cm_probe("h_cm", 0.1, 50.0, -1, 0.01)


class TestCrossover:
    def test_lower_side_domination(self):
        assert an.find_crossover("qi_guo", "ivady", "lower", 0.0, 1.0) == []

    def test_upper_side_crossover(self):
        roots = an.find_crossover("qi_guo", "ivady", "upper", 0.0, 1.0)
        assert len(roots) >= 1
        # direct evaluation: qi_guo upper smaller at 0.1, larger at 0.5
        assert (
            bounds.evaluate_family("qi_guo", 0.1).upper
            < bounds.evaluate_family("ivady", 0.1).upper
        )
        assert (
            bounds.evaluate_family("qi_guo", 0.5).upper
            > bounds.evaluate_family("ivady", 0.5).upper
        )

    def test_crossover_sign_flip(self):
        for x_star in an.find_crossover("qi_guo", "ivady", "upper", 0.0, 1.0):

            def diff(x):
                return (
                    bounds.evaluate_family("qi_guo", x).log_upper
                    - bounds.evaluate_family("ivady", x).log_upper
                )

            assert (diff(x_star - 1e-6) < 0.0) != (diff(x_star + 1e-6) < 0.0)

    def test_rearranged_vs_alzer_small_x(self):
        roots = an.find_crossover(
            "qi_guo_rearranged", "alzer_power", "upper", 0.01, 0.99
        )
        assert roots
        assert (
            bounds.evaluate_family("qi_guo_rearranged", 0.05).upper
            < bounds.evaluate_family("alzer_power", 0.05).upper
        )

    def test_one_sided_family_rejected_on_lower(self):
        with pytest.raises(bounds.DomainError):
            an.find_crossover("unitball", "batir_15", "lower", 0.6, 0.9)

    def test_undefined_point_rejected_on_both_sides(self):
        # unitball has neither side at x <= 1/2, so the upper side fails
        # at the first grid point
        with pytest.raises(bounds.DomainError, match="x > 1/2, got 0.25"):
            an.find_crossover("qi_guo_extended", "unitball", "upper",
                              0.25, 1.0)


class TestCompareFamilies:
    def test_winner_consistency(self):
        rep = an.compare_families(
            "upper", 0.0, 1.0, 200, ["qi_guo", "ivady", "lambda6"]
        )
        for x, w in zip(rep.grid, rep.winner_per_point):
            values = {
                f: bounds.evaluate_family(f, x).log_upper
                for f in rep.families
            }
            assert values[w] == min(values.values())

    def test_convention_mixing_rejected(self):
        with pytest.raises(ValueError):
            an.compare_families(
                "upper", 0.0, 1.0, 50, ["qi_guo", "alzer_power"]
            )

    def test_empty_family_list_rejected(self):
        with pytest.raises(ValueError):
            an.compare_families("upper", 0.0, 1.0, 50, [])

    def test_remark_claims_all_pass(self):
        findings = an.remark_claims(grid_n=1000)
        by_id = {cid: verdict for cid, _, verdict in findings}
        assert by_id["r2_3_rearranged_improves_alzer_batir"] == "pass"
        assert by_id["r3_2_qi_guo_upper_better_batir15"] == "pass"
        assert by_id["r3_1_qi_guo_batir14_not_included"] == "pass"
        assert by_id["r3_4b_upper_half_self_referential"] == "flagged"
        bad = [
            cid
            for cid, _, verdict in findings
            if verdict not in ("pass", "flagged")
        ]
        assert bad == []


class TestRemarkClaims:
    IDS = [
        "r2_1_rearranged_alzer_power_not_included",
        "r2_2_rearranged_better_small_x",
        "r2_3_rearranged_improves_alzer_batir",
        "r2_4_rearranged_lower_refines_qgz",
        "r2_5_rearranged_qgz_upper_not_included",
        "r2_6_rearranged_upper_better_small_x",
        "r3_1_qi_guo_batir14_not_included",
        "r3_2_qi_guo_upper_better_batir15",
        "r3_3_qi_guo_batir15_lower_not_included",
        "r3_4a_qi_guo_lower_improves_batir12",
        "r3_4b_upper_half_self_referential",
    ]

    @pytest.mark.parametrize("grid_n", [500, 1000, 2000])
    def test_verdicts_pinned(self, grid_n):
        findings = an.remark_claims(grid_n)
        assert [cid for cid, _, _ in findings] == self.IDS
        assert [v for _, _, v in findings] == ["pass"] * 10 + ["flagged"]
        assert findings[-1][1] == (
            "source claim compares a bound with itself; observed: "
            "qi_guo/batir_12 upper bounds cross on (0,1)"
        )

    def test_each_family_evaluated_once_per_grid(self, monkeypatch):
        # 8 families on the fixed 2000-point grid, 6 on the 1000-point
        # crossing scan and 3 on the 200-point small-x grid
        calls = []
        evaluate = bounds.evaluate_family

        def counting(family_id, x):
            calls.append(family_id)
            return evaluate(family_id, x)

        monkeypatch.setattr(bounds, "evaluate_family", counting)
        an.remark_claims(2000)
        assert len(calls) <= 22600

    @pytest.mark.parametrize(
        "family", ["qi_guo", "batir_12", "qi_guo_rearranged", "alzer_power"]
    )
    def test_family_against_itself(self, family):
        # a tie keeps the first family, so a family dominates itself on
        # both sides, and equal values never change sign
        claims = an._ClaimGrids(500)
        for side in ("lower", "upper"):
            assert claims.dominates(family, family, side)
            assert not claims.crosses(family, family, side)
            assert an.find_crossover(family, family, side, 0.0, 1.0) == []


class TestUnitballCompanions:
    def test_increasing_and_concave(self):
        xs = np.linspace(0.5 + 1e-3, 50.0, 5000)
        vals = np.array([an.F_unitball(float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(vals, 2) < 0.0)
        assert np.all(vals < 1.0)

    def test_two_x_power_upper_bound(self):
        for x in np.linspace(0.5 + 1e-3, 50.0, 5000):
            assert refcore.ln_gamma(float(x) + 1.0) < float(x) * math.log(
                2.0 * float(x)
            )


def _walk(f, xs):
    """The per-point evaluation the registry's array forms replace: f at
    each float of the grid, in order, stopping at the first error."""
    return np.array([f(x) for x in xs.tolist()])


class TestArrayForms:
    # Where only +, -, *, /, math.log and math.log1p element by element and
    # the Taylor band of ln Gamma on (0, 2.5) enter, the array form
    # equals the walk bit for bit: every h_cm and lambda_ratio, ratio_R on
    # (0, 1.5) (ln Gamma(x+1) takes x itself there), tau_ratio on
    # (0, 2.5), F_unitball on (0.5, 1.5), and the proof functions, which
    # the registry still evaluates point by point.
    EXACT = [
        ("ratio_R", 0.0, 1.5), ("h_cm", 0.0, 1.0), ("h_cm", 0.1, 50.0),
        ("h_cm", 50.0, 1e300), ("F_unitball", 0.5, 1.5),
        ("tau_ratio:2", 1e-3, 0.5), ("tau_ratio:2", 0.5, 2.5),
        ("tau_ratio:0.5", 0.5, 2.5),
        ("lambda_ratio:1", 0.0, 1.0), ("lambda_ratio:6", 0.0, 1.0),
        ("lambda_ratio:0.5", 0.0, 1.0), ("q", 0.0, 1.0), ("q1", 0.0, 1.0),
        ("q1_prime", 0.0, 1.0), ("f_over_g_prime", 0.0, 1.0),
    ]
    # Elsewhere ln Gamma shifts with numpy's log, which rounds a term of
    # the shift sum differently on a few points: on these samples at most
    # 4.6e-15 relative (ratio_R on (1.5, 50)); 2.3e-14 is the largest seen
    # on other seeds (ratio_R on (1.5, 50), where ln Gamma(x+1) is near
    # 0.28 and the shift sum near 24).
    CLOSE = [
        ("ratio_R", 1.5, 50.0), ("ratio_R", 50.0, 1e300),
        ("F_unitball", 1.5, 1e6), ("tau_ratio:2", 2.5, 50.0),
        ("tau_ratio:6", 1e-3, 1e300),
    ]

    @pytest.mark.parametrize("function_id, a, b", EXACT)
    def test_equals_the_walk(self, function_id, a, b):
        xs = an._grid(a, b, 3000)
        if b <= 1.0:
            xs = np.sort(np.concatenate([xs, BAND_POINTS]))
        f = an.resolve_function(function_id)
        assert f(xs).tolist() == _walk(f, xs).tolist()

    @pytest.mark.parametrize("function_id, a, b", CLOSE)
    def test_close_to_the_walk(self, function_id, a, b):
        xs = np.sort(np.random.default_rng(15).uniform(a, b, 20000))
        f = an.resolve_function(function_id)
        values, ref = f(xs), _walk(f, xs)
        assert np.all(np.abs(values - ref) <= 4e-14 * np.abs(ref))
        assert np.mean(values == ref) >= 0.99

    def test_limits_by_mask(self):
        xs = np.array([5e-324, 1e-310, 0.5, 1.0, 2.0])
        assert an.ratio_R(xs).tolist() == _walk(an.ratio_R, xs).tolist()
        assert an.ratio_R(xs)[[0, 1, 3]].tolist() == [
            G, G, 2.0 * (1.0 - G)]
        assert an.h_cm(xs[2:]).tolist() == _walk(an.h_cm, xs[2:]).tolist()
        assert an.h_cm(xs[2:])[1] == 2.0
        taus = an.tau_ratio(2.0, xs[2:])
        assert taus.tolist() == [an.tau_ratio(2.0, x) for x in (0.5, 1.0, 2.0)]
        assert taus[1] == -3.0 * G
        lams = an.lambda_ratio(6.0, xs[:3])
        assert lams.tolist() == [6.0 * G, 6.0 * G, an.lambda_ratio(6.0, 0.5)]

    @pytest.mark.parametrize("function_id, xs", [
        ("lambda_ratio:2", an._grid(0.0, 2.0, 1000)),
        ("F_unitball", an._grid(0.0, 1.0, 1000)),
        ("h_cm", an._grid(-1.0, 1.0, 1000)),
        ("ratio_R", an._grid(-1.0, 1.0, 1000)),
        ("tau_ratio:2", an._grid(-1.0, 1.0, 1000)),
        ("tau_ratio:2", np.array([5e-324, 1e-322, 1e-321])),
        ("h_cm", np.array([1.0, 0.5, 5e-324, -1.0])),
        ("ratio_R", an._grid(1e305, 1e307, 100)),
        ("ratio_R", np.array([0.5, 1e306, -1.0])),
        ("ratio_R", np.array([0.5, -1.0, 1e306])),
        ("ratio_R", np.array([2.0, math.inf, math.nan])),
        ("ratio_R", np.array([2.0, math.nan, math.inf])),
        ("F_unitball", np.array([2.0, 1e306, 0.5])),
        ("tau_ratio:2", np.array([2.0, -math.inf])),
        ("lambda_ratio:6", np.array([0.5, 1.0])),
        ("q", an._grid(0.0, 2.0, 100)),
    ])
    def test_raises_the_walks_first_error(self, function_id, xs):
        f = an.resolve_function(function_id)
        with pytest.raises(ValueError) as walk:
            _walk(f, xs)
        with pytest.raises(ValueError) as array:
            f(xs)
        assert type(array.value) is type(walk.value)
        assert str(array.value) == str(walk.value)

    @pytest.mark.parametrize("x", [1e154, 1.3e154, 1.4e154, 1e200, 1e300])
    def test_huge_x_against_mpmath(self, x):
        # past x ~ 1.34e154 x(x-1) overflows; log_base_arg then divides
        # first, and the ratios stay finite and close
        m = mp.mpf(x)
        cases = [
            (an.ratio_R, mp.loggamma(m + 1) / mp.log((m * m + 1) / (m + 1))),
            (an.h_cm, mp.log(m) / mp.log((1 + m * m) / (1 + m))),
            (lambda x: an.tau_ratio(2.0, x),
             mp.loggamma(m) / mp.log((m * m + 2) / (m + 2))),
            (an.F_unitball, mp.loggamma(m + 1) / (m * mp.log(2 * m))),
        ]
        for f, ref in cases:
            for value in (f(x), f(np.array([0.75, x]))[1]):
                assert abs(value - ref) <= 4e-16 * abs(ref), (f, x)

    @pytest.mark.parametrize("f", [
        an.ratio_R, an.F_unitball, lambda x: an.tau_ratio(2.0, x),
    ], ids=["ratio_R", "F_unitball", "tau_ratio"])
    def test_not_a_finite_double_past_ln_gamma_overflow(self, f):
        # ln Gamma overflows past x ~ 2.56e305
        for x in (1e306, np.array([2.0, 1e306])):
            with pytest.raises(ValueError, match="1e.306. is not a finite"):
                f(x)

    def test_h_cm_not_a_finite_double_at_subnormal_x(self):
        for x in (5e-324, np.array([0.5, 5e-324])):
            with pytest.raises(ValueError,
                               match=r"h_cm\(5e-324\) is not a finite"):
                an.h_cm(x)

    @pytest.mark.parametrize("function_id", ["h_cm", "ratio_R", "tau_ratio:2"])
    def test_check_monotone_calls_the_entry_once(self, function_id,
                                                 monkeypatch):
        calls = []
        name, _, _ = function_id.partition(":")
        registry = an._FUNCTIONS if name in an._FUNCTIONS else an._PARAMETRIZED
        f = registry[name]
        monkeypatch.setitem(registry, name,
                            lambda *a: calls.append(len(a[-1])) or f(*a))
        an.check_monotone(function_id, 0.5, 5.0, "decreasing", 777)
        assert calls == [777]

    def test_cm_probe_calls_the_entry_once(self, monkeypatch):
        calls = []
        f = an._FUNCTIONS["h_cm"]
        monkeypatch.setitem(an._FUNCTIONS, "h_cm",
                            lambda x: calls.append(len(x)) or f(x))
        rep = an.cm_probe("h_cm", 0.1, 50.0, 6, 0.01)
        assert rep.verdict == "consistent"
        assert calls == [4991]

    @pytest.mark.parametrize("call", [
        lambda: an.check_monotone("h_cm", 0.0, math.inf, "decreasing", 10),
        lambda: an.check_monotone("h_cm", -math.inf, 1.0, "decreasing", 10),
        lambda: an.check_monotone("h_cm", 0.0, math.nan, "decreasing", 10),
        lambda: an.check_monotone("h_cm", -1e308, 1e308, "decreasing", 10),
        lambda: an.cm_probe("h_cm", 0.1, math.inf, 2, 0.01),
        lambda: an.cm_probe("h_cm", 0.1, math.nan, 2, 0.01),
    ])
    def test_non_finite_interval_named(self, call):
        with pytest.raises(ValueError, match=r"interval \(.*\) is not finite"):
            call()


def _walk_logs(family_id, xs):
    """Both log sides of one family by one evaluate_family call per point:
    the walk that _family_logs replaces, kept as its reference."""
    lower = np.full(len(xs), np.nan)
    upper = np.full(len(xs), np.nan)
    errors = {}
    for i, x in enumerate(xs):
        try:
            bp = bounds.evaluate_family(family_id, x)
        except bounds.DomainError as exc:
            errors.setdefault("lower", (i, exc))
            errors.setdefault("upper", (i, exc))
            continue
        upper[i] = bp.log_upper
        if bp.one_sided and bp.log_lower == -math.inf:
            no_lower = bounds.DomainError("%s has no lower bound" % family_id)
            errors.setdefault("lower", (i, no_lower))
        else:
            lower[i] = bp.log_lower
    return lower, upper, errors


# grids that cross every domain edge (0, 1/2, 1, the integers) and reach
# the subnormals and lnGamma's overflow, plus one-point and empty grids
FAMILY_GRIDS = {
    "wide": an._grid(-1.0, 3.0, 4001),
    "knots": np.linspace(-0.5, 2.0, 26),
    "huge": np.array([1e100, 1e300, 1e306, 1e307, 1.7e308, 2.0]),
    "tiny": np.array([5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 0.25]),
    "one": np.array([0.5]),
    "one_bad": np.array([-0.5]),
    "empty": np.array([]),
}

# the families whose sides take no psi: every other kernel of
# refcore.ON_ARRAY rounds each element as its float form does
EXACT_FAMILIES = (
    "alzer_power", "batir_12", "batir_14", "batir_15", "ivady", "lambda6",
    "qi_guo", "qi_guo_extended", "qi_guo_rearranged", "unitball",
)


class TestFamilyLogsArray:
    @pytest.mark.parametrize("grid", FAMILY_GRIDS)
    @pytest.mark.parametrize("family", sorted(bounds.FAMILIES))
    def test_matches_the_walk(self, family, grid):
        xs = FAMILY_GRIDS[grid]
        logs = an._family_logs(family, xs)
        lower, upper, errors = _walk_logs(family, xs)
        assert {k: (i, type(e), str(e)) for k, (i, e) in logs.errors.items()} \
            == {k: (i, type(e), str(e)) for k, (i, e) in errors.items()}
        for got, want in ((logs.lower, lower), (logs.upper, upper)):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            got, want = got[~np.isnan(want)], want[~np.isnan(want)]
            if family in EXACT_FAMILIES:
                assert got.tolist() == want.tolist()
            else:
                # digamma_array against digamma: measured at most 2.3e-16
                # of max(1, |side|) on these grids
                assert np.all(np.abs(got - want)
                              <= 4e-14 * np.maximum(1.0, np.abs(want)))

    def test_no_point_calls_on_valid_grids(self, monkeypatch):
        calls = []
        evaluate = bounds.evaluate_family
        monkeypatch.setattr(bounds, "evaluate_family",
                            lambda f, x: calls.append(f) or evaluate(f, x))
        findings = an.remark_claims(2000)
        assert [v for _, _, v in findings] == ["pass"] * 10 + ["flagged"]
        assert calls == []

    @pytest.mark.parametrize("family, a, b, expected", [
        ("qi_guo", 0.0, 3.0, ["qi_guo"]),
        ("unitball", 0.25, 1.0, ["unitball"]),
        ("unitball", 0.75, 3.0, []),
        ("alzer_power", 0.0, 3.0, []),
        ("batir_12", 0.0, 3.0, []),
    ])
    def test_one_point_call_per_error(self, family, a, b, expected,
                                      monkeypatch):
        calls = []
        evaluate = bounds.evaluate_family
        monkeypatch.setattr(bounds, "evaluate_family",
                            lambda f, x: calls.append(f) or evaluate(f, x))
        an._family_logs(family, an._grid(a, b, 1000))
        assert calls == expected

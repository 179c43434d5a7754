"""Acceptance gate: the thirteen release criteria, one test each.

Every test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the criterion at its stated tolerance.
"""

import math

import numpy as np
import pytest

from gamma_envelope import analysis, bounds, cli, polycert, proofaudit, refcore

G = refcore.EULER_GAMMA


def _report(num, title, ok):
    print("ACCEPTANCE %02d %-42s %s" % (num, title, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d failed: %s" % (num, title)


class TestAcceptance:
    def test_01_theorem_containment(self):
        xs = np.linspace(1e-6, 1.0 - 1e-6, 10000)
        ok = True
        for x in xs:
            bp = bounds.theorem_bounds(float(x))
            g = refcore.gamma(float(x) + 1.0)
            ok = ok and bp.lower < g < bp.upper
        _report(1, "theorem containment, strict, 1e4 grid", ok)

    def test_02_sharpness_both_ways(self):
        c = refcore.constants()
        lo_violation = any(
            bounds.theorem_bounds(
                float(x), alpha=c.alpha_sharp - 1e-3
            ).log_lower
            >= refcore.ln_gamma(float(x) + 1.0)
            for x in np.linspace(0.9 + 1e-6, 1.0 - 1e-6, 2000)
        )
        up_violation = any(
            bounds.theorem_bounds(float(x), beta=c.beta_sharp + 1e-3).log_upper
            <= refcore.ln_gamma(float(x) + 1.0)
            for x in np.linspace(1e-6, 0.1 - 1e-6, 2000)
        )
        _report(2, "exponents sharp both ways at 1e-3", lo_violation and up_violation)

    def test_03_ratio_limits(self):
        ok = (
            abs(proofaudit.ratio_R(1e-8) - G) <= 1e-6
            and abs(proofaudit.ratio_R(1.0 - 1e-8) - 2.0 * (1.0 - G)) <= 1e-6
        )
        _report(3, "ratio limits at 0+ and 1-", ok)

    def test_04_proof_anchors_and_audit(self):
        # q1(1) is printed truncated in the derivation; -45.1289 is the
        # 4-decimal truncation of the true -45.12890..., and the coarser
        # -45.128 +/- 5e-4 window cannot hold (gap 9e-4)
        ok = (
            abs(proofaudit.proof_function("q1", 0.0) - 3.922) <= 5e-4
            and abs(proofaudit.proof_function("q1", 1.0) + 45.1289) <= 5e-4
            and abs(proofaudit.proof_function("q", 0.0) + 0.0289) <= 1e-4
            and abs(proofaudit.proof_function("q", 1.0)) <= 1e-10
        )
        claims = proofaudit.audit_proof(grid_n=10000)
        ok = ok and all(c.verdict == "pass" for c in claims)
        _report(4, "proof anchors + full audit at 1e4", ok)

    def test_05_lemma_certificates(self):
        certs = polycert.certify_lemma_polynomials()
        anchors = {
            1: [(1, -4), (2, 29)],
            3: [(1, -40), (3, 1304)],
            4: [(1, -12), (2, 49)],
            5: [(1, -488), (2, 84)],
        }
        ok = all(
            certs[i].verdict == "certified"
            and certs[i].sturm_root_count == 0
            and [(int(x), int(v)) for x, v in certs[i].spot_checks]
            == anchors[i]
            for i in (1, 3, 4, 5)
        )
        xs = np.linspace(1e-6, 1.0 - 1e-6, 10000)
        ok = ok and all(proofaudit.lemma_expr(2, float(x)) > 0.0 for x in xs)
        ok = ok and abs(proofaudit.lemma_expr(2, 0.0) - 1.0) <= 1e-12
        _report(5, "lemma certificates exact + h2 positive", ok)

    def test_06_polygamma_sandwich(self):
        xs = np.logspace(math.log10(0.01), math.log10(100.0), 2000)
        ok = True
        for k in (1, 2, 3):
            for x in xs:
                bp = bounds.polygamma_bounds(k, float(x))
                v = abs(refcore.polygamma(k, float(x)))
                ok = ok and bp.lower < v < bp.upper
        _report(6, "polygamma sandwich k in {1,2,3}", ok)

    def test_07_extended_bounds(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(1e-3, 20.0, 2200)
        xs = xs[np.abs(xs - np.round(xs)) > 1e-9][:2000]
        ok = all(
            bounds.extended_bounds(float(x)).log_lower
            < refcore.ln_gamma(float(x) + 1.0)
            < bounds.extended_bounds(float(x)).log_upper
            for x in xs
        )
        for n in range(1, 11):
            bp = bounds.extended_bounds(float(n))
            fact = float(math.factorial(n))
            ok = ok and abs(bp.lower - fact) <= 1e-12 * fact
            ok = ok and abs(bp.upper - fact) <= 1e-12 * fact
        _report(7, "extended bounds + factorial equality", ok)

    def test_08_lambda6_family(self):
        xs = np.linspace(1e-6, 1.0 - 1e-6, 10000)
        ok = all(
            bounds.evaluate_family("lambda6", float(x)).log_lower
            < refcore.ln_gamma(float(x) + 1.0)
            < bounds.evaluate_family("lambda6", float(x)).log_upper
            for x in xs
        )
        rep = analysis.check_monotone(
            "lambda_ratio:6", 0.0, 1.0, "decreasing", 10000
        )
        ok = ok and rep.verdict == "consistent"
        ok = ok and abs(analysis.lambda_ratio(6.0, 1e-7) - 6.0 * G) <= 1e-5
        ok = ok and abs(
            analysis.lambda_ratio(6.0, 1.0 - 1e-7) - 7.0 * (1.0 - G)
        ) <= 1e-5
        _report(8, "lambda=6 containment/monotone/limits", ok)

    def test_09_remark_reproduction(self):
        findings = analysis.remark_claims(grid_n=1000)
        ok = all(c.verdict in ("pass", "flagged") for c in findings)
        flagged = [c.name for c in findings if c.verdict == "flagged"]
        ok = ok and flagged == ["r3_4b_upper_half_self_referential"]
        ok = ok and analysis.find_crossover("qi_guo", "ivady", "lower", 0.0, 1.0) == []
        roots = analysis.find_crossover("qi_guo", "ivady", "upper", 0.0, 1.0)
        ok = ok and len(roots) == 1 and 0.0 < roots[0] < 1.0
        _report(9, "remark predicates + crossover detection", ok)

    def test_10_unitball_shape(self):
        xs = np.linspace(0.5 + 1e-3, 50.0, 5000)
        vals = np.array([analysis.F_unitball(float(x)) for x in xs])
        ok = (
            bool(np.all(np.diff(vals) > 0.0))
            and bool(np.all(np.diff(vals, 2) < 0.0))
            and bool(np.all(vals < 1.0))
        )
        ok = ok and all(
            refcore.ln_gamma(float(x) + 1.0)
            < float(x) * math.log(2.0 * float(x))
            for x in xs
        )
        _report(10, "F increasing/concave/<1 + (2x)^x bound", ok)

    def test_11_conjecture_probes(self):
        ok = (
            analysis.check_monotone(
                "ratio_R", 0.0, 50.0, "increasing", 10000
            ).verdict
            == "consistent"
        )
        for tau in (0.5, 1.0, 2.0, 6.0):
            ok = ok and (
                analysis.check_monotone(
                    "tau_ratio:%g" % tau, 1e-3, 50.0, "increasing", 10000
                ).verdict
                == "consistent"
            )
        ok = ok and (
            analysis.cm_probe("h_cm", 0.1, 50.0, 6, 0.01).verdict
            == "consistent"
        )
        _report(11, "conjecture probes all consistent", ok)

    def test_12_lambda_thresholds(self):
        inc1, dec1, _ = analysis.search_lambda_thresholds(2000, 1e-3)
        inc2, dec2, _ = analysis.search_lambda_thresholds(4000, 1e-3)
        ok = 1.0 < inc1 <= dec1 < 6.0
        ok = ok and abs(inc1 - inc2) < 1e-2 and abs(dec1 - dec2) < 1e-2
        _report(12, "lambda threshold bracket + stability", ok)

    def test_13_determinism(self, tmp_path):
        ok = True
        for fmt in ("csv", "json"):
            paths = [tmp_path / ("a%d.%s" % (i, fmt)) for i in (1, 2)]
            for p in paths:
                code = cli.main(
                    [
                        "audit", "--grid", "1000",
                        "--format", fmt, "--out", str(p),
                    ]
                )
                ok = ok and code == 0
            ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
        _report(13, "byte-identical repeated reports", ok)

"""Proof-chain evaluation and audit verdicts."""

import math

import mpmath as mp
import numpy as np
import pytest

from gamma_envelope import proofaudit as pa
from gamma_envelope import refcore

mp.mp.dps = 50


class TestRatio:
    def test_value_at_half(self):
        # independent oracle: 50-digit direct formula
        expected = float(
            mp.loggamma(1.5) / (mp.log(1.25) - mp.log(1.5))
        )
        assert pa.ratio_R(0.5) == pytest.approx(expected, rel=1e-10)

    def test_limit_at_zero(self):
        assert pa.ratio_R(1e-8) == pytest.approx(
            refcore.EULER_GAMMA, abs=1e-6
        )

    def test_limit_at_one(self):
        assert pa.ratio_R(1.0 - 1e-8) == pytest.approx(
            2.0 * (1.0 - refcore.EULER_GAMMA), abs=1e-6
        )

    def test_band_is_continuous(self):
        # values just inside and outside the removable band agree closely
        assert pa.ratio_R(1.0 - 2e-6) == pytest.approx(
            pa.ratio_R(1.0 - 9e-7), abs=1e-5
        )

    def test_sandwich_on_unit_interval(self):
        g = refcore.EULER_GAMMA
        for x in np.linspace(1e-4, 1.0 - 1e-4, 2000):
            r = pa.ratio_R(float(x))
            assert g < r < 2.0 * (1.0 - g)

    def test_strictly_increasing(self):
        xs = np.linspace(1e-4, 1.0 - 1e-4, 10000)
        vals = [pa.ratio_R(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            pa.ratio_R(0.0)


class TestLemmaExpr:
    def test_transcendental_at_zero(self):
        assert pa.lemma_expr(2, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_anchor(self):
        assert pa.lemma_expr(1, 1.0) == -4.0

    def test_transcendental_at_half(self):
        expected = float(
            (mp.mpf("-0.5")) * mp.mpf("0.25")
            - mp.mpf("1.5") * mp.mpf("1.25") * mp.log(mp.mpf(5) / 6)
        )
        assert pa.lemma_expr(2, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_matches_exact_polynomials(self):
        from gamma_envelope.polycert import LEMMA_POLYNOMIALS

        for i in (1, 3, 4, 5):
            for x in (0.0, 0.25, 0.5, 0.875, 1.0):
                assert pa.lemma_expr(i, x) == float(LEMMA_POLYNOMIALS[i](x))

    def test_derivative_identity(self):
        # d/dx [h2 / ((x+1)(x^2+1))] = -(x-1) h1 / ((x+1)^2 (x^2+1)^2):
        # negative on (0,1), so the quotient decreases from h2(0) = 1 to
        # 0 at x = 1 and h2 stays positive.  (Some published statements
        # drop the leading minus; symbolic differentiation and the finite
        # difference below both fix the orientation.)
        h = 1e-6
        rng = np.random.default_rng(99)
        for x in rng.uniform(0.01, 0.99, 500):
            x = float(x)

            def lhs(t):
                return pa.lemma_expr(2, t) / ((t + 1.0) * (t * t + 1.0))

            fd = (lhs(x + h) - lhs(x - h)) / (2.0 * h)
            exact = (
                -(x - 1.0)
                * pa.lemma_expr(1, x)
                / ((x + 1.0) ** 2 * (x * x + 1.0) ** 2)
            )
            assert fd == pytest.approx(exact, rel=1e-4)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            pa.lemma_expr(6, 0.5)


class TestProofFunctions:
    def test_q1_endpoints(self):
        # -2 psi'(1) - 3 psi''(1) and 80(1 - pi^2/6) - 16 psi''(2)
        q1_0 = float(-2 * mp.polygamma(1, 1) - 3 * mp.polygamma(2, 1))
        q1_1 = float(80 * (1 - mp.pi**2 / 6) - 16 * mp.polygamma(2, 2))
        assert pa.proof_function("q1", 0.0) == pytest.approx(q1_0, rel=1e-12)
        assert pa.proof_function("q1", 1.0) == pytest.approx(q1_1, rel=1e-12)
        assert pa.proof_function("q1", 0.0) == pytest.approx(3.9225, abs=5e-4)
        assert pa.proof_function("q1", 1.0) == pytest.approx(
            -45.1289, abs=5e-4
        )

    def test_q_endpoints(self):
        q_0 = float((mp.pi**2 / 6 - 3 * mp.euler) / 3)
        assert pa.proof_function("q", 0.0) == pytest.approx(q_0, rel=1e-12)
        assert pa.proof_function("q", 0.0) == pytest.approx(
            -0.0289, abs=1e-4
        )
        assert abs(pa.proof_function("q", 1.0)) <= 1e-10

    def test_q1_prime_negative_inside(self):
        for x in np.linspace(1e-3, 1.0 - 1e-3, 200):
            assert pa.proof_function("q1_prime", float(x)) < 0.0

    def test_f_over_g_prime_requires_open_interval(self):
        with pytest.raises(ValueError):
            pa.proof_function("f_over_g_prime", 0.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            pa.proof_function("nope", 0.5)


class TestAudit:
    def test_all_claims_pass(self):
        claims = pa.audit_proof(grid_n=10000)
        failing = [c.name for c in claims if c.verdict != "pass"]
        assert failing == []

    def test_expected_claims_present(self):
        names = {c.name for c in pa.audit_proof(grid_n=200)}
        assert {
            "q1_strictly_decreasing",
            "q1_unique_zero",
            "q_unique_minimum",
            "q_negative_interior",
            "f_over_g_prime_strictly_increasing",
            "lemma_h1_negative",
            "lemma_h2_positive",
            "lemma_h5_negative",
            "q1_at_0",
            "ratio_limit_at_1",
        } <= names

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            pa.audit_proof(grid_n=50)

    def test_unique_zero_witness_interior(self):
        claims = {c.name: c for c in pa.audit_proof(grid_n=2000)}
        w = claims["q1_unique_zero"].witness
        assert 0.0 < w < 1.0

    def test_serialization(self):
        import json

        claims = pa.audit_proof(grid_n=200)
        doc = json.loads(pa.claims_to_json(claims))
        assert len(doc) == len(claims)
        assert all(len(c["interval"]) == 2 for c in doc)

"""Proof-chain evaluation and audit verdicts."""

import math
import re

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
        # a numpy scalar is taken as the float it holds
        assert pa.ratio_R(np.float64(0.5)) == pa.ratio_R(0.5)

    def test_limit_at_zero(self):
        assert pa.ratio_R(1e-8) == pytest.approx(
            refcore.EULER_GAMMA, abs=1e-6
        )

    def test_limit_at_one(self):
        assert pa.ratio_R(1.0 - 1e-8) == pytest.approx(
            2.0 * (1.0 - refcore.EULER_GAMMA), abs=1e-6
        )

    def test_band_is_continuous(self):
        # values either side of 1 - 1e-6 agree closely
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

    @pytest.mark.parametrize("center, tol", [(0.0, 2e-15), (1.0, 2e-15),
                                             (2.0, 2e-14)])
    def test_near_the_zeros_against_mpmath(self, center, tol):
        # center +- 10^-k, k = 3..12, where x > 0.  Both sides vanish at 0
        # and 1 and keep their digits there; at 2 nothing vanishes, and
        # ln Gamma(3 +- 10^-k) carries the recurrence shift's absolute
        # error, up to 1.3e-14 relative
        xs = [center + s * 10.0**-k for k in range(3, 13)
              for s in (-1.0, 1.0)]
        for x in (x for x in xs if x > 0.0):
            m = mp.mpf(x)
            ref = mp.loggamma(m + 1) / mp.log((m * m + 1) / (m + 1))
            assert abs(pa.ratio_R(x) - ref) <= tol * abs(ref), x

    def test_limits_at_exact_points(self):
        g = refcore.EULER_GAMMA
        assert pa.ratio_R(1.0) == 2.0 * (1.0 - g)
        # subnormal x: no quotient of doubles keeps its digits there
        assert pa.ratio_R(5e-324) == g
        assert pa.ratio_R(1e-310) == g


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

    @pytest.mark.parametrize("x, taken", [(0.5, {"num", "psi", "lg"}),
                                          (0.995, {"num"})])
    def test_band_at_a_point_skips_the_direct_formula(self, x, taken):
        # inside the band f'/g''s numerator is the series alone: the
        # kernels of its direct formula are never called
        values = pa._Values(x, refcore.AT_POINT)
        values["num"]
        assert set(values) == taken


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

    @pytest.mark.parametrize("vals, changes, witness", [
        ([1.0, 2.0, 3.0, 4.0], 0.0, None),
        ([1.0, 2.0, -1.0, 3.0], 2.0, 0.25),
    ])
    def test_unique_zero_fails(self, vals, changes, witness):
        # no sign change, or two: the claim fails without a bisection, and
        # the witness is the first change's left grid point
        xs = np.array([0.0, 0.25, 0.5, 0.75])
        claim = pa._grid_claim("z", "unique_zero", None, xs, np.array(vals),
                               "q1")
        assert claim.verdict == "fail"
        assert claim.measured == changes
        assert claim.witness == witness
        assert claim.interval == (0.0, 0.75)


class TestDenseAudit:
    def test_every_claim_passes(self):
        # at 100x the default grid the last interior point is 1 - 1e-6,
        # where q is -4.7e-19: q keeps its sign only because ln Gamma(x+1)
        # keeps its digits near its zero at x = 1
        claims = pa.audit_proof(grid_n=100000)
        assert len(claims) == 16
        assert [c.name for c in claims if c.verdict != "pass"] == []


class TestGrids:
    @pytest.mark.parametrize("n", [2, 100, 10**4, 10**5])
    def test_interior_grid_is_the_list_formula(self, n):
        eps = 1e-6
        ref = [eps + (1.0 - 2.0 * eps) * i / (n - 1) for i in range(n)]
        assert pa.interior_grid(n).tolist() == ref

    @pytest.mark.parametrize("n", [2, 100, 10**4, 10**5])
    def test_closed_grid_is_the_list_formula(self, n):
        assert pa.closed_grid(n).tolist() == [i / (n - 1) for i in range(n)]

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_fewer_than_two_points_rejected(self, n):
        with pytest.raises(ValueError):
            pa.interior_grid(n)
        with pytest.raises(ValueError):
            pa.closed_grid(n)


def _points(name):
    """The 2000-point audit grids plus the band edges, 1 - 1e-6, and 0 and
    1, each where ``name`` (a proof function or lemma index) is defined."""
    band = pa.NEAR_ONE_BAND
    edges = [1.0 - band, np.nextafter(1.0 - band, 0.0),
             np.nextafter(1.0 - band, 1.0), 1.0 - 1e-6, 0.0, 1.0]
    xs = np.concatenate([pa.closed_grid(2000), pa.interior_grid(2000),
                         np.array(edges)])
    if name == "f_over_g_prime":
        xs = xs[(xs > 0.0) & (xs < 1.0)]
    return xs


PROOF_FUNCTIONS = ("f_over_g_prime", "q", "q1", "q1_prime")


class TestArrayPath:
    @pytest.mark.parametrize("name", PROOF_FUNCTIONS)
    def test_proof_function_matches_scalar(self, name):
        # every kernel the chain calls at x + 1 in (1, 2) sums the same
        # Taylor series on a float and an array, so the two forms agree
        # bit for bit (every tenth point of the 10^5 audit grid keeps the
        # test short)
        for xs in (_points(name), pa.interior_grid(100000)[::10]):
            ref = [pa.proof_function(name, x) for x in xs.tolist()]
            assert pa.proof_function(name, xs).tolist() == ref

    @pytest.mark.parametrize("i", [1, 3, 4, 5])
    def test_lemma_polynomials_bit_identical(self, i):
        xs = _points(i)
        ref = [pa.lemma_expr(i, float(x)) for x in xs]
        assert pa.lemma_expr(i, xs).tolist() == ref

    def test_lemma_h2_matches_scalar(self):
        # both forms take math.log1p (np.log1p differs in the last bit on
        # a few percent of inputs) and the same band series
        for xs in (_points(2), pa.interior_grid(100000)):
            assert (np.abs(xs - 1.0) < pa.NEAR_ONE_BAND).sum() > 40
            ref = [pa.lemma_expr(2, x) for x in xs.tolist()]
            assert pa.lemma_expr(2, xs).tolist() == ref

    @pytest.mark.parametrize("name", ["f_over_g_prime", 2])
    def test_band_series_independent_of_block_mates(self, name):
        # the series runs until every element of the block has converged;
        # each element must come out as it does on its own
        xs = np.linspace(1.0 - pa.NEAR_ONE_BAND, 1.0 - 1e-9, 300)
        if name == 2:
            xs = np.append(xs, 1.0)  # the sum never stops at x = 1
            evaluate = pa.lemma_expr
        else:
            evaluate = pa.proof_function
        together = evaluate(name, xs)
        alone = [evaluate(name, xs[j:j + 1])[0] for j in range(len(xs))]
        assert together.tolist() == alone

    def test_blocks_do_not_change_values(self):
        xs = pa.interior_grid(pa.BLOCK + 7)
        whole = pa.proof_function("q1", xs)
        tail = pa.proof_function("q1", xs[pa.BLOCK - 3:])
        assert whole[pa.BLOCK - 3:].tolist() == tail.tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5,
                                     1.5])
    def test_domain_errors(self, bad):
        # the first element outside the domain raises the float's error
        xs = np.array([0.5, bad, 2.0])
        for name in PROOF_FUNCTIONS:
            with pytest.raises(ValueError) as at_point:
                pa.proof_function(name, bad)
            with pytest.raises(ValueError, match=re.escape(
                    str(at_point.value))):
                pa.proof_function(name, xs)
        for i in range(1, 6):
            with pytest.raises(ValueError, match=re.escape(
                    "lemma_expr requires 0 <= x <= 1, got %r" % (bad,))):
                pa.lemma_expr(i, xs)

    def test_f_over_g_prime_needs_open_interval(self):
        for end in (0.0, 1.0):
            with pytest.raises(ValueError, match="0 < x < 1"):
                pa.proof_function("f_over_g_prime", np.array([end]))

    def test_unknown_name_and_index(self):
        with pytest.raises(ValueError):
            pa.proof_function("nope", np.array([0.5]))
        with pytest.raises(ValueError):
            pa.lemma_expr(6, np.array([0.5]))

    @pytest.mark.parametrize("xs", [np.array([[0.5]])])
    def test_not_one_dimensional(self, xs):
        with pytest.raises(ValueError, match="1-D array"):
            pa.proof_function("q", xs)
        with pytest.raises(ValueError, match="1-D array"):
            pa.lemma_expr(2, xs)

    def test_empty(self):
        empty = np.array([])
        for name in PROOF_FUNCTIONS:
            assert pa.proof_function(name, empty).shape == (0,)
        for i in range(1, 6):
            assert pa.lemma_expr(i, empty).shape == (0,)

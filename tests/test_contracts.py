"""Input contracts: bad arguments to the public entry points raise
ValueError with a message naming what is wrong, before any work is done."""

import math

import numpy as np
import pytest

from gamma_envelope import analysis, polycert, proofaudit, refcore

_P = polycert.Polynomial([-1, 0, 1])

# (id, call, message pattern)
CONTRACTS = [
    ("lambda_ratio_x_0", lambda: analysis.lambda_ratio(1.0, 0.0),
     "0 < x < 1"),
    ("lambda_ratio_x_1", lambda: analysis.lambda_ratio(1.0, 1.0),
     "0 < x < 1"),
    ("lambda_ratio_x_nan", lambda: analysis.lambda_ratio(1.0, math.nan),
     "0 < x < 1"),
    ("tau_ratio_tau_0", lambda: analysis.tau_ratio(0.0, 0.5), "tau > 0"),
    ("tau_ratio_tau_negative", lambda: analysis.tau_ratio(-1.0, 0.5),
     "tau > 0"),
    ("check_monotone_direction",
     lambda: analysis.check_monotone("ratio_R", 0.0, 1.0, "up", 100),
     "direction"),
    ("lambda_search_grid_999",
     lambda: analysis.search_lambda_thresholds(grid_n=999), "grid_n"),
    ("cm_probe_step_0",
     lambda: analysis.cm_probe("h_cm", 0.1, 1.0, 2, 0.0), "step"),
    ("cm_probe_step_negative",
     lambda: analysis.cm_probe("h_cm", 0.1, 1.0, 2, -0.01), "step"),
    ("cm_probe_a_0",
     lambda: analysis.cm_probe("h_cm", 0.0, 1.0, 2, 0.01), "a must"),
    ("cm_probe_a_negative",
     lambda: analysis.cm_probe("h_cm", -1.0, 1.0, 2, 0.01), "a must"),
    ("side_unknown", lambda: analysis._side(None, "middle"), "side"),
    ("lemma_expr_below_0", lambda: proofaudit.lemma_expr(2, -0.1),
     "0 <= x <= 1"),
    ("lemma_expr_above_1", lambda: proofaudit.lemma_expr(1, 1.5),
     "0 <= x <= 1"),
    ("proof_function_below_0", lambda: proofaudit.proof_function("q", -0.1),
     "0 <= x <= 1"),
    ("proof_function_above_1", lambda: proofaudit.proof_function("q1", 1.5),
     "0 <= x <= 1"),
    ("polygamma_inf", lambda: refcore.polygamma(1, math.inf), "finite"),
    ("polygamma_minus_inf", lambda: refcore.polygamma(2, -math.inf),
     "finite"),
    ("polygamma_nan", lambda: refcore.polygamma(3, math.nan), "finite"),
    ("certify_sign_a_equals_b",
     lambda: polycert.certify_sign(_P, 1, 1, "negative"), "a < b"),
    ("certify_sign_a_above_b",
     lambda: polycert.certify_sign(_P, 1, 0, "negative"), "a < b"),
    ("certify_sign_unknown_sign",
     lambda: polycert.certify_sign(_P, 0, 2, "zero"), "claimed sign"),
    ("cauchy_root_bound_zero_polynomial",
     lambda: polycert.Polynomial([0, 0]).cauchy_root_bound(),
     "zero polynomial"),
    ("ratio_R_numpy_scalar_negative",
     lambda: proofaudit.ratio_R(np.float64(-1.0)), "x > 0"),
    ("gamma_overflows", lambda: refcore.gamma(200), "not a finite double"),
    ("gamma_past_ln_gamma_overflow", lambda: refcore.gamma(1e306),
     "not a finite double"),
    # every count is an integer: a float is rejected before any grid is
    # built from it
    ("audit_proof_grid_float", lambda: proofaudit.audit_proof(1000.5),
     "grid_n must be an integer"),
    ("closed_grid_float", lambda: proofaudit.closed_grid(1000.5),
     "n must be an integer"),
    ("interior_grid_float", lambda: proofaudit.interior_grid(1000.5),
     "n must be an integer"),
    ("check_monotone_grid_float",
     lambda: analysis.check_monotone("ratio_R", 0.0, 1.0, "increasing",
                                     grid_n=2.5),
     "grid_n must be an integer"),
    ("lambda_search_grid_float",
     lambda: analysis.search_lambda_thresholds(1500.5),
     "grid_n must be an integer"),
    ("remark_claims_grid_float", lambda: analysis.remark_claims(500.5),
     "grid_n must be an integer"),
    ("cm_probe_order_float",
     lambda: analysis.cm_probe("h_cm", 0.1, 1.0, 2.5, 0.01),
     "max_order must be an integer"),
    ("compare_families_grid_float",
     lambda: analysis.compare_families("lower", 0.0, 1.0, 20.5,
                                       ["qi_guo"]),
     "grid_n must be an integer"),
    ("find_crossover_scan_float",
     lambda: analysis.find_crossover("qi_guo", "batir_15", "lower", 0.0,
                                     1.0, scan_n=100.5),
     "scan_n must be an integer"),
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in CONTRACTS], ids=[c[0] for c in CONTRACTS]
)
def test_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_integer_counts_pass():
    n = np.int64(5)
    assert proofaudit.closed_grid(n).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(proofaudit.interior_grid(n)) == 5
    report = analysis.check_monotone("ratio_R", 0.0, 1.0, "increasing",
                                     grid_n=n)
    assert report.grid_n == 5
    probe = analysis.cm_probe("h_cm", 0.1, 1.0, np.int64(2), 0.01)
    assert probe.max_order == 2

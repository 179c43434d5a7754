"""Input contracts: bad arguments to the public entry points raise
ValueError with a message naming what is wrong, before any work is done."""

import math
import warnings

import numpy as np
import pytest

from gamma_envelope import analysis, bounds, polycert, proofaudit, refcore

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
    # the name is checked before the domain
    ("proof_function_unknown_name_outside",
     lambda: proofaudit.proof_function("nope", 5.0),
     "unknown proof function 'nope'"),
    ("polygamma_inf", lambda: refcore.polygamma(1, math.inf), "finite"),
    ("polygamma_minus_inf", lambda: refcore.polygamma(2, -math.inf),
     "finite"),
    ("polygamma_nan", lambda: refcore.polygamma(3, math.nan), "finite"),
    # psi^(k)(x) ~ k!/x^(k+1) leaves double range: the scalar and the twin
    # raise alike
    ("polygamma_k1_out_of_range", lambda: refcore.polygamma(1, 1e-160),
     "not a finite double"),
    ("polygamma_array_k1_out_of_range",
     lambda: refcore.polygamma_array(1, [0.5, 1e-160]),
     r"psi\^\(1\)\(1e-160\) is not a finite double"),
    ("polygamma_k3_out_of_range", lambda: refcore.polygamma(3, 1e-77),
     "not a finite double"),
    ("polygamma_array_k3_out_of_range",
     lambda: refcore.polygamma_array(3, [0.5, 1e-77]),
     r"psi\^\(3\)\(1e-77\) is not a finite double"),
    # on an array, the first element outside the domain raises the float
    # form's error; a 2-D array is neither form
    ("proof_function_array_above_1",
     lambda: proofaudit.proof_function("q", np.array([0.5, 1.5])),
     r"^q requires 0 <= x <= 1$"),
    ("lemma_expr_array_below_0",
     lambda: proofaudit.lemma_expr(2, np.array([0.5, -0.1])),
     r"^lemma_expr requires 0 <= x <= 1, got -0\.1$"),
    ("polygamma_bounds_array_out_of_range",
     lambda: bounds.polygamma_bounds(1, np.array([1.0, 1e300])),
     r"^polygamma_bounds\(1, 1e\+300\): out of range$"),
    ("proof_function_2d",
     lambda: proofaudit.proof_function("q", np.array([[0.5]])),
     "q requires a float or a 1-D array, got 2 dimensions"),
    ("lemma_expr_2d", lambda: proofaudit.lemma_expr(2, np.array([[0.5]])),
     "lemma_expr requires a float or a 1-D array, got 2 dimensions"),
    ("polygamma_bounds_2d",
     lambda: bounds.polygamma_bounds(1, np.array([[1.0]])),
     "polygamma_bounds requires a float or a 1-D array, got 2 dimensions"),
    # a list or tuple is neither form: rejected by name, not a TypeError
    ("proof_function_list", lambda: proofaudit.proof_function("q", [0.5]),
     r"^q requires a float or a 1-D numpy array, got list$"),
    ("lemma_expr_list", lambda: proofaudit.lemma_expr(2, [0.5]),
     r"^lemma_expr requires a float or a 1-D numpy array, got list$"),
    ("ratio_R_list", lambda: proofaudit.ratio_R([0.5]),
     r"^ratio_R requires a float or a 1-D numpy array, got list$"),
    ("lambda_ratio_tuple", lambda: analysis.lambda_ratio(1.0, (0.5,)),
     r"^lambda_ratio requires a float or a 1-D numpy array, got tuple$"),
    ("tau_ratio_list", lambda: analysis.tau_ratio(2.0, [0.5]),
     r"^tau_ratio requires a float or a 1-D numpy array, got list$"),
    ("F_unitball_list", lambda: analysis.F_unitball([0.75]),
     r"^F_unitball requires a float or a 1-D numpy array, got list$"),
    ("h_cm_list", lambda: analysis.h_cm([0.5]),
     r"^h_cm requires a float or a 1-D numpy array, got list$"),
    ("polygamma_bounds_list",
     lambda: bounds.polygamma_bounds(1, [1.0, 2.0]),
     r"^polygamma_bounds requires a float or a 1-D numpy array, got list$"),
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
    # a grid of fewer than two points has no step: every claim over it
    # would hold vacuously
    ("remark_claims_grid_0", lambda: analysis.remark_claims(0),
     "grid_n must be >= 2, got 0"),
    ("remark_claims_grid_1", lambda: analysis.remark_claims(1),
     "grid_n must be >= 2, got 1"),
    ("compare_families_grid_0",
     lambda: analysis.compare_families("lower", 0.0, 1.0, 0, ["qi_guo"]),
     "grid_n must be >= 2, got 0"),
    ("find_crossover_scan_0",
     lambda: analysis.find_crossover("qi_guo", "batir_15", "lower", 0.0,
                                     1.0, scan_n=0),
     "scan_n must be >= 2, got 0"),
    ("find_crossover_scan_1",
     lambda: analysis.find_crossover("qi_guo", "batir_15", "lower", 0.0,
                                     1.0, scan_n=1),
     "scan_n must be >= 2, got 1"),
]


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in CONTRACTS], ids=[c[0] for c in CONTRACTS]
)
def test_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("x", [5e-324, 1e-310])
def test_digamma_overflows_to_minus_inf_without_a_warning(x):
    # 1/x overflows: psi is -inf, from the scalar and from the twin
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert refcore.digamma(x) == -math.inf
        assert refcore.digamma_array(np.array([x, 0.5]))[0] == -math.inf


def test_numpy_integer_counts_pass():
    n = np.int64(5)
    assert proofaudit.closed_grid(n).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(proofaudit.interior_grid(n)) == 5
    report = analysis.check_monotone("ratio_R", 0.0, 1.0, "increasing",
                                     grid_n=n)
    assert report.grid_n == 5
    probe = analysis.cm_probe("h_cm", 0.1, 1.0, np.int64(2), 0.01)
    assert probe.max_order == 2

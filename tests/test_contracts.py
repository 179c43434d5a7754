"""Input contracts: bad arguments to the public entry points raise
ValueError with a message naming what is wrong, before any work is done."""

import math
import warnings
from functools import partial

import numpy as np
import pytest

from gamma_envelope import analysis, bounds, polycert, proofaudit, refcore

_P = polycert.Polynomial([-1, 0, 1])


class _ConvertibleArray:
    """A 1-element array as numpy before 2.4 treats it: float() of it
    returns its element instead of raising TypeError."""

    ndim = 1

    def __float__(self):
        return 0.5

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
     r"^q requires a float or a 1-D numpy array, got 2 dimensions$"),
    ("lemma_expr_2d", lambda: proofaudit.lemma_expr(2, np.array([[0.5]])),
     r"^lemma_expr requires a float or a 1-D numpy array, got 2 "
     r"dimensions$"),
    ("polygamma_bounds_2d",
     lambda: bounds.polygamma_bounds(1, np.array([[1.0]])),
     r"^polygamma_bounds requires a float or a 1-D numpy array, got 2 "
     r"dimensions$"),
    ("polygamma_bounds_0d",
     lambda: bounds.polygamma_bounds(1, np.array(0.5)),
     r"^polygamma_bounds requires a float or a 1-D numpy array, got 0 "
     r"dimensions$"),
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
    # a list or an array where a number belongs: rejected by the
    # parameter's name, not a TypeError
    ("evaluate_family_list", lambda: bounds.evaluate_family("qi_guo", [0.5]),
     r"^qi_guo requires a float x, got list$"),
    ("evaluate_family_array",
     lambda: bounds.evaluate_family("qi_guo", np.array([0.5])),
     r"^qi_guo requires a float x, got ndarray$"),
    ("evaluate_family_convertible_array",
     lambda: bounds.evaluate_family("qi_guo", _ConvertibleArray()),
     r"^qi_guo requires a float x, got _ConvertibleArray$"),
    ("polygamma_bounds_k_list", lambda: bounds.polygamma_bounds([1], 1.0),
     r"^polygamma_bounds requires an integer k, got \[1\]$"),
    ("polygamma_bounds_k_list_on_array",
     lambda: bounds.polygamma_bounds([1], np.array([1.0])),
     r"^polygamma_bounds requires an integer k, got \[1\]$"),
    ("lambda_ratio_lam_list", lambda: analysis.lambda_ratio([1.0], 0.5),
     r"^lambda_ratio requires lam > 0, got \[1\.0\]$"),
    ("lambda_ratio_lam_array",
     lambda: analysis.lambda_ratio(np.array([1.0]), 0.5),
     r"^lambda_ratio requires lam > 0, got array\(\[1\.\]\)$"),
    ("tau_ratio_tau_list", lambda: analysis.tau_ratio([2.0], 0.5),
     r"^tau_ratio requires tau > 0, got \[2\.0\]$"),
    # an array of another rank would come back in its shape: rejected too
    ("ratio_R_0d", lambda: proofaudit.ratio_R(np.array(0.5)),
     r"^ratio_R requires a float or a 1-D numpy array, got 0 dimensions$"),
    ("ratio_R_2d", lambda: proofaudit.ratio_R(np.array([[0.5]])),
     r"^ratio_R requires a float or a 1-D numpy array, got 2 dimensions$"),
    ("lambda_ratio_0d", lambda: analysis.lambda_ratio(2.0, np.array(0.5)),
     r"^lambda_ratio requires a float or a 1-D numpy array, got 0 dimensions$"),
    ("lambda_ratio_2d", lambda: analysis.lambda_ratio(2.0, np.array([[0.5]])),
     r"^lambda_ratio requires a float or a 1-D numpy array, got 2 dimensions$"),
    ("tau_ratio_0d", lambda: analysis.tau_ratio(2.0, np.array(0.5)),
     r"^tau_ratio requires a float or a 1-D numpy array, got 0 dimensions$"),
    ("tau_ratio_2d", lambda: analysis.tau_ratio(2.0, np.array([[0.5]])),
     r"^tau_ratio requires a float or a 1-D numpy array, got 2 dimensions$"),
    ("F_unitball_0d", lambda: analysis.F_unitball(np.array(0.75)),
     r"^F_unitball requires a float or a 1-D numpy array, got 0 dimensions$"),
    ("F_unitball_2d", lambda: analysis.F_unitball(np.array([[0.75]])),
     r"^F_unitball requires a float or a 1-D numpy array, got 2 dimensions$"),
    ("h_cm_0d", lambda: analysis.h_cm(np.array(0.5)),
     r"^h_cm requires a float or a 1-D numpy array, got 0 dimensions$"),
    ("h_cm_2d", lambda: analysis.h_cm(np.array([[0.5]])),
     r"^h_cm requires a float or a 1-D numpy array, got 2 dimensions$"),
    # text is not a number: float() would parse it and a comparison would
    # raise TypeError, so every entry rejects a str or bytes by name
    *[("%s_%s" % (name, type(text).__name__), partial(entry, text),
       r"^%s requires a float%s, got %s$"
       % (named, " x" if scalar else r" or a 1-D numpy array",
          type(text).__name__))
      for name, entry, named, scalar in [
          ("ln_gamma", refcore.ln_gamma, "ln_gamma", True),
          ("ln_gamma1p", refcore.ln_gamma1p, "ln_gamma1p", True),
          ("digamma", refcore.digamma, "digamma", True),
          ("polygamma", partial(refcore.polygamma, 1), "polygamma", True),
          ("gamma", refcore.gamma, "gamma", True),
          ("evaluate_family", partial(bounds.evaluate_family, "qi_guo"),
           "qi_guo", True),
          ("theorem_bounds", bounds.theorem_bounds, "theorem_bounds", True),
          ("extended_bounds", bounds.extended_bounds, "extended_bounds",
           True),
          ("polygamma_bounds", partial(bounds.polygamma_bounds, 1),
           "polygamma_bounds", False),
          ("proof_function", partial(proofaudit.proof_function, "q"), "q",
           False),
          ("lemma_expr", partial(proofaudit.lemma_expr, 2), "lemma_expr",
           False),
          ("ratio_R", proofaudit.ratio_R, "ratio_R", False),
          ("lambda_ratio", partial(analysis.lambda_ratio, 2.0),
           "lambda_ratio", False),
          ("tau_ratio", partial(analysis.tau_ratio, 2.0), "tau_ratio", False),
          ("F_unitball", analysis.F_unitball, "F_unitball", False),
          ("h_cm", analysis.h_cm, "h_cm", False),
      ]
      for text in ("2.5", b"2.5")],
    *[("%s_text" % name, partial(twin, text),
       r"^%s requires numbers, got text$" % name)
      for name, twin in [
          ("ln_gamma_array", refcore.ln_gamma_array),
          ("ln_gamma1p_array", refcore.ln_gamma1p_array),
          ("digamma_array", refcore.digamma_array),
          ("polygamma_array", partial(refcore.polygamma_array, 1)),
      ]
      for text in ("2.5", [b"2.5"])],
    # an array of text is not an array of numbers: rejected by name before
    # a float conversion parses it or a comparison raises a numpy error
    *[("%s_text_array" % name, partial(entry, np.array(["0.5"])),
       r"^%s requires numbers, got text$" % named)
      for name, entry, named in [
          ("proof_function", partial(proofaudit.proof_function, "q"), "q"),
          ("lemma_expr", partial(proofaudit.lemma_expr, 2), "lemma_expr"),
          ("polygamma_bounds", partial(bounds.polygamma_bounds, 1),
           "polygamma_bounds"),
          ("ratio_R", proofaudit.ratio_R, "ratio_R"),
          ("lambda_ratio", partial(analysis.lambda_ratio, 2.0),
           "lambda_ratio"),
          ("tau_ratio", partial(analysis.tau_ratio, 2.0), "tau_ratio"),
          ("F_unitball", analysis.F_unitball, "F_unitball"),
          ("h_cm", analysis.h_cm, "h_cm"),
      ]],
    ("family_logs_array_text",
     lambda: bounds.family_logs_array("qi_guo", ["0.5"]),
     r"^qi_guo requires numbers, got text$"),
    # None, or anything else that is not a real number, is neither form:
    # rejected by name, not a TypeError from a comparison
    *[("%s_%s" % (name, type(value).__name__), partial(entry, value),
       r"^%s requires a float or a 1-D numpy array, got %s$"
       % (named, type(value).__name__))
      for name, entry, named in [
          ("proof_function", partial(proofaudit.proof_function, "q"), "q"),
          ("lemma_expr", partial(proofaudit.lemma_expr, 2), "lemma_expr"),
          ("polygamma_bounds", partial(bounds.polygamma_bounds, 1),
           "polygamma_bounds"),
          ("ratio_R", proofaudit.ratio_R, "ratio_R"),
          ("lambda_ratio", partial(analysis.lambda_ratio, 2.0),
           "lambda_ratio"),
          ("tau_ratio", partial(analysis.tau_ratio, 2.0), "tau_ratio"),
          ("F_unitball", analysis.F_unitball, "F_unitball"),
          ("h_cm", analysis.h_cm, "h_cm"),
      ]
      for value in (None, 0.5j)],
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


@pytest.mark.parametrize("entry", [
    partial(bounds.evaluate_family, "qi_guo"), bounds.theorem_bounds,
    bounds.extended_bounds, partial(bounds.polygamma_bounds, 1),
])
def test_bounds_rejects_text_with_domain_error(entry):
    with pytest.raises(bounds.DomainError):
        entry("0.5")


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


def test_numpy_scalars_take_the_float_path():
    # a numpy scalar is a float to every point entry; only a 0-d array is
    # rejected
    x = np.float64(0.5)
    assert bounds.polygamma_bounds(1, x) == bounds.polygamma_bounds(1, 0.5)
    assert type(bounds.polygamma_bounds(np.int64(2), 0.5).lower) is float
    assert (bounds.evaluate_family("qi_guo", x).log_upper
            == bounds.evaluate_family("qi_guo", 0.5).log_upper)
    assert analysis.lambda_ratio(np.float64(2.0), 0.5) == (
        analysis.lambda_ratio(2.0, 0.5))
    assert analysis.tau_ratio(np.int64(2), 0.5) == analysis.tau_ratio(2.0, 0.5)

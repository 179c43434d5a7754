"""Input contracts: bad arguments to the public entry points raise the
entry's contract error, ``ValueError`` or, at the ``bounds`` entries, its
subclass ``DomainError``, with a message naming what is wrong, before any
work is done.

What kind of value an entry takes is one generated matrix, every public
entry times every kind of value (README, "Input contract"): a cell either
takes the value and gives exactly what its float64 form gives, or raises
the entry's contract error naming the entry, the form it takes and the
value's kind."""

import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamma_envelope import analysis, bounds, polycert, proofaudit, refcore

_P = polycert.Polynomial([-1, 0, 1])


class _ConvertibleArray:
    """A 1-element array as numpy before 2.4 treats it: float() of it
    returns its element instead of raising TypeError."""

    ndim = 1

    def __float__(self):
        return 0.5


class Entry(NamedTuple):
    id: str
    call: object  # the entry as a function of the one value under test
    name: str  # the name its messages give
    form: str  # what it takes: "point", "array" or "either"
    error: type = ValueError
    param: str = "x"


# the four sweeps over an interval, each as a function of its ends
_SWEEPS = {
    "check_monotone": lambda a, b: analysis.check_monotone(
        "ratio_R", a, b, "increasing", 10),
    "cm_probe": lambda a, b: analysis.cm_probe("h_cm", a, b, 0, 0.1),
    "find_crossover": lambda a, b: analysis.find_crossover(
        "batir_12", "batir_15", "lower", a, b, 20),
    "compare_families": lambda a, b: analysis.compare_families(
        "upper", a, b, 10, ["batir_12", "batir_15"]),
}


def _at_end(sweep, param, end):
    # the sweep over (end, 2.0) or (0.1, end)
    return sweep(end, 2.0) if param == "a" else sweep(0.1, end)


_ENTRIES = [
    Entry("ln_gamma", refcore.ln_gamma, "ln_gamma", "point"),
    Entry("ln_gamma1p", refcore.ln_gamma1p, "ln_gamma1p", "point"),
    Entry("digamma", refcore.digamma, "digamma", "point"),
    Entry("polygamma", partial(refcore.polygamma, 1), "polygamma", "point"),
    Entry("gamma", refcore.gamma, "gamma", "point"),
    Entry("evaluate_family", partial(bounds.evaluate_family, "qi_guo"),
          "qi_guo", "point", bounds.DomainError),
    Entry("theorem_bounds", bounds.theorem_bounds, "theorem_bounds", "point",
          bounds.DomainError),
    Entry("extended_bounds", bounds.extended_bounds, "extended_bounds",
          "point", bounds.DomainError),
    Entry("theorem_bounds_alpha",
          lambda alpha: bounds.theorem_bounds(0.5, alpha=alpha),
          "theorem_bounds", "point", bounds.DomainError, "alpha"),
    Entry("theorem_bounds_beta",
          lambda beta: bounds.theorem_bounds(0.5, beta=beta),
          "theorem_bounds", "point", bounds.DomainError, "beta"),
    Entry("lambda_ratio_lam", lambda lam: analysis.lambda_ratio(lam, 0.5),
          "lambda_ratio", "point", ValueError, "lam"),
    Entry("tau_ratio_tau", lambda tau: analysis.tau_ratio(tau, 0.5),
          "tau_ratio", "point", ValueError, "tau"),
    Entry("ln_gamma_array", refcore.ln_gamma_array, "ln_gamma_array",
          "array"),
    Entry("ln_gamma1p_array", refcore.ln_gamma1p_array, "ln_gamma1p_array",
          "array"),
    Entry("digamma_array", refcore.digamma_array, "digamma_array", "array"),
    Entry("polygamma_array", partial(refcore.polygamma_array, 1),
          "polygamma_array", "array"),
    Entry("family_logs_array", partial(bounds.family_logs_array, "qi_guo"),
          "qi_guo", "array", bounds.DomainError),
    Entry("polygamma_bounds", partial(bounds.polygamma_bounds, 1),
          "polygamma_bounds", "either", bounds.DomainError),
    Entry("proof_function", partial(proofaudit.proof_function, "q"), "q",
          "either"),
    Entry("lemma_expr", partial(proofaudit.lemma_expr, 2), "lemma_expr",
          "either"),
    Entry("ratio_R", proofaudit.ratio_R, "ratio_R", "either"),
    Entry("lambda_ratio", partial(analysis.lambda_ratio, 2.0),
          "lambda_ratio", "either"),
    Entry("tau_ratio", partial(analysis.tau_ratio, 2.0), "tau_ratio",
          "either"),
    Entry("F_unitball", analysis.F_unitball, "F_unitball", "either"),
    Entry("h_cm", analysis.h_cm, "h_cm", "either"),
    # the ends of a sweep's interval
    *[Entry("%s_%s" % (name, param), partial(_at_end, sweep, param), name,
            "point", ValueError, param)
      for name, sweep in _SWEEPS.items()
      for param in ("a", "b")],
]

# what each form takes, as its contract error says
_TAKES = {"point": "a float {}", "array": "a 1-D numpy array",
          "either": "a float or a 1-D numpy array"}


class Kind(NamedTuple):
    id: str
    value: object
    # taken as float(value) ("point"), as value.astype(float) ("array")
    # or by no entry (None)
    taken_as: str | None
    got: str  # the kind the contract error names


_KINDS = [
    Kind("float", 0.75, "point", "float"),
    Kind("int", 1, "point", "int"),
    Kind("float64", np.float64(0.75), "point", "float64"),
    Kind("float32", np.float32(0.75), "point", "float32"),
    Kind("float16", np.float16(0.75), "point", "float16"),
    Kind("longdouble", np.longdouble(0.75), "point", "longdouble"),
    Kind("int64", np.int64(1), "point", "int64"),
    Kind("uint8", np.uint8(1), "point", "uint8"),
    Kind("Fraction", Fraction(3, 4), "point", "Fraction"),
    Kind("array", np.array([0.625, 0.75]), "array", "1-D float64 array"),
    Kind("float32_array", np.array([0.625, 0.75], np.float32), "array",
         "1-D float32 array"),
    Kind("int_array", np.array([1, 2]), "array", "1-D int64 array"),
    Kind("uint_array", np.array([1, 2], np.uint8), "array",
         "1-D uint8 array"),
    Kind("empty_array", np.array([]), "array", "1-D float64 array"),
    Kind("bool", True, None, "bool"),
    Kind("numpy_bool", np.True_, None, "bool"),
    Kind("str", "0.75", None, "str"),
    Kind("bytes", b"0.75", None, "bytes"),
    Kind("list", [0.75], None, "list"),
    Kind("tuple", (0.75,), None, "tuple"),
    Kind("NoneType", None, None, "NoneType"),
    Kind("object", object(), None, "object"),
    Kind("Decimal", Decimal("0.75"), None, "Decimal"),
    Kind("complex", 0.75 + 0j, None, "complex"),
    Kind("complex128", np.complex128(0.75), None, "complex128"),
    Kind("datetime64", np.datetime64("2020-01-01"), None, "datetime64"),
    Kind("timedelta64", np.timedelta64(1, "s"), None, "timedelta64"),
    Kind("convertible_array", _ConvertibleArray(), None,
         "_ConvertibleArray"),
    Kind("0d", np.array(0.75), None, "0-D float64 array"),
    Kind("2d", np.array([[0.75]]), None, "2-D float64 array"),
    Kind("text_array", np.array(["0.75"]), None, "1-D str128 array"),
    Kind("bytes_array", np.array([b"0.75"]), None, "1-D bytes32 array"),
    Kind("bool_array", np.array([True]), None, "1-D bool array"),
    Kind("complex_array", np.array([0.75 + 0j]), None,
         "1-D complex128 array"),
    Kind("object_array", np.array([0.75], dtype=object), None,
         "1-D object array"),
    Kind("datetime_array", np.array(["2020-01-01"], "datetime64[D]"), None,
         "1-D datetime64[D] array"),
    Kind("timedelta_array", np.array([1], "timedelta64[s]"), None,
         "1-D timedelta64[s] array"),
]


def _takes(entry, taken_as):
    return taken_as is not None and entry.form in (taken_as, "either")


def _cells(taken):
    """The cells of the matrix whose value the entry takes (or rejects):
    every entry times every kind, but for None where None is the
    parameter's default."""
    return [(e, k) for e in _ENTRIES for k in _KINDS
            if _takes(e, k.taken_as) == taken
            and not (k.value is None and e.param in ("alpha", "beta"))]


def _contract(entry):
    """The start of the entry's contract error for a kind it rejects."""
    return "^%s requires %s, got " % (
        re.escape(entry.name), _TAKES[entry.form].format(entry.param))


def _outcome(call, x):
    """What ``call(x)`` gives: its value, a BoundPair as its fields, or a
    ValueError as its type and message."""
    try:
        value = call(x)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(value, bounds.BoundPair):
        return tuple(getattr(value, f) for f in value.__slots__)
    return value


def _same(a, b):
    """a and b alike in type and value, element by element (NaN alike)."""
    if isinstance(a, tuple):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(_same, a, b)))
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and a.dtype == b.dtype
                and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    return type(a) is type(b) and (a == b or a != a and b != b)


def _check_taken(entry, x, taken_as):
    plain = float(x) if taken_as == "point" else x.astype(float)
    assert _same(_outcome(entry.call, x), _outcome(entry.call, plain))


# (id, call, message pattern[, contract error, by default ValueError])
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
    # a parameter is finite: at an inner x, a subnormal x and x = 1 (tau's
    # removable point, outside lambda's domain) alike
    *[("%s_inf_at_%r" % (name, x), partial(entry, math.inf, x),
       r"^%s requires finite %s > 0, got inf$" % (name, param))
      for name, entry, param in [
          ("lambda_ratio", analysis.lambda_ratio, "lam"),
          ("tau_ratio", analysis.tau_ratio, "tau"),
      ]
      for x in (0.5, 1e-310, 1.0)],
    ("compare_families_unknown_family",
     lambda: analysis.compare_families("upper", 0.0, 1.0, 10, ["nope"]),
     "unknown bound family 'nope'", KeyError),
    ("check_monotone_direction",
     lambda: analysis.check_monotone("ratio_R", 0.0, 1.0, "up", 100),
     "direction"),
    ("lambda_search_grid_999",
     lambda: analysis.search_lambda_thresholds(grid_n=999), "grid_n"),
    ("cm_probe_step_0",
     lambda: analysis.cm_probe("h_cm", 0.1, 1.0, 2, 0.0), "step"),
    ("cm_probe_step_negative",
     lambda: analysis.cm_probe("h_cm", 0.1, 1.0, 2, -0.01), "step"),
    ("cm_probe_step_inf",
     lambda: analysis.cm_probe("h_cm", 0.1, 50.0, 0, math.inf),
     r"^step must be finite, got inf$"),
    ("cm_probe_step_count_overflows",
     lambda: analysis.cm_probe("h_cm", 0.1, 50.0, 6, 1e-320),
     r"^step 1e-320 gives more grid points on \(0.1, 50.0\) than an "
     r"array can hold$"),
    ("cm_probe_step_count_past_intp",
     lambda: analysis.cm_probe("h_cm", 0.1, 50.0, 6, 1e-300),
     r"^step 1e-300 gives more grid points on \(0.1, 50.0\) than an "
     r"array can hold$"),
    ("cm_probe_a_0",
     lambda: analysis.cm_probe("h_cm", 0.0, 1.0, 2, 0.01), "a must"),
    ("cm_probe_a_negative",
     lambda: analysis.cm_probe("h_cm", -1.0, 1.0, 2, 0.01), "a must"),
    # a reversed or empty interval has no grid: a scan over it would bisect
    # nothing, or sweep one point
    *[("%s_%s" % (name, case), partial(sweep, *ends), r"^need a < b$")
      for name, sweep in _SWEEPS.items()
      for case, ends in [("reversed", (0.9, 0.1)), ("empty", (0.5, 0.5))]],
    ("side_unknown", lambda: analysis._side(None, "qi_guo", "middle"),
     "side"),
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
     lambda: refcore.polygamma_array(1, np.array([0.5, 1e-160])),
     r"psi\^\(1\)\(1e-160\) is not a finite double"),
    ("polygamma_k3_out_of_range", lambda: refcore.polygamma(3, 1e-77),
     "not a finite double"),
    ("polygamma_array_k3_out_of_range",
     lambda: refcore.polygamma_array(3, np.array([0.5, 1e-77])),
     r"psi\^\(3\)\(1e-77\) is not a finite double"),
    # on an array, the first element outside the domain raises the float
    # form's error
    ("proof_function_array_above_1",
     lambda: proofaudit.proof_function("q", np.array([0.5, 1.5])),
     r"^q requires 0 <= x <= 1, got 1\.5$"),
    ("lemma_expr_array_below_0",
     lambda: proofaudit.lemma_expr(2, np.array([0.5, -0.1])),
     r"^lemma_expr requires 0 <= x <= 1, got -0\.1$"),
    ("polygamma_bounds_array_out_of_range",
     lambda: bounds.polygamma_bounds(1, np.array([1.0, 1e300])),
     r"^polygamma_bounds\(1, 1e\+300\): out of range$"),
    # an order is an integer: 1.0 and True equal 1 but are none
    *[("%s_k_%s" % (name, type(k).__name__), partial(entry, k, x),
       r"^polygamma supports k in \{1, 2, 3\}, got %s$" % re.escape(repr(k)))
      for name, entry, x in [
          ("polygamma", refcore.polygamma, 0.5),
          ("polygamma_array", refcore.polygamma_array, np.array([0.5])),
      ]
      for k in (1.0, True)],
    ("polygamma_bounds_k_list", lambda: bounds.polygamma_bounds([1], 1.0),
     r"^polygamma_bounds requires an integer k, got \[1\]$"),
    ("polygamma_bounds_k_list_on_array",
     lambda: bounds.polygamma_bounds([1], np.array([1.0])),
     r"^polygamma_bounds requires an integer k, got \[1\]$"),
    # an exponent is a finite number
    *[("theorem_bounds_%s_nan" % param,
       partial(bounds.theorem_bounds, 0.5, **{param: math.nan}),
       r"^theorem_bounds requires finite %s, got nan$" % param)
      for param in ("alpha", "beta")],
    # an int past double range is a number, but no float
    ("ln_gamma_huge_int", lambda: refcore.ln_gamma(10**400),
     r"^ln_gamma requires a float x, got int outside double range$"),
    # text, or a list of it, at a twin
    *[("%s_text" % name, partial(twin, text),
       r"^%s requires a 1-D numpy array, got %s$"
       % (name, type(text).__name__))
      for name, twin in [
          ("ln_gamma_array", refcore.ln_gamma_array),
          ("ln_gamma1p_array", refcore.ln_gamma1p_array),
          ("digamma_array", refcore.digamma_array),
          ("polygamma_array", partial(refcore.polygamma_array, 1)),
      ]
      for text in ("2.5", [b"2.5"])],
    ("family_logs_array_text",
     lambda: bounds.family_logs_array("qi_guo", ["0.5"]),
     r"^qi_guo requires a 1-D numpy array, got list$"),
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
    # ... and True, which equals 1, is none either; nor are True and 2.0
    # an order of polygamma_bounds or an index of lemma_expr
    *[("%s_%s" % (name, type(n).__name__), partial(call, n),
       r"^%s, got %s$" % (message, re.escape(repr(n))), error)
      for name, call, message, error, values in [
          ("audit_proof_grid", proofaudit.audit_proof,
           "grid_n must be an integer", ValueError, [True]),
          ("closed_grid", proofaudit.closed_grid, "n must be an integer",
           ValueError, [True]),
          ("interior_grid", proofaudit.interior_grid,
           "n must be an integer", ValueError, [True]),
          ("check_monotone_grid",
           partial(analysis.check_monotone, "ratio_R", 0.0, 1.0,
                   "increasing"), "grid_n must be an integer", ValueError,
           [True]),
          ("lambda_search_grid", analysis.search_lambda_thresholds,
           "grid_n must be an integer", ValueError, [True]),
          ("remark_claims_grid", analysis.remark_claims,
           "grid_n must be an integer", ValueError, [True]),
          ("cm_probe_order",
           lambda n: analysis.cm_probe("h_cm", 0.1, 1.0, n, 0.01),
           "max_order must be an integer", ValueError, [True]),
          ("compare_families_grid",
           lambda n: analysis.compare_families("lower", 0.0, 1.0, n,
                                               ["qi_guo"]),
           "grid_n must be an integer", ValueError, [True]),
          ("find_crossover_scan",
           lambda n: analysis.find_crossover("qi_guo", "batir_15", "lower",
                                             0.0, 1.0, scan_n=n),
           "scan_n must be an integer", ValueError, [True]),
          ("polygamma_bounds_k", lambda k: bounds.polygamma_bounds(k, 0.5),
           "polygamma_bounds requires an integer k", bounds.DomainError,
           [True, 2.0]),
          ("polygamma_bounds_k_on_array",
           lambda k: bounds.polygamma_bounds(k, np.array([0.5])),
           "polygamma_bounds requires an integer k", bounds.DomainError,
           [True, 2.0]),
          ("lemma_expr_index", lambda i: proofaudit.lemma_expr(i, 0.5),
           r"lemma_expr index must be 1\.\.5", ValueError, [True, 2.0]),
          ("lemma_expr_index_on_array",
           lambda i: proofaudit.lemma_expr(i, np.array([0.5])),
           r"lemma_expr index must be 1\.\.5", ValueError, [True, 2.0]),
      ]
      for n in values],
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
    # every cell of the matrix whose value the entry rejects
    *[("%s_%s" % (e.id, k.id), partial(e.call, k.value),
       _contract(e) + re.escape(k.got) + "$", e.error)
      for e, k in _cells(False)],
]


@pytest.mark.parametrize(
    "call, message, error",
    [(c[1], c[2], c[3] if len(c) > 3 else ValueError) for c in CONTRACTS],
    ids=[c[0] for c in CONTRACTS]
)
def test_rejected(call, message, error):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("entry, kind", _cells(True),
                         ids=["%s_%s" % (e.id, k.id) for e, k in _cells(True)])
def test_taken(entry, kind):
    _check_taken(entry, kind.value, kind.taken_as)


# the kinds again, each built around a drawn float v
_DRAWN_KINDS = [
    (float, "point"), (np.float32, "point"), (np.float16, "point"),
    (np.longdouble, "point"), (int, "point"),
    (lambda v: np.int64(int(v)), "point"), (Fraction, "point"),
    (lambda v: np.array([v, 0.75]), "array"),
    (lambda v: np.array([v], np.float32), "array"),
    (lambda v: np.array([int(v), 1]), "array"),
    (lambda v: v > 0.5, None), (Decimal, None), (complex, None),
    (repr, None), (lambda v: [v], None), (np.array, None),
    (lambda v: np.array([[v]]), None),
    (lambda v: np.array([v], dtype=object), None),
    (lambda v: np.array([complex(v)]), None),
    (lambda v: np.array([repr(v)]), None),
    (lambda v: np.array([v > 0.5]), None),
]


@settings(max_examples=500, deadline=None)
@given(entry=st.sampled_from(_ENTRIES), kind=st.sampled_from(_DRAWN_KINDS),
       v=st.floats(-2.0, 3.0))
def test_drawn_kinds(entry, kind, v):
    build, taken_as = kind
    x = build(v)
    if _takes(entry, taken_as):
        _check_taken(entry, x, taken_as)
    else:
        with pytest.raises(entry.error, match=_contract(entry)):
            entry.call(x)


def test_float_path_never_enters_the_gate(monkeypatch):
    def gate(*args):
        raise AssertionError("a float entered the gate")

    monkeypatch.setattr(refcore, "_gate", gate)
    for family_id in bounds.FAMILIES:
        bounds.evaluate_family(family_id, 0.75)
    for kernel in (refcore.ln_gamma, refcore.ln_gamma1p, refcore.digamma,
                   refcore.gamma, proofaudit.ratio_R):
        kernel(0.75)
    for k in (1, 2, 3):
        refcore.polygamma(k, 0.75)
    for name in ("f_over_g_prime", "q", "q1", "q1_prime"):
        proofaudit.proof_function(name, 0.75)


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
    assert report == analysis.check_monotone("ratio_R", 0.0, 1.0,
                                             "increasing", grid_n=5)
    probe = analysis.cm_probe("h_cm", 0.1, 1.0, np.int64(2), 0.01)
    assert probe == analysis.cm_probe("h_cm", 0.1, 1.0, 2, 0.01)
    assert probe.expected.endswith("for n <= 2")


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

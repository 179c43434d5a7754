"""Numerical audit of the monotonicity proof behind the sharp envelope.

The proof of the sharp-exponent bounds runs through a chain of auxiliary
functions: the ratio R(x) = ln Gamma(x+1) / ln((x^2+1)/(x+1)), the
quotient f'/g' whose monotonicity drives everything, and the helper
functions q, q1, q1' whose signs and zeros are asserted along the way.
This module evaluates every link of that chain verbatim (with the
polygamma reference kernels), at one point or over a float array, and
re-checks each asserted claim on a grid, returning structured pass/fail
verdicts rather than raising.  Each link is written once and serves both
forms; the audit's sweeps use the array form, in blocks of
:data:`BLOCK` points.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from gamma_envelope import refcore, sweep
from gamma_envelope.polycert import LEMMA_POLYNOMIALS

# Half-width of the series band around x = 1 where the numerator and
# denominator of f'/g' both vanish like (x-1)^2 and the direct formulas
# lose all their leading digits to cancellation.
NEAR_ONE_BAND = 1e-2

# Points per block of an array sweep: the temporaries of one block stay
# in cache, and memory beyond the grid and its values stays bounded.
BLOCK = 1 << 15


@dataclass
class ProofClaim:
    """One audited assertion with its verdict and measurement."""

    name: str
    kind: str  # sign | monotonicity | unique_zero | unique_minimum | endpoint_value | limit
    interval: tuple
    expected: str
    verdict: str  # pass | fail
    measured: float
    witness: float | None = None


_LEAST_NORMAL = 2.0**-1022


def _quotient(name, domain, inside, x, sides, param=None, at_one=None,
              tiny=None):
    """One ratio function num / den, ``sides(kernels, x, param)`` giving
    (num, den), at a float x or at every element of a 1-D array.

    ``inside`` is x's domain test (a bool per element on an array) and
    ``domain`` its text for the error.  ``at_one`` is the defined value at
    x == 1, ``tiny`` the limit below the least normal double, where the
    quotient of the two rounded sides no longer holds it (None: the
    quotient).  A value that is not a finite double raises ValueError.
    On an array, every element where the float form would raise is
    handed to it, so the first of them raises the float form's error.
    """
    # a float or numpy scalar in the domain; an array's test is an array
    if inside is True or (not isinstance(x, np.ndarray) and inside):
        if x == 1.0 and at_one is not None:
            return at_one
        if x < _LEAST_NORMAL and tiny is not None:
            return tiny
        num, den = sides(refcore.AT_POINT, x, param)
        value = num / den if den else math.inf
        if math.isfinite(value):
            return value
        shown = (x,) if param is None else (param, x)
        raise ValueError("%s(%s) is not a finite double"
                         % (name, ", ".join(map(repr, shown))))
    if not isinstance(x, np.ndarray):
        raise ValueError("%s requires %s, got %r" % (name, domain, x))
    value = np.full(x.shape, np.nan)
    ok = inside & (np.abs(x) < math.inf)  # the kernels take finite x
    # an overflow or 0/0 leaves a non-finite value, handed on below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num, den = sides(refcore.ON_ARRAY, x[ok], param)
        value[ok] = num / den
    if at_one is not None:
        value[ok & (x == 1.0)] = at_one
    if tiny is not None:
        value[ok & (x < _LEAST_NORMAL)] = tiny
    for i in np.flatnonzero(~np.isfinite(value)):
        value[i] = _quotient(name, domain, bool(inside[i]), float(x[i]),
                             sides, param, at_one, tiny)
    return value


def _lambda_den(k, x, lam):
    # ln((x^2+lam)/(x+lam)), which keeps its digits at its zeros
    return k.log1p(refcore.log_base_arg(x, lam))


def _lambda_sides(k, x, lam):
    # ln Gamma(x+1) keeps its digits at its zeros too, so only x == 1 and
    # subnormal x take limits
    return k.ln_gamma1p(x), _lambda_den(k, x, lam)


def _ratio_R_sides(k, x, _):
    return _lambda_sides(k, x, 1.0)


# ratio_R's limits at x == 1 and below the least normal double
_RATIO_R_AT_ONE = (1.0 + 1.0) * (1.0 - refcore.EULER_GAMMA)
_RATIO_R_TINY = 1.0 * refcore.EULER_GAMMA


def ratio_R(x):
    """ln Gamma(x+1) / ln((x^2+1)/(x+1)) for x > 0, at a float or every
    element of a 1-D array; 0/0 at x = 0 and 1 with limits EulerGamma and
    2(1 - EulerGamma); on (0, 1) this is
    :func:`gamma_envelope.analysis.lambda_ratio` at lambda = 1.  Raises
    ValueError where the value is not a finite double (x past ~2.56e305,
    where ln Gamma(x+1) overflows)."""
    return _quotient("ratio_R", "x > 0", x > 0.0, x, _ratio_R_sides, None,
                     _RATIO_R_AT_ONE, _RATIO_R_TINY)


def _every(flags):
    # a comparison's result is a bool on a float and an array on an array
    return flags.all() if isinstance(flags, np.ndarray) else flags


def _h2_near_one(x):
    # h2 ~ (x-1)^2/2 at x = 1 while its direct formula subtracts two
    # O(|x-1|) quantities; regroup so every term is O((x-1)^2):
    # h2 = -(x-1)^3 (x+1) + (x+1)(x^2+1) sum_{m>=2} (-v)^m / m,
    # with v = x(x-1)/(x+1) the log1p argument.  On an array the sum runs
    # until every element has stopped; a term added after an element's
    # own stop is below 1e-20 of its sum and leaves the sum unchanged.
    u = x - 1.0
    v = refcore.log_base_arg(x)
    s = 0.0
    p = -v
    for m in range(2, 40):
        p = p * -v
        t = p / m
        s = s + t
        if _every(abs(t) < 1e-20 * abs(s)):
            break
    return (x + 1.0) * (-(u * u * u)) + (x + 1.0) * (x * x + 1.0) * s


def _h2(x, log1p):
    # lemma_expr(2, x) by its direct formula, outside the band about 1
    return (x - 1.0) * (x * x + 2.0 * x - 1.0) - (x + 1.0) * (
        x * x + 1.0
    ) * log1p(refcore.log_base_arg(x))


def _f_over_g_prime_near_one(x, h2):
    # (x-1)psi(x+1) - ln Gamma(x+1) also vanishes like (x-1)^2;
    # its Taylor coefficients about 1 are
    # (-1)^m (m-1)/m (zeta(m)-1), from psi^(m)(2).
    u = x - 1.0
    core = 0.0
    up = u
    for m in range(2, 15):
        up = up * u
        c = (m - 1) / m * refcore.ZETA_MINUS_ONE[m - 2]
        core = core + (c if m % 2 == 0 else -c) * up
    return (x + 1.0) * (x * x + 1.0) * core / h2


def _check_index(i):
    if i != 2 and i not in LEMMA_POLYNOMIALS:
        raise ValueError("lemma_expr index must be 1..5, got %r" % (i,))


def lemma_expr(i, x):
    """Value of the i-th fixed-sign expression of the algebraic lemma.

    Indices 1, 3, 4, 5 are the integer polynomials (shared with polycert);
    index 2 is the transcendental combination
    (x-1)(x^2+2x-1) - (x+1)(x^2+1) ln((x^2+1)/(x+1)), evaluated through
    a cancellation-free series inside a band around its double zero at 1.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("lemma_expr requires 0 <= x <= 1, got %r" % (x,))
    _check_index(i)
    if i != 2:
        return float(LEMMA_POLYNOMIALS[i](x))
    if abs(x - 1.0) < NEAR_ONE_BAND:
        return _h2_near_one(x)
    return _h2(x, math.log1p)


def _h2_block(x):
    # lemma_expr(2, .) on an array block, the band entries by the series
    out = _h2(x, np.log1p)
    band = abs(x - 1.0) < NEAR_ONE_BAND
    if band.any():
        out[band] = _h2_near_one(x[band])
    return out


# Each displayed proof function as one formula, shared by the point and
# the array evaluation: (the values it takes after x, formula).  lg, psi,
# psi1, psi2 and psi3 are ln Gamma, psi, psi', psi'' and psi''' at x + 1
# (lg taken from x itself, by ln_gamma1p); h1..h4 are the lemma
# expressions at x.  For f'/g' this is the direct formula; inside
# NEAR_ONE_BAND the series above replaces it.
_FORMULAS = {
    "f_over_g_prime": (
        ("lg", "psi", "h2"),
        lambda x, lg, psi, h2:
            (x + 1.0) * (x * x + 1.0) * ((x - 1.0) * psi - lg) / h2,
    ),
    "q": (
        ("lg", "psi", "psi1", "h1", "h2"),
        lambda x, lg, psi, psi1, h1, h2:
            lg - (x - 1.0) * psi - (x + 1.0) * (x * x + 1.0) / h1 * h2 * psi1,
    ),
    "q1": (
        ("psi1", "psi2", "h1", "h3"),
        lambda x, psi1, psi2, h1, h3:
            2.0 * h3 * psi1 + (x + 1.0) * (x * x + 1.0) * h1 * psi2,
    ),
    "q1_prime": (
        ("psi1", "psi2", "psi3", "h1", "h4"),
        lambda x, psi1, psi2, psi3, h1, h4:
            12.0 * h4 * psi1 + h1 * (
                3.0 * (3.0 * x * x + 2.0 * x + 1.0) * psi2
                + (x + 1.0) * (x * x + 1.0) * psi3
            ),
    ),
}

# Those values at one point.  Kernels are looked up on refcore at each
# call, so a wrapper installed there sees every call.
_POINT_VALUES = {
    "lg": lambda x: refcore.ln_gamma1p(x),
    "psi": lambda x: refcore.digamma(x + 1.0),
    "psi1": lambda x: refcore.polygamma(1, x + 1.0),
    "psi2": lambda x: refcore.polygamma(2, x + 1.0),
    "psi3": lambda x: refcore.polygamma(3, x + 1.0),
    "h1": LEMMA_POLYNOMIALS[1],
    "h2": lambda x: lemma_expr(2, x),
    "h3": LEMMA_POLYNOMIALS[3],
    "h4": LEMMA_POLYNOMIALS[4],
}

# The same values on an array block, h5 included.
_BLOCK_VALUES = {
    "lg": lambda x: refcore.ln_gamma1p_array(x),
    "psi": lambda x: refcore.digamma_array(x + 1.0),
    "psi1": lambda x: refcore.polygamma_array(1, x + 1.0),
    "psi2": lambda x: refcore.polygamma_array(2, x + 1.0),
    "psi3": lambda x: refcore.polygamma_array(3, x + 1.0),
    "h1": LEMMA_POLYNOMIALS[1],
    "h2": _h2_block,
    "h3": LEMMA_POLYNOMIALS[3],
    "h4": LEMMA_POLYNOMIALS[4],
    "h5": LEMMA_POLYNOMIALS[5],
}


def proof_function(name, x):
    """Evaluate one of the displayed proof functions verbatim.

    Known names: ``f_over_g_prime``, ``q``, ``q1``, ``q1_prime``.
    Endpoints 0 and 1 are allowed for ``q`` and ``q1`` (their formulas
    are finite there); ``f_over_g_prime`` needs the open interval.
    """
    if name == "f_over_g_prime":
        if not 0.0 < x < 1.0:
            raise ValueError("f_over_g_prime requires 0 < x < 1")
        if abs(x - 1.0) < NEAR_ONE_BAND:
            return _f_over_g_prime_near_one(x, lemma_expr(2, x))
    elif not 0.0 <= x <= 1.0:
        raise ValueError("%s requires 0 <= x <= 1" % (name,))
    if name not in _FORMULAS:
        raise ValueError("unknown proof function %r" % (name,))
    needs, formula = _FORMULAS[name]
    return formula(x, *[_POINT_VALUES[v](x) for v in needs])


class _BlockValues(dict):
    """The values of :data:`_BLOCK_VALUES` on one block ``x``, each
    computed on first use and then shared by every formula that takes
    it."""

    def __init__(self, x):
        super().__init__()
        self.x = x

    def __missing__(self, key):
        value = self[key] = _BLOCK_VALUES[key](self.x)
        return value


def _block(arg, values):
    # one proof function (by name) or lemma expression (by index) on the
    # block of ``values``
    if not isinstance(arg, str):
        return values["h%d" % arg]
    needs, formula = _FORMULAS[arg]
    x = values.x
    out = formula(x, *[values[v] for v in needs])
    if arg == "f_over_g_prime":
        band = abs(x - 1.0) < NEAR_ONE_BAND
        if band.any():
            out[band] = _f_over_g_prime_near_one(x[band], values["h2"][band])
    return out


def _evaluate(args, xs):
    """{arg: values on ``xs``} for proof function names and lemma indices,
    in blocks of :data:`BLOCK` points; within a block each kernel and
    lemma value is computed once, however many of ``args`` take it."""
    out = {arg: np.empty(len(xs)) for arg in args}
    for start in range(0, len(xs), BLOCK):
        values = _BlockValues(xs[start:start + BLOCK])
        for arg in args:
            out[arg][start:start + BLOCK] = _block(arg, values)
    return out


def _unit_array(name, xs, open_interval):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("%s requires a 1-D array, got %d dimensions"
                         % (name, xs.ndim))
    if open_interval:
        inside = (0.0 < xs) & (xs < 1.0)
    else:
        inside = (0.0 <= xs) & (xs <= 1.0)
    if not inside.all():  # a NaN is never inside
        raise ValueError("%s requires every x in %s" % (
            name, "(0, 1)" if open_interval else "[0, 1]"))
    return xs


def lemma_expr_array(i, xs):
    """:func:`lemma_expr` of every element of a 1-D float array, evaluated
    in blocks of :data:`BLOCK` points."""
    xs = _unit_array("lemma_expr_array", xs, False)
    _check_index(i)
    return _evaluate([i], xs)[i]


def proof_function_array(name, xs):
    """:func:`proof_function` of every element of a 1-D float array,
    evaluated in blocks of :data:`BLOCK` points."""
    if name not in _FORMULAS:
        raise ValueError("unknown proof function %r" % (name,))
    xs = _unit_array(name, xs, name == "f_over_g_prime")
    return _evaluate([name], xs)[name]


def closed_grid(n):
    """``n`` >= 2 evenly spaced points on [0, 1], both ends included: the
    grid of the audit's q1 monotonicity sweep."""
    if not sweep.grid_size(n, "n") >= 2:
        raise ValueError("closed_grid needs n >= 2, got %r" % (n,))
    return np.arange(n) / (n - 1)


def interior_grid(n):
    """``n`` >= 2 evenly spaced points on [1e-6, 1 - 1e-6], the inset grid
    of the open unit interval used by the audit and the lemma check."""
    if not sweep.grid_size(n, "n") >= 2:
        raise ValueError("interior_grid needs n >= 2, got %r" % (n,))
    eps = 1e-6
    return eps + (1.0 - 2.0 * eps) * np.arange(n) / (n - 1)


def _grid_claim(name, kind, sign, xs, vals, arg):
    """One audited grid claim of the given kind from a sweep of the proof
    function or lemma expression ``arg``."""
    if kind == "monotonicity":
        expected = "strictly %s" % ("increasing" if sign > 0 else "decreasing")
        ok, measured, witness = sweep.monotone(xs, vals, sign)
    elif kind == "sign":
        expected = "%s on the interval" % ("> 0" if sign > 0 else "< 0")
        ok, measured, witness = sweep.signed(xs, vals, sign)
    elif kind == "unique_minimum":
        expected = "one descending-to-ascending turn of first differences"
        ok, measured, witness = sweep.unique_minimum(xs, vals)
    else:  # unique_zero: the one sign change is refined to a root
        expected = "exactly one sign change, bisection converges"
        changes = sweep.sign_changes(vals)
        ok, measured = len(changes) == 1, float(len(changes))
        if ok:
            i = changes[0]
            f = proof_function if isinstance(arg, str) else lemma_expr
            witness = sweep.root(
                partial(f, arg), float(xs[i]), float(xs[i + 1]), vals[i], 1e-12
            )
        else:
            witness = float(xs[changes[0]]) if len(changes) else None
    return ProofClaim(
        name=name,
        kind=kind,
        interval=(float(xs[0]), float(xs[-1])),
        expected=expected,
        verdict="pass" if ok else "fail",
        measured=measured,
        witness=witness,
    )


def audit_proof(grid_n=10000):
    """Re-check every asserted step of the monotonicity proof on a grid.

    Returns one :class:`ProofClaim` per assertion; all pass on a correct
    implementation.  Strictness is exact double comparison of consecutive
    grid values (the functions' derivatives dwarf grid noise here).
    """
    if sweep.grid_size(grid_n, "grid_n") < 100:
        raise ValueError("grid_n must be >= 100, got %r" % (grid_n,))
    closed = closed_grid(grid_n)
    interior = interior_grid(grid_n)
    # Sweeps: (grid, [(proof function name or lemma index, [(claim, kind,
    # sign)])]).  The functions of one sweep are evaluated together and
    # share their kernel values; the cheap lemma polynomials get a sweep
    # each, so fewer value arrays are alive at once.
    sweeps = [
        (closed, [
            ("q1", [("q1_strictly_decreasing", "monotonicity", -1.0)]),
        ]),
        (interior, [
            ("q1", [("q1_unique_zero", "unique_zero", None)]),
            ("q", [("q_unique_minimum", "unique_minimum", None),
                   ("q_negative_interior", "sign", -1.0)]),
            ("f_over_g_prime", [("f_over_g_prime_strictly_increasing",
                                 "monotonicity", 1.0)]),
            (2, [("lemma_h2_positive", "sign", 1.0)]),
        ]),
    ] + [
        (interior, [(i, [("lemma_h%d_negative" % i, "sign", -1.0)])])
        for i in (1, 3, 4, 5)
    ]
    claims = []
    for xs, functions in sweeps:
        values = _evaluate([arg for arg, _ in functions], xs)
        for arg, checks in functions:
            vals = values.pop(arg)  # each released once its claims are made
            for name, kind, sign in checks:
                claims.append(_grid_claim(name, kind, sign, xs, vals, arg))
    # Point claims: the helper functions' endpoint anchors, printed to 3
    # decimals in the derivation, and the ratio's two one-sided limits.
    # (name, kind, measured, expected, tolerance)
    expected_text = {
        "endpoint_value": "{0:g} within {1:g}",
        "limit": "{0:.12g} within 1e-6",
    }
    for name, kind, measured, expected, tol in [
        ("q1_at_0", "endpoint_value", proof_function("q1", 0.0), 3.9225, 5e-4),
        ("q1_at_1", "endpoint_value", proof_function("q1", 1.0), -45.1289, 5e-4),
        ("q_at_0", "endpoint_value", proof_function("q", 0.0), -0.0289, 1e-4),
        ("q_at_1", "endpoint_value", proof_function("q", 1.0), 0.0, 1e-10),
        ("ratio_limit_at_0", "limit", ratio_R(1e-8), refcore.EULER_GAMMA, 1e-6),
        ("ratio_limit_at_1", "limit", ratio_R(1.0 - 1e-8),
         2.0 * (1.0 - refcore.EULER_GAMMA), 1e-6),
    ]:
        ok = abs(measured - expected) <= tol
        claims.append(ProofClaim(
            name=name,
            kind=kind,
            interval=(0.0, 1.0),
            expected=expected_text[kind].format(expected, tol),
            verdict="pass" if ok else "fail",
            measured=measured,
            witness=None if ok else measured,
        ))
    return claims


"""Numerical audit of the monotonicity proof behind the sharp envelope.

The proof of the sharp-exponent bounds runs through a chain of auxiliary
functions: the ratio R(x) = ln Gamma(x+1) / ln((x^2+1)/(x+1)), the
quotient f'/g' whose monotonicity drives everything, and the helper
functions q, q1, q1' whose signs and zeros are asserted along the way.
This module evaluates every link of that chain verbatim (with the
polygamma reference kernels), at one point or over a float array, and
re-checks each asserted claim on a grid, returning each as a
:class:`gamma_envelope.sweep.Claim` (name, kind, interval, expected,
verdict pass or fail, measured, witness and violations) rather than
raising.  Each link is one entry of one table, :data:`_VALUES`, written
once for both forms: it takes its kernels from ``refcore.AT_POINT`` at a
float and ``refcore.ON_ARRAY`` on an array; every kernel it calls, at
x + 1 in [1, 2], sums the same Taylor series on both, so every value of
the chain agrees bit for bit between the forms.  The audit's sweeps use
the array form, in blocks of :data:`BLOCK` points, and each grid claim's
verdict is made by :func:`gamma_envelope.sweep.claim`.
"""

import math
from functools import partial

import numpy as np

from gamma_envelope import refcore, sweep
from gamma_envelope.bounds import _open_unit, _positive
from gamma_envelope.polycert import LEMMA_POLYNOMIALS

# Half-width of the series band around x = 1 where the numerator and
# denominator of f'/g' both vanish like (x-1)^2 and the direct formulas
# lose all their leading digits to cancellation.
NEAR_ONE_BAND = 1e-2

# Points per block of an array sweep: the temporaries of one block stay
# in cache, and memory beyond the grid and its values stays bounded.
BLOCK = 1 << 15


_LEAST_NORMAL = 2.0**-1022


def _closed_unit(x):
    return (0.0 <= x) & (x <= 1.0)


def _quotient(name, domain, inside, x, value, param=None, at_one=None,
              tiny=None):
    """One value ``value(kernels, x, param)`` at a float x or at every
    element of a 1-D array: a link of the proof chain or a ratio function.

    ``inside`` is x's domain test, a function (on an array, giving a bool
    per element), and ``domain`` its text for the error.  ``at_one`` is
    the defined value at x == 1, ``tiny`` the limit below the least
    normal double, where the quotient of the two rounded sides no longer
    holds it (None: the value).  A value that is not a finite double, a
    division by zero at a float included, raises ValueError.  On an array,
    every element where the float form would raise is handed to it, so
    the first of them raises the float form's error.
    """
    if type(x) is not float:
        x = refcore._gate(name, x, "either")
    if type(x) is float:
        if not inside(x):
            raise ValueError("%s requires %s, got %r" % (name, domain, x))
        if x == 1.0 and at_one is not None:
            return at_one
        if x < _LEAST_NORMAL and tiny is not None:
            return tiny
        try:
            v = value(refcore.AT_POINT, x, param)
        except ZeroDivisionError:
            v = math.inf
        if math.isfinite(v):
            return v
        shown = (x,) if param is None else (param, x)
        raise ValueError("%s(%s) is not a finite double"
                         % (name, ", ".join(map(repr, shown))))
    v = np.full(x.shape, np.nan)
    ok = inside(x) & (np.abs(x) < math.inf)  # the kernels take finite x
    # an overflow or 0/0 leaves a non-finite value, handed on below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v[ok] = value(refcore.ON_ARRAY, x[ok], param)
    if at_one is not None:
        v[ok & (x == 1.0)] = at_one
    if tiny is not None:
        v[ok & (x < _LEAST_NORMAL)] = tiny
    for i in np.flatnonzero(~np.isfinite(v)):
        v[i] = _quotient(name, domain, inside, float(x[i]), value, param,
                         at_one, tiny)
    return v


def _lambda_value(k, x, lam):
    # both sides keep their digits at their zeros 0 and 1, so only x == 1
    # and subnormal x take limits
    return k.ln_gamma1p(x) / refcore.log_base(k, x, lam)


def _ratio_R_value(k, x, _):
    return _lambda_value(k, x, 1.0)


def ratio_R(x):
    """ln Gamma(x+1) / ln((x^2+1)/(x+1)) for x > 0, at a float or every
    element of a 1-D array; 0/0 at x = 0 and 1 with limits EulerGamma and
    2(1 - EulerGamma); on (0, 1) this is
    :func:`gamma_envelope.analysis.lambda_ratio` at lambda = 1.  Raises
    ValueError where the value is not a finite double (x past ~2.56e305,
    where ln Gamma(x+1) overflows)."""
    return _quotient("ratio_R", "x > 0", _positive, x, _ratio_R_value, None,
                     *refcore.envelope_exponents(1.0))


def _every(flags):
    # a comparison's result is a bool on a float and an array on an array
    return flags.all() if isinstance(flags, np.ndarray) else flags


def _near_one(v, direct, series):
    """``direct(v)``, with ``series(x)`` in its place where
    |x - 1| < NEAR_ONE_BAND: at a float the one that applies, on an array
    the direct formula with the series written over the band's entries."""
    x = v.x
    if v.k is not refcore.ON_ARRAY:
        return series(x) if abs(x - 1.0) < NEAR_ONE_BAND else direct(v)
    out = direct(v)
    band = abs(x - 1.0) < NEAR_ONE_BAND
    if band.any():
        out[band] = series(x[band])
    return out


def _h2(v):
    # lemma_expr(2, x) by its direct formula
    x = v.x
    return (x - 1.0) * (x * x + 2.0 * x - 1.0) - (x + 1.0) * (
        x * x + 1.0
    ) * refcore.log_base(v.k, x)


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


def _num_near_one(x):
    # the numerator (x-1)psi(x+1) - ln Gamma(x+1) of f'/g' also vanishes
    # like (x-1)^2; its Taylor coefficients about 1 are
    # (-1)^m (m-1)/m (zeta(m)-1), from psi^(m)(2).
    u = x - 1.0
    core = 0.0
    up = u
    for m in range(2, 15):
        up = up * u
        c = (m - 1) / m * refcore.ZETA_MINUS_ONE[m - 2]
        core = core + (c if m % 2 == 0 else -c) * up
    return core


# Every value of the proof chain, each a function of the memo ``v`` of
# :class:`_Values`: x is ``v.x``, the kernels are ``v.k``
# (``refcore.AT_POINT`` at a float, ``refcore.ON_ARRAY`` on an array) and
# every other value is ``v[name]``.  lg, psi, psi1, psi2 and psi3 are
# ln Gamma, psi, psi', psi'' and psi''' at x + 1 (lg taken from x itself,
# by ln_gamma1p); h1..h5 are the lemma expressions at x; num is the
# numerator of f'/g', which like h2 takes a series inside NEAR_ONE_BAND.
# The last four are the displayed proof functions.
_VALUES = {
    "lg": lambda v: v.k.ln_gamma1p(v.x),
    "psi": lambda v: v.k.digamma(v.x + 1.0),
    "psi1": lambda v: v.k.polygamma(1, v.x + 1.0),
    "psi2": lambda v: v.k.polygamma(2, v.x + 1.0),
    "psi3": lambda v: v.k.polygamma(3, v.x + 1.0),
    **{"h%d" % i: lambda v, p=p: p(v.x) for i, p in LEMMA_POLYNOMIALS.items()},
    "h2": lambda v: _near_one(v, _h2, _h2_near_one),
    "num": lambda v: _near_one(
        v, lambda v: (v.x - 1.0) * v["psi"] - v["lg"], _num_near_one),
    "f_over_g_prime": lambda v:
        (v.x + 1.0) * (v.x * v.x + 1.0) * v["num"] / v["h2"],
    "q": lambda v: v["lg"] - (v.x - 1.0) * v["psi"]
        - (v.x + 1.0) * (v.x * v.x + 1.0) / v["h1"] * v["h2"] * v["psi1"],
    "q1": lambda v: 2.0 * v["h3"] * v["psi1"]
        + (v.x + 1.0) * (v.x * v.x + 1.0) * v["h1"] * v["psi2"],
    "q1_prime": lambda v: 12.0 * v["h4"] * v["psi1"] + v["h1"] * (
        3.0 * (3.0 * v.x * v.x + 2.0 * v.x + 1.0) * v["psi2"]
        + (v.x + 1.0) * (v.x * v.x + 1.0) * v["psi3"]
    ),
}

_PROOF_FUNCTIONS = ("f_over_g_prime", "q", "q1", "q1_prime")


class _Values(dict):
    """The values of :data:`_VALUES` at ``x``, a float or an array block,
    with the kernels ``k``, each computed on first use and then shared by
    every value that takes it."""

    def __init__(self, x, k):
        super().__init__()
        self.x = x
        self.k = k

    def __missing__(self, key):
        value = self[key] = _VALUES[key](self)
        return value


def _chain(name, k, x, _=None):
    # the value ``name`` of :data:`_VALUES`: at a float through the memo,
    # on an array through :func:`_evaluate`, in blocks
    if k is refcore.AT_POINT:
        return _Values(x, k)[name]
    return _evaluate([name], x)[name]


def _lemma(k, x, i):
    if not refcore._is_integer(i) or i != 2 and i not in LEMMA_POLYNOMIALS:
        raise ValueError("lemma_expr index must be 1..5, got %r" % (i,))
    return _chain("h%d" % i, k, x)


def lemma_expr(i, x):
    """Value of the i-th fixed-sign expression of the algebraic lemma, at
    a float or every element of a 1-D array.

    Indices 1, 3, 4, 5 are the integer polynomials (shared with polycert);
    index 2 is the transcendental combination
    (x-1)(x^2+2x-1) - (x+1)(x^2+1) ln((x^2+1)/(x+1)), evaluated through
    a cancellation-free series inside a band around its double zero at 1.
    """
    return _quotient("lemma_expr", "0 <= x <= 1", _closed_unit, x, _lemma, i)


def proof_function(name, x):
    """Evaluate one of the displayed proof functions verbatim, at a float
    or every element of a 1-D array.

    Known names: ``f_over_g_prime``, ``q``, ``q1``, ``q1_prime``.
    Endpoints 0 and 1 are allowed for ``q`` and ``q1`` (their formulas
    are finite there); ``f_over_g_prime`` needs the open interval.
    """
    if name not in _PROOF_FUNCTIONS:
        raise ValueError("unknown proof function %r" % (name,))
    domain, inside = (("0 < x < 1", _open_unit) if name == "f_over_g_prime"
                      else ("0 <= x <= 1", _closed_unit))
    return _quotient(name, domain, inside, x, partial(_chain, name))


def _evaluate(names, xs):
    """{name: values on ``xs``} for names of :data:`_VALUES`, in blocks of
    :data:`BLOCK` points; within a block each value is computed once,
    however many of ``names`` take it."""
    out = {name: np.empty(len(xs)) for name in names}
    for start in range(0, len(xs), BLOCK):
        values = _Values(xs[start:start + BLOCK], refcore.ON_ARRAY)
        for name in names:
            out[name][start:start + BLOCK] = values[name]
    return out


def closed_grid(n):
    """``n`` >= 2 evenly spaced points on [0, 1], both ends included: the
    grid of the audit's q1 monotonicity sweep."""
    sweep.grid_size(n, "n", 2)
    return np.arange(n) / (n - 1)


def interior_grid(n):
    """``n`` >= 2 evenly spaced points on [1e-6, 1 - 1e-6], the inset grid
    of the open unit interval used by the audit and the lemma check."""
    sweep.grid_size(n, "n", 2)
    eps = 1e-6
    return eps + (1.0 - 2.0 * eps) * np.arange(n) / (n - 1)


def audit_proof(grid_n=10000):
    """Re-check every asserted step of the monotonicity proof on a grid.

    Returns one :class:`~gamma_envelope.sweep.Claim` per assertion: its
    name, kind, interval and expected outcome, verdict pass or fail,
    measured, witness, and violations 1 when it fails; all pass on a
    correct implementation.  Each grid claim is made by
    :func:`~gamma_envelope.sweep.claim` from one sweep, whose strictness
    is exact double comparison of consecutive grid values (the functions'
    derivatives dwarf grid noise here); the point claims compare one value
    with the derivation's printed anchor or limit.
    """
    sweep.grid_size(grid_n, "grid_n", 100)
    closed = closed_grid(grid_n)
    interior = interior_grid(grid_n)
    # Sweeps: (grid, [(proof function or lemma expression, [(claim, kind,
    # sign)])]).  The functions of one sweep are evaluated together and
    # share their kernel values; the cheap lemma polynomials get a sweep
    # each, so fewer value arrays are alive at once.
    sweeps = [
        (closed, [
            ("q1", [("q1_strictly_decreasing", "monotonicity", -1.0)]),
        ]),
        (interior, [
            ("q1", [("q1_unique_zero", "unique_zero", 1.0)]),
            ("q", [("q_unique_minimum", "unique_minimum", 1.0),
                   ("q_negative_interior", "sign", -1.0)]),
            ("f_over_g_prime", [("f_over_g_prime_strictly_increasing",
                                 "monotonicity", 1.0)]),
            ("h2", [("lemma_h2_positive", "sign", 1.0)]),
        ]),
    ] + [
        (interior, [(h, [("lemma_%s_negative" % h, "sign", -1.0)])])
        for h in ("h1", "h3", "h4", "h5")
    ]
    claims = []
    for xs, functions in sweeps:
        values = _evaluate([arg for arg, _ in functions], xs)
        for arg, checks in functions:
            vals = values.pop(arg)  # each released once its claims are made
            for name, kind, sign in checks:  # a zero is refined on arg
                claims.append(sweep.claim(name, kind, xs, vals, sign,
                                          partial(proof_function, arg)))
    # Point claims: the helper functions' endpoint anchors, printed to 3
    # decimals in the derivation, and the ratio's two one-sided limits.
    # (name, kind, measured, expected, tolerance)
    limit_at_1, limit_at_0 = refcore.envelope_exponents(1.0)
    expected_text = {
        "endpoint_value": "{0:g} within {1:g}",
        "limit": "{0:.12g} within 1e-6",
    }
    for name, kind, measured, expected, tol in [
        ("q1_at_0", "endpoint_value", proof_function("q1", 0.0), 3.9225, 5e-4),
        ("q1_at_1", "endpoint_value", proof_function("q1", 1.0), -45.1289, 5e-4),
        ("q_at_0", "endpoint_value", proof_function("q", 0.0), -0.0289, 1e-4),
        ("q_at_1", "endpoint_value", proof_function("q", 1.0), 0.0, 1e-10),
        ("ratio_limit_at_0", "limit", ratio_R(1e-8), limit_at_0, 1e-6),
        ("ratio_limit_at_1", "limit", ratio_R(1.0 - 1e-8), limit_at_1, 1e-6),
    ]:
        ok = abs(measured - expected) <= tol
        claims.append(sweep.Claim(name, kind, (0.0, 1.0),
                                  expected_text[kind].format(expected, tol),
                                  "pass" if ok else "fail", measured,
                                  None if ok else measured, int(not ok)))
    return claims


"""Numerical audit of the monotonicity proof behind the sharp envelope.

The proof of the sharp-exponent bounds runs through a chain of auxiliary
functions: the ratio R(x) = ln Gamma(x+1) / ln((x^2+1)/(x+1)), the
quotient f'/g' whose monotonicity drives everything, and the helper
functions q, q1, q1' whose signs and zeros are asserted along the way.
This module evaluates every link of that chain verbatim (with the
polygamma reference kernels) and re-checks each asserted claim on a grid,
returning structured pass/fail verdicts rather than raising.
"""

import json
import math
from dataclasses import dataclass, asdict
from functools import partial

import numpy as np

from gamma_envelope import refcore, sweep
from gamma_envelope.polycert import LEMMA_POLYNOMIALS

# Half-width of the removable-singularity band around x = 1 for ratio_R.
SINGULAR_BAND = 1e-6

# Half-width of the series band around x = 1 where the numerator and
# denominator of f'/g' both vanish like (x-1)^2 and the direct formulas
# lose all their leading digits to cancellation.
NEAR_ONE_BAND = 1e-2

# zeta(m) - 1 for m = 2..14, the Taylor coefficients' arithmetic core for
# the expansions about x = 1 (psi^(m)(2) = (-1)^(m+1) m! (zeta(m+1) - 1)).
_ZETA_MINUS_ONE = (
    0.6449340668482264,
    0.2020569031595943,
    0.08232323371113819,
    0.03692775514336993,
    0.01734306198444914,
    0.008349277381922827,
    0.00407735619794434,
    0.0020083928260822143,
    0.0009945751278180853,
    0.0004941886041194645,
    0.0002460865533080483,
    0.00012271334757848915,
    6.124813505870483e-05,
)


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


def _lhospital_quotient(x):
    # (x+1)(x^2+1) psi(x+1) / (x^2+2x-1): the 0/0 resolution at x = 1.
    # This is analysis._lhospital_band at p = 1 in another operand order;
    # that order rounds 68% of the band values differently, the audited
    # limit at 1- among them, so the audit keeps this one.
    return (
        (x + 1.0)
        * (x * x + 1.0)
        * refcore.digamma(x + 1.0)
        / (x * x + 2.0 * x - 1.0)
    )


def ratio_R(x):
    """ln Gamma(x+1) / ln((x^2+1)/(x+1)) for x > 0.

    The denominator vanishes at x = 1 (removable 0/0); inside a band of
    half-width 1e-6 the smooth quotient from one L'Hospital step is used
    instead.  Below 1e-8 the x -> 0+ limit (Euler-Mascheroni) is
    returned directly.
    """
    if not x > 0.0:
        raise ValueError("ratio_R requires x > 0, got %r" % (x,))
    if x <= 1e-8:
        return refcore.EULER_GAMMA
    if abs(x - 1.0) < SINGULAR_BAND:
        return _lhospital_quotient(x)
    num = refcore.ln_gamma(x + 1.0)
    den = math.log1p((x * x - x) / (x + 1.0))
    return num / den


def _h2_near_one(x):
    # h2 ~ (x-1)^2/2 at x = 1 while its direct formula subtracts two
    # O(|x-1|) quantities; regroup so every term is O((x-1)^2):
    # h2 = -(x-1)^3 (x+1) + (x+1)(x^2+1) sum_{m>=2} (-v)^m / m,
    # with v = x(x-1)/(x+1) the log1p argument.
    u = x - 1.0
    v = x * u / (x + 1.0)
    s = 0.0
    p = -v
    for m in range(2, 40):
        p *= -v
        t = p / m
        s += t
        if abs(t) < 1e-20 * abs(s):
            break
    return (x + 1.0) * (-(u * u * u)) + (x + 1.0) * (x * x + 1.0) * s


def lemma_expr(i, x):
    """Value of the i-th fixed-sign expression of the algebraic lemma.

    Indices 1, 3, 4, 5 are the integer polynomials (shared with polycert);
    index 2 is the transcendental combination
    (x-1)(x^2+2x-1) - (x+1)(x^2+1) ln((x^2+1)/(x+1)), evaluated through
    a cancellation-free series inside a band around its double zero at 1.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("lemma_expr requires 0 <= x <= 1, got %r" % (x,))
    if i == 2:
        if abs(x - 1.0) < NEAR_ONE_BAND:
            return _h2_near_one(x)
        return (x - 1.0) * (x * x + 2.0 * x - 1.0) - (x + 1.0) * (
            x * x + 1.0
        ) * math.log1p((x * x - x) / (x + 1.0))
    if i in LEMMA_POLYNOMIALS:
        return float(LEMMA_POLYNOMIALS[i](x))
    raise ValueError("lemma_expr index must be 1..5, got %r" % (i,))


def _h1(x):
    return float(LEMMA_POLYNOMIALS[1](x))


def _h3(x):
    return float(LEMMA_POLYNOMIALS[3](x))


def _h4(x):
    return float(LEMMA_POLYNOMIALS[4](x))


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
            # (x-1)psi(x+1) - ln Gamma(x+1) also vanishes like (x-1)^2;
            # its Taylor coefficients about 1 are
            # (-1)^m (m-1)/m (zeta(m)-1), from psi^(m)(2).
            u = x - 1.0
            core = 0.0
            up = u
            for m in range(2, 15):
                up *= u
                c = (m - 1) / m * _ZETA_MINUS_ONE[m - 2]
                core += (c if m % 2 == 0 else -c) * up
            return (x + 1.0) * (x * x + 1.0) * core / lemma_expr(2, x)
        num = (x + 1.0) * (x * x + 1.0) * (
            (x - 1.0) * refcore.digamma(x + 1.0) - refcore.ln_gamma(x + 1.0)
        )
        return num / lemma_expr(2, x)
    if not 0.0 <= x <= 1.0:
        raise ValueError("%s requires 0 <= x <= 1" % (name,))
    if name == "q":
        psi1 = refcore.polygamma(1, x + 1.0)
        return (
            refcore.ln_gamma(x + 1.0)
            - (x - 1.0) * refcore.digamma(x + 1.0)
            - (x + 1.0) * (x * x + 1.0) / _h1(x) * lemma_expr(2, x) * psi1
        )
    if name == "q1":
        return 2.0 * _h3(x) * refcore.polygamma(1, x + 1.0) + (
            x + 1.0
        ) * (x * x + 1.0) * _h1(x) * refcore.polygamma(2, x + 1.0)
    if name == "q1_prime":
        return 12.0 * _h4(x) * refcore.polygamma(1, x + 1.0) + _h1(x) * (
            3.0 * (3.0 * x * x + 2.0 * x + 1.0)
            * refcore.polygamma(2, x + 1.0)
            + (x + 1.0) * (x * x + 1.0) * refcore.polygamma(3, x + 1.0)
        )
    raise ValueError("unknown proof function %r" % (name,))


def interior_grid(n):
    """``n`` evenly spaced points on [1e-6, 1 - 1e-6], the inset grid of
    the open unit interval used by the audit and the lemma check."""
    eps = 1e-6
    return [eps + (1.0 - 2.0 * eps) * i / (n - 1) for i in range(n)]


def _grid_claim(name, kind, sign, xs, vals, f):
    """One audited grid claim of the given kind from a sweep of ``f``."""
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
            witness = sweep.root(f, xs[i], xs[i + 1], vals[i], 1e-12)
        else:
            witness = xs[changes[0]] if len(changes) else None
    return ProofClaim(
        name=name,
        kind=kind,
        interval=(xs[0], xs[-1]),
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
    if grid_n < 100:
        raise ValueError("grid_n must be >= 100, got %r" % (grid_n,))
    closed = [i / (grid_n - 1) for i in range(grid_n)]
    interior = interior_grid(grid_n)
    # One sweep per function and grid: (function, its first argument,
    # grid, [(claim, kind, sign, grid points used)]).  q(1) = 0 exactly,
    # so strict negativity of q leaves out the last point.
    sweeps = [
        (proof_function, "q1", closed,
         [("q1_strictly_decreasing", "monotonicity", -1.0, None)]),
        (proof_function, "q1", interior,
         [("q1_unique_zero", "unique_zero", None, None)]),
        (proof_function, "q", interior,
         [("q_unique_minimum", "unique_minimum", None, None),
          ("q_negative_interior", "sign", -1.0, -1)]),
        (proof_function, "f_over_g_prime", interior,
         [("f_over_g_prime_strictly_increasing", "monotonicity", 1.0, None)]),
        (lemma_expr, 2, interior, [("lemma_h2_positive", "sign", 1.0, None)]),
    ] + [
        (lemma_expr, i, interior,
         [("lemma_h%d_negative" % i, "sign", -1.0, None)])
        for i in (1, 3, 4, 5)
    ]
    claims = []
    for fn, arg, xs, checks in sweeps:
        vals = np.fromiter((fn(arg, x) for x in xs), float, len(xs))
        for name, kind, sign, stop in checks:
            claims.append(_grid_claim(
                name, kind, sign, xs[:stop], vals[:stop], partial(fn, arg)
            ))
        del vals  # released before the next sweep
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


def claims_to_json(claims):
    return json.dumps([asdict(c) for c in claims], indent=2, sort_keys=True)

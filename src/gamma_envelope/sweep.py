"""Grid reductions and the one bisection shared by every grid claim.

A sweep is a grid ``xs`` and the values ``vals`` of one function on it,
both computed by the caller.  The reducers turn a sweep into a
:class:`Verdict`: whether the claim holds at every grid point, what was
measured (the margin that came closest to failing, or a count), and the
grid point that witnesses it (each reducer says which).  Comparisons
are exact double comparisons; a NaN never satisfies a strict
inequality.
"""

import math
import operator
from typing import NamedTuple

import numpy as np


class Verdict(NamedTuple):
    ok: bool
    measured: float
    witness: float | None


def grid_size(n, name, least=-math.inf):
    """The count ``n`` as an int; a non-integer, or a count below
    ``least``, raises ValueError naming ``name``."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, n)) from None
    if n < least:
        raise ValueError("%s must be >= %d, got %r" % (name, least, n))
    return n


def lowest(xs, margins):
    """Every margin > 0: the smallest margin, and the first x where it
    occurs when it is not > 0.  With no margins the claim holds
    vacuously and measures inf."""
    if len(margins) == 0:
        return Verdict(True, math.inf, None)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    ok = worst > 0.0
    return Verdict(ok, worst, None if ok else float(xs[i]))


def signed(xs, vals, sign):
    """sign * v > 0 at every point (sign is +1.0 or -1.0); measured is the
    value nearest to failing, in the values' own sign, and the witness
    its first x when the claim fails."""
    ok, worst, witness = lowest(xs, sign * np.asarray(vals))
    return Verdict(ok, sign * worst, witness)


def monotone(xs, vals, sign):
    """Strictly increasing (sign +1.0) or decreasing (-1.0): every step
    sign * (v[i+1] - v[i]) > 0; measured is the smallest such step and
    the witness the x where it starts."""
    return lowest(xs, sign * np.diff(vals))


def unique_minimum(xs, vals):
    """The steps turn from descending to ascending exactly once, falling
    at the start and rising at the end; measured is the number of turns,
    the witness the x after the first or where a failing end step starts."""
    d = np.diff(vals)
    a, b = d[:-1], d[1:]
    turns = np.flatnonzero(((a < 0.0) & (b >= 0.0)) | ((a <= 0.0) & (b > 0.0)))
    ok = bool(len(turns) == 1 and d[0] < 0.0 < d[-1])
    witness = float(xs[turns[0] + 1]) if len(turns) else None
    if len(turns) == 1 and not ok:
        witness = float(xs[0] if not d[0] < 0.0 else xs[-2])
    return Verdict(ok, float(len(turns)), witness)


def sign_changes(vals):
    """Indices i where v[i] and v[i+1] lie on different sides of 0."""
    neg = np.asarray(vals) < 0.0
    return np.flatnonzero(neg[1:] != neg[:-1])


def bisect(pred, lo, hi, tol):
    """Halve [lo, hi], keeping pred(lo) true and pred(hi) false, until
    hi - lo <= tol or the midpoint is no longer strictly inside (the
    bracket is a few ulps wide).  Returns the final (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def root(f, lo, hi, f_lo, tol):
    """Midpoint of a sign-change bracket of f narrowed by :func:`bisect`;
    ``f_lo`` is f(lo), known from the sweep."""
    lo, hi = bisect(lambda x: (f(x) < 0.0) == (f_lo < 0.0), lo, hi, tol)
    return 0.5 * (lo + hi)

"""The one engine of grid claims, the one bisection shared by every grid
claim, and the one record of a checked claim.

A sweep is a grid ``xs`` and the values ``vals`` of one function on it,
both computed by the caller.  :func:`claim` turns a sweep into a
:class:`Claim`: whether the claim holds at every grid point, what was
measured (the margin that came closest to failing, or a count), and the
grid point that witnesses it (each kind says which).  Comparisons are
exact double comparisons; a NaN never satisfies a strict inequality.
Every claim the toolkit checks and reports is a :class:`Claim`.
"""

import math
import operator
from typing import NamedTuple

import numpy as np

from gamma_envelope import refcore


# The verdict words of a claim that holds, or of a probe that found no
# counterexample; the others are fail, violated and refuted
_HOLDS = frozenset(("pass", "flagged", "certified", "consistent"))


class Claim(NamedTuple):
    """One checked claim.  ``measured`` is None where nothing is measured,
    ``witness`` None where no x witnesses the verdict, and ``violations``
    the number of failing steps or stencils of a probe that counts them,
    or 1 for any other claim that fails."""

    name: str
    kind: str
    interval: tuple
    expected: str
    verdict: str
    measured: float | None
    witness: float | None
    violations: int

    @property
    def ok(self):
        return self.verdict in _HOLDS


def grid_size(n, name, least=-math.inf):
    """The count ``n`` as an int; a non-integer, or a count below
    ``least``, raises ValueError naming ``name``."""
    if not refcore._is_integer(n):
        raise ValueError("%s must be an integer, got %r" % (name, n))
    n = operator.index(n)
    if n < least:
        raise ValueError("%s must be >= %d, got %r" % (name, least, n))
    return n


def claim(name, kind, xs, vals, sign=1.0, refine=None):
    """The :class:`Claim` of one sweep on (xs[0], xs[-1]) of the given
    kind, verdict pass or fail, counting itself as its one violation when
    it fails.

    ``monotonicity``: strictly increasing (sign +1.0) or decreasing
    (-1.0), every step sign * (v[i+1] - v[i]) > 0; measured is the
    smallest such step (inf when there is none) and the witness the x
    where it starts.  ``sign``: sign * v > 0 at every point; measured is
    the value nearest to failing, in the values' own sign.  For both the
    witness is the first x of the worst margin, when the claim fails.
    ``unique_minimum``: the steps turn from descending to ascending
    exactly once, falling at the start and rising at the end; measured is
    the number of turns, the witness the x after the first or where a
    failing end step starts.  ``unique_zero``: exactly one sign change,
    measured the number of changes; the witness is the root of ``refine``
    that :func:`root` brackets from that change to 1e-12, or the left x of
    the first change when there is not exactly one.
    """
    vals = np.asarray(vals)
    if kind == "monotonicity":
        expected = "strictly " + ("increasing" if sign > 0 else "decreasing")
        margins = sign * np.diff(vals)
    elif kind == "sign":
        expected = ("> 0" if sign > 0 else "< 0") + " on the interval"
        margins = sign * vals
    if kind in ("monotonicity", "sign"):
        i = int(np.argmin(margins)) if len(margins) else None
        worst = math.inf if i is None else float(margins[i])
        ok = worst > 0.0
        measured = worst if kind == "monotonicity" else sign * worst
        witness = None if ok else float(xs[i])
    elif kind == "unique_minimum":
        expected = "one descending-to-ascending turn of first differences"
        d = np.diff(vals)
        a, b = d[:-1], d[1:]
        turns = np.flatnonzero(((a < 0.0) & (b >= 0.0))
                               | ((a <= 0.0) & (b > 0.0)))
        ok = bool(len(turns) == 1 and d[0] < 0.0 < d[-1])
        measured = float(len(turns))
        witness = float(xs[turns[0] + 1]) if len(turns) else None
        if len(turns) == 1 and not ok:
            witness = float(xs[0] if not d[0] < 0.0 else xs[-2])
    else:  # unique_zero: the one sign change is refined to a root
        expected = "exactly one sign change, bisection converges"
        changes = sign_changes(vals)
        ok, measured = len(changes) == 1, float(len(changes))
        witness = float(xs[changes[0]]) if len(changes) else None
        if ok:
            i = changes[0]
            witness = root(refine, witness, float(xs[i + 1]), vals[i], 1e-12)
    return Claim(name, kind, (float(xs[0]), float(xs[-1])), expected,
                 "pass" if ok else "fail", measured, witness, int(not ok))


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

"""Grid reducers and the shared bisection."""

import math

import numpy as np
import pytest

from gamma_envelope import analysis, sweep


def _counted(pred):
    calls = []

    def wrapped(x):
        calls.append(x)
        return pred(x)

    return wrapped, calls


# Reference loops: the bisections the toolkit used before the shared
# primitive, kept here to pin the sequence of midpoints.
def _keep_lo(pred, lo, hi, tol):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _sign_bracket(f, lo, hi, tol):
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBisect:
    @pytest.mark.parametrize("tol", [1e-3, 1e-10, 1e-12])
    def test_same_bracket_and_midpoints_as_the_old_loop(self, tol):
        def below(x):
            return x * x < 2.0

        new, new_calls = _counted(below)
        old, old_calls = _counted(below)
        assert sweep.bisect(new, 1.0, 2.0, tol) == _keep_lo(old, 1.0, 2.0, tol)
        assert new_calls == old_calls
        lo, hi = sweep.bisect(below, 1.0, 2.0, tol)
        assert lo < math.sqrt(2.0) < hi and hi - lo <= tol

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_root_matches_the_old_sign_bracket(self, tol):
        def f(x):
            return math.cos(x)  # one zero at pi/2 in (1, 2)

        assert sweep.root(f, 1.0, 2.0, f(1.0), tol) == _sign_bracket(
            f, 1.0, 2.0, tol
        )
        assert abs(sweep.root(f, 1.0, 2.0, f(1.0), tol) - math.pi / 2) <= tol

    def test_stops_when_the_bracket_is_ulps_wide(self):
        lo, hi = sweep.bisect(lambda x: x * x < 2.0, 1.0, 2.0, 0.0)
        assert hi == math.nextafter(lo, math.inf)
        assert lo * lo < 2.0 <= hi * hi

    def test_lambda_search_terminates_below_float_resolution(self):
        inc, dec, _ = analysis.search_lambda_thresholds(1000, lambda_tol=1e-20)
        assert 1.0 < inc <= dec < 6.0


# Reference loops: the grid claims as written before the shared reducers.
def _old_monotone(xs, vals, decreasing):
    worst, witness = math.inf, None
    for a, b, xa in zip(vals, vals[1:], xs):
        d = a - b if decreasing else b - a
        if d < worst:
            worst = d
            if d <= 0.0:
                witness = xa
    return worst > 0.0, worst, witness


def _old_sign(xs, vals, negative):
    worst = max(vals) if negative else min(vals)
    ok = worst < 0.0 if negative else worst > 0.0
    return ok, worst, None if ok else xs[vals.index(worst)]


def _old_unique_minimum(xs, vals):
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    changes = [i for i, (a, b) in enumerate(zip(diffs, diffs[1:]))
               if a < 0.0 <= b or a <= 0.0 < b]
    ok = len(changes) == 1 and diffs[0] < 0.0 < diffs[-1]
    return ok, float(len(changes)), xs[changes[0] + 1] if changes else None


def _old_sign_changes(vals):
    return [i for i, (a, b) in enumerate(zip(vals, vals[1:]))
            if (a < 0.0) != (b < 0.0)]


@pytest.mark.parametrize("seed", range(20))
def test_reducers_match_the_old_loops(seed):
    rng = np.random.default_rng(seed)
    n = 60
    xs = [i / (n - 1) for i in range(n)]
    # coarse rounding makes ties, zero steps and exact zeros common
    vals = [float(v) for v in np.round(rng.normal(size=n).cumsum(), 1)]
    if seed % 4 == 0:
        vals.sort()
    if seed % 4 == 1:
        vals = [(x - 0.4) ** 2 - 0.1 for x in xs]
    for sign in (1.0, -1.0):
        assert tuple(sweep.monotone(xs, vals, sign)) == _old_monotone(
            xs, vals, sign < 0
        )
        assert tuple(sweep.signed(xs, vals, sign)) == _old_sign(
            xs, vals, sign < 0
        )
    assert tuple(sweep.unique_minimum(xs, vals)) == _old_unique_minimum(
        xs, vals
    )
    assert list(sweep.sign_changes(vals)) == _old_sign_changes(vals)


def test_nan_never_passes():
    xs = [0.0, 0.5, 1.0]
    assert not sweep.lowest(xs, [1.0, math.nan, 2.0]).ok
    assert not sweep.monotone(xs, [1.0, math.nan, 2.0], 1.0).ok


def test_no_margins_hold_vacuously():
    assert sweep.lowest([], []) == (True, math.inf, None)
    # one value has no step
    assert sweep.monotone([0.5], [1.0], 1.0) == (True, math.inf, None)


@pytest.mark.parametrize("vals, witness", [
    # one turn, at 0.5, but the first step is flat: where it starts
    ([1.0, 1.0, 0.0, 1.0, 2.0], 0.0),
    # one turn, at 0.25, but the last step is flat: where it starts
    ([3.0, 1.0, 2.0, 3.0, 3.0], 0.75),
])
def test_unique_minimum_witnesses_the_failing_end_step(vals, witness):
    xs = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert sweep.unique_minimum(xs, vals) == (False, 1.0, witness)


@pytest.mark.parametrize("verdict, ok", [
    ("pass", True), ("flagged", True), ("certified", True),
    ("consistent", True), ("fail", False), ("violated", False),
    ("refuted", False),
])
def test_claim_ok_for_every_verdict_word(verdict, ok):
    claim = sweep.Claim("c", "sign", (0.0, 1.0), "> 0 on the interval",
                        verdict, 1.0, None, 0)
    assert claim.ok is ok

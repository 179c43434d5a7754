"""Grid-based monotonicity checks, bound-family comparison with crossover
localization, and falsification probes for the open problem and the three
conjectures around the gamma-log ratio.

Every check and finding is one :class:`gamma_envelope.sweep.Claim`.
Conjecture verdicts are always "consistent" or "violated", never
"proved": a consistent sweep only means no counterexample was found at
the probed resolution.  A violation, on the other hand, is a concrete
numeric counterexample and is reported loudly.
"""

import functools
import math
import sys
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from gamma_envelope import bounds, refcore, sweep
from gamma_envelope.bounds import _open_unit, _positive
from gamma_envelope.proofaudit import (
    _lambda_value, _quotient, proof_function, ratio_R,
)

# Relative inset used to keep grids away from open-interval boundaries.
BOUNDARY_INSET = 1e-6


def _grid(a, b, n):
    eps = (b - a) * BOUNDARY_INSET
    return np.linspace(a + eps, b - eps, n)


# ---------------------------------------------------------------------------
# ratio-family functions


def _require_positive(name, param, value):
    # a finite real number > 0, as a float
    if type(value) is not float:
        value = refcore._gate(name, value, param=param)
    if not 0.0 < value < math.inf:
        raise ValueError("%s requires finite %s > 0, got %r"
                         % (name, param, value))
    return value


def lambda_ratio(lam, x):
    """ln Gamma(x+1) / (ln(x^2+lam) - ln(x+lam)) for finite lam > 0, 0 < x < 1,
    at a float or every element of a 1-D array; at lam = 1 this equals
    :func:`ratio_R` bit for bit."""
    lam = _require_positive("lambda_ratio", "lam", lam)
    _, at_zero = refcore.envelope_exponents(lam)
    return _quotient("lambda_ratio", "0 < x < 1", _open_unit, x,
                     _lambda_value, lam, None, at_zero)


def _lambda_sweep(xs):
    """A function (lam, idx, k) -> the array of :func:`lambda_ratio` values
    at the grid points xs[idx] of a grid of normal doubles in (0, 1), by
    default all of them, equal to them bit for bit.  The numerator is
    evaluated once, by ``ln_gamma1p_array``, which equals ``ln_gamma1p``
    bit for bit on (0, 1); each call takes the array quotient's
    denominators from the kernels ``k``, by default ``refcore.ON_ARRAY``,
    which rounds each as a float.  With :data:`_FAST` the denominators
    come from one vectorized ``np.log1p`` and the values are only close to
    the float form's (see :func:`_lambda_classifier`)."""
    num = refcore.ln_gamma1p_array(xs)

    def values(lam, idx=slice(None), k=refcore.ON_ARRAY):
        return num[idx] / refcore.log_base(k, xs[idx], lam)

    return values


def _tau_value(k, x, tau):
    return k.ln_gamma(x) / refcore.log_base(k, x, tau)


def tau_ratio(tau, x):
    """ln Gamma(x) / (ln(x^2+tau) - ln(x+tau)) with the defined value
    -(1+tau)*EulerGamma at the removable point x = 1, at a float or every
    element of a 1-D array.  At subnormal x the denominator rounds to -0.0
    or the quotient overflows, and past x ~ 2.56e305 ln Gamma(x) does:
    there it raises ValueError."""
    tau = _require_positive("tau_ratio", "tau", tau)
    return _quotient("tau_ratio", "x > 0", _positive, x, _tau_value, tau,
                     -(1.0 + tau) * refcore.EULER_GAMMA)


def _unitball_value(k, x, _):
    return k.ln_gamma(x + 1.0) / (x * k.log(2.0 * x))


def F_unitball(x):
    """ln Gamma(x+1) / (x ln(2x)) on (1/2, inf); increasing, concave, < 1.
    At a float or every element of a 1-D array; raises ValueError past
    x ~ 2.56e305, where ln Gamma(x+1) overflows."""
    return _quotient("F_unitball", "x > 1/2", lambda x: x > 0.5, x,
                     _unitball_value)


def _h_cm_value(k, x, _):
    return k.log(x) / refcore.log_base(k, x)


def h_cm(x):
    """ln x / (ln(1+x^2) - ln(1+x)) with the defined value 2 at x = 1.

    Conjectured completely monotonic on (0, inf); evaluated with log1p
    forms so the removable point at 1 costs no accuracy nearby.  At a
    float or every element of a 1-D array; raises ValueError at subnormal
    x, where the quotient overflows.
    """
    return _quotient("h_cm", "x > 0", _positive, x, _h_cm_value, None, 2.0)


def _proof_function_each(name, x):
    # one scalar proof_function call per point: proof_function takes the
    # array itself, but perfbench's tracer test counts 10 point calls for
    # check_monotone('q', ..., grid_n=10), so passing it the array waits
    # for the benchmark change of ROADMAP item 10
    if not isinstance(x, np.ndarray):
        return proof_function(name, x)
    return np.array([proof_function(name, v) for v in x.tolist()])


# registry for check_monotone / cm_probe, each entry taking a float or a
# 1-D array; parametrized ids use "name:value"
_FUNCTIONS = {
    "ratio_R": ratio_R,
    "F_unitball": F_unitball,
    "h_cm": h_cm,
    **{name: functools.partial(_proof_function_each, name)
       for name in ("q", "q1", "q1_prime", "f_over_g_prime")},
}

_PARAMETRIZED = {
    "lambda_ratio": lambda_ratio,
    "tau_ratio": tau_ratio,
}


def resolve_function(function_id):
    """Map a registry id ('ratio_R', 'lambda_ratio:6', ...) to a callable
    of a 1-D array."""
    if function_id in _FUNCTIONS:
        return _FUNCTIONS[function_id]
    if ":" in function_id:
        name, _, param = function_id.partition(":")
        if name in _PARAMETRIZED:
            return functools.partial(_PARAMETRIZED[name], float(param))
    raise KeyError("unknown function id %r" % (function_id,))


def _interval(name, a, b):
    # the interval (a, b) of the sweep ``name``: two floats, finite, a < b
    a, b = (refcore._gate(name, end, param=param)
            for end, param in ((a, "a"), (b, "b")))
    if not math.isfinite(b - a):  # an infinite or NaN end, or width
        raise ValueError("interval (%r, %r) is not finite" % (a, b))
    if not a < b:
        raise ValueError("need a < b")
    return a, b


# ---------------------------------------------------------------------------
# monotonicity


def check_monotone(function_id, a, b, direction, grid_n=10000):
    """Check strict monotonicity of a registered function on (a, b).

    Samples ``grid_n`` points on [a+eps, b-eps] with eps = (b-a)*1e-6 and
    requires every consecutive difference to have the claimed sign in
    exact double comparison; ties count as violations.  Returns a
    :class:`~gamma_envelope.sweep.Claim` named ``function_id`` of kind
    monotonicity on (a, b): verdict consistent or violated, measured the
    smallest |difference|, witness the x where the first failing step
    starts and violations the number of failing steps.
    """
    a, b = _interval("check_monotone", a, b)
    sweep.grid_size(grid_n, "grid_n", 2)
    if direction not in ("increasing", "decreasing"):
        raise ValueError("direction must be 'increasing' or 'decreasing'")
    f = resolve_function(function_id)
    xs = _grid(a, b, grid_n)
    sign = 1.0 if direction == "increasing" else -1.0
    steps = sign * np.diff(f(xs))
    fails = np.flatnonzero(~(steps > 0.0))
    return sweep.Claim(
        function_id, "monotonicity", (a, b), "strictly " + direction,
        "violated" if len(fails) else "consistent",
        float(np.min(np.abs(steps), initial=math.inf)),
        float(xs[fails[0]]) if len(fails) else None, len(fails))


# ---------------------------------------------------------------------------
# open problem: lambda thresholds


def _classify_lambda(xs, vals):
    """'increasing' | 'decreasing' | 'non-monotone' for one lambda
    ratio sweep on (0,1).

    Increasing or decreasing means every grid step has that strict sign;
    any mix of signs (or a zero step) is classified non-monotone.
    """
    for sign, direction in ((1.0, "increasing"), (-1.0, "decreasing")):
        if sweep.claim("lambda_ratio", "monotonicity", xs, vals, sign).ok:
            return direction
    return "non-monotone"


# The kernels of the fast lambda sweep: the denominator's log1p from numpy
# over the whole array, within a few ulps of math.log1p at each element
_FAST = SimpleNamespace(log1p=np.log1p)

# A fast step d = v[i+1] - v[i] takes its sign as decided when
# |d| > _STEP_BOUND * (|v[i]| + |v[i+1]|)
_STEP_BOUND = 2.0**-40


def _lambda_classifier(xs):
    """A function lam -> ``_classify_lambda(xs, values(lam))`` on the grid
    xs, with values from :func:`_lambda_sweep`, decided ends first and
    then from fast values.

    The first and last steps are computed from the four grid points they
    span.  When one of them is not > 0 and one is not < 0 (possibly the
    same step), no sweep through them is strictly increasing or strictly
    decreasing, so the answer is 'non-monotone' without the rest of the
    grid.

    The other lambda are classified from fast values, whose denominators
    take one ``np.log1p`` of the whole grid (:data:`_FAST`) in place of
    ``math.log1p`` at each point.  A fast step d = v[i+1] - v[i] is
    decided when |d| > 2**-40 (|v[i]| + |v[i+1]|).  Every step decided
    > 0 is 'increasing', every step decided < 0 'decreasing', and two
    decided steps of opposite sign 'non-monotone'; anything else (a step
    within the bound, a NaN) falls back to the exact sweep.  ``np.log1p``
    stays within 4 ulps of ``math.log1p`` on these arguments (a test pins
    it over 10**6 of them; 1 ulp is the most seen), so with the two
    divisions' roundings a fast value is within 1.2e-15 relative of the
    exact one.  The bound is over 700 times that, so a decided step has
    the sign of the exact step, and every answer equals the exact
    full-grid sweep's.
    """
    values = _lambda_sweep(xs)
    n = len(xs)
    ends = np.array([0, 1, n - 2, n - 1])

    def classify(lam):
        first, _, last = np.diff(values(lam, ends))
        if not (first > 0.0 and last > 0.0 or first < 0.0 and last < 0.0):
            return "non-monotone"
        fast = values(lam, k=_FAST)
        steps = np.diff(fast)
        size = np.abs(fast)
        bound = _STEP_BOUND * (size[:-1] + size[1:])
        rises, falls = steps > bound, steps < -bound
        if rises.all():
            return "increasing"
        if falls.all():
            return "decreasing"
        if rises.any() and falls.any():
            return "non-monotone"
        return _classify_lambda(xs, values(lam))

    return classify


def search_lambda_thresholds(grid_n=2000, lambda_tol=1e-3):
    """Bracket the monotonicity transition of the lambda-ratio family.

    Returns ``(lambda_inc_max, lambda_dec_min, table)`` where the first is
    the largest lambda still classified strictly increasing on (0,1), the
    second the smallest classified strictly decreasing, both to within
    ``lambda_tol``.  These are numerical estimates for an open question,
    not certified values.

    Each lambda is classified ends first (:func:`_lambda_classifier`):
    one whose first and last grid steps already rule out both strict
    directions is non-monotone at once, and only the others are swept
    over the whole grid, first with one vectorized ``np.log1p`` for the
    denominators.  A step of that fast sweep counts only when it exceeds
    2**-40 of the two values' magnitudes, over 700 times the fast
    values' error, so its sign is the exact step's; the exact
    element-wise sweep runs only when a step is within that bound.  The
    answers equal full exact sweeps exactly.
    """
    sweep.grid_size(grid_n, "grid_n", 1000)
    if not 0.0 < lambda_tol < math.inf:
        raise ValueError("lambda_tol must be positive and finite")
    classify = _lambda_classifier(_grid(0.0, 1.0, grid_n))
    table = []
    coarse = [1.0 + 0.1 * i for i in range(51)]  # 1.0 .. 6.0
    last_inc = None
    first_dec = None
    for lam in coarse:
        cls = classify(lam)
        table.append((lam, cls))
        if cls == "increasing":
            last_inc = lam
        if cls == "decreasing" and first_dec is None:
            first_dec = lam
    if last_inc is None or first_dec is None:
        raise RuntimeError("coarse sweep found no transition in [1, 6]")
    # upward from the last increasing lambda, downward from the first
    # decreasing one
    lambda_inc_max, _ = sweep.bisect(
        lambda lam: classify(lam) == "increasing",
        last_inc, last_inc + 0.1, lambda_tol,
    )
    _, lambda_dec_min = sweep.bisect(
        lambda lam: classify(lam) != "decreasing",
        first_dec - 0.1, first_dec, lambda_tol,
    )
    return lambda_inc_max, lambda_dec_min, table


# ---------------------------------------------------------------------------
# complete-monotonicity probe


def cm_probe(function_id, a, b, max_order, step):
    """Finite-difference probe of complete monotonicity on [a, b].

    For each grid x and order n <= max_order the forward difference
    Delta^n f(x) must satisfy (-1)^n Delta^n >= -tol_n with
    tol_n = 2^n * 1e-12 * max|f| over the stencil.  Returns a
    :class:`~gamma_envelope.sweep.Claim` named ``function_id`` of kind
    complete_monotonicity on (a, b): verdict consistent (no violation
    found, not a proof) or violated, measured None, witness the smallest
    x of a failing stencil and violations the number of failing stencils
    over every order.
    """
    a, b = _interval("cm_probe", a, b)
    if not 0 <= sweep.grid_size(max_order, "max_order") <= 8:
        raise ValueError("max_order must be in 0..8, got %r" % (max_order,))
    if not step > 0.0:
        raise ValueError("step must be positive")
    if step == math.inf:
        raise ValueError("step must be finite, got inf")
    if not a > 0.0:
        raise ValueError("a must be positive")
    if a + max_order * step > b:
        raise ValueError("stencil exceeds the domain")
    steps = (b - a) / step
    if not steps < sys.maxsize:
        raise ValueError("step %r gives more grid points on (%r, %r) than "
                         "an array can hold" % (step, a, b))
    f = resolve_function(function_id)
    n_pts = math.floor(steps) + 1
    xs = a + step * np.arange(n_pts)
    vals = f(xs)
    absvals = np.abs(vals)
    violations, first = 0, n_pts
    for n in range(max_order + 1):
        # max|f| over each length-(n+1) stencil
        stencil_max = sliding_window_view(absvals, n + 1).max(axis=1)
        tol = (2.0**n) * 1e-12 * stencil_max
        signed = ((-1.0) ** n) * np.diff(vals, n)
        fails = np.flatnonzero(signed < -tol)
        violations += len(fails)
        if len(fails):
            first = min(first, fails[0])
    return sweep.Claim(
        function_id, "complete_monotonicity", (a, b),
        "(-1)^n Delta^n f >= -tol_n for n <= %d" % max_order,
        "violated" if violations else "consistent", None,
        float(xs[first]) if violations else None, violations)


# ---------------------------------------------------------------------------
# family comparison: every comparison reads one grid evaluation per
# family, both log sides at every point from one array evaluation


def _side(logs, family, side):
    """One side of ``family``'s ``bounds.family_logs_array`` result
    ``logs``: NaN where it is undefined, and all of a one-sided family's
    lower side."""
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    lower, upper = logs
    if side == "upper":
        return upper
    if bounds.FAMILIES[family].one_sided:
        return np.full(len(lower), np.nan)
    return lower


def _side_difference(side, xs, family_a, logs_a, family_b, logs_b):
    """Family a's side minus family b's on the grid xs.  At the first
    point where either side is undefined, a before b, raises the
    DomainError of evaluate_family there, or the missing lower side's."""
    va, vb = _side(logs_a, family_a, side), _side(logs_b, family_b, side)
    d = va - vb  # NaN exactly where a side is: both are finite elsewhere
    undefined = np.flatnonzero(np.isnan(d))
    if len(undefined):
        i = undefined[0]
        family = family_a if math.isnan(va[i]) else family_b
        bounds.evaluate_family(family, float(xs[i]))
        raise bounds.DomainError("%s has no lower bound" % family)
    return d


def _one_convention(families):
    """Raise unless ``families`` is a nonempty list of catalog families
    that share one argument convention: mixing conventions would compare
    bounds on different quantities."""
    if not families:
        raise ValueError("family list must be nonempty")
    conventions = {bounds._entry(f).convention for f in families}
    if len(conventions) != 1:
        raise ValueError("families mix argument conventions: %s"
                         % (sorted(conventions),))


def _winners(side, values):
    """Index of the family with the best side at each point (largest
    lower, smallest upper; -1 where none is defined).  A tie keeps the
    earlier family."""
    best = np.full(len(values[0]), -1)
    best_v = np.full(len(values[0]), np.nan)
    for j, v in enumerate(values):
        take = (v > best_v) if side == "lower" else (v < best_v)
        take |= (best < 0) & ~np.isnan(v)
        best[take], best_v[take] = j, v[take]
    return best


def find_crossover(family_a, family_b, side, a, b, scan_n=1000):
    """All points in (a, b) where two families' bounds (one side) cross.

    Sign changes of the log-bound difference are located on a scan grid
    and refined by bisection to 1e-10.  An empty list means one family's
    side dominates throughout.  The families must share one convention.
    """
    a, b = _interval("find_crossover", a, b)
    _one_convention((family_a, family_b))

    def diff(xs):
        return _side_difference(
            side, xs, family_a, bounds.family_logs_array(family_a, xs),
            family_b, bounds.family_logs_array(family_b, xs))

    xs = _grid(a, b, sweep.grid_size(scan_n, "scan_n", 2))
    vals = diff(xs)
    return [
        sweep.root(lambda x: diff(np.array([x]))[0], float(xs[i]),
                   float(xs[i + 1]), vals[i], 1e-10)
        for i in sweep.sign_changes(vals)
    ]


class ComparisonReport(NamedTuple):
    side: str
    families: list
    grid: list
    winner_per_point: list
    crossovers: list  # [(family_a, family_b, x_star), ...]


def compare_families(side, a, b, grid_n, families):
    """Pointwise winner table plus pairwise crossovers for one side.

    The winner at x is the family with the largest lower (resp. smallest
    upper) bound among those valid at x.  All requested families must
    share one argument convention.
    """
    a, b = _interval("compare_families", a, b)
    _one_convention(families)
    xs = _grid(a, b, sweep.grid_size(grid_n, "grid_n", 2))
    values = [_side(bounds.family_logs_array(f, xs), f, side)
              for f in families]
    winners = _winners(side, values)
    return ComparisonReport(
        side=side,
        families=list(families),
        grid=[float(x) for x in xs],
        winner_per_point=[families[j] if j >= 0 else None for j in winners],
        crossovers=[
            (fa, fb, x_star)
            for i, fa in enumerate(families)
            for fb in families[i + 1 :]
            for x_star in find_crossover(fa, fb, side, a, b)
        ],
    )


# ---------------------------------------------------------------------------
# encoded comparison claims
#
# Each published finding is one predicate over two families' log sides on
# an (a, b, n) grid, by default (0, 1, grid_n).  "improves"/"better" means
# winning at every grid point, "not included" that neither family wins
# both sides everywhere, "cross" a sign change on find_crossover's scan.

_SCAN = (0.0, 1.0, 1000)
_SMALL_X = (1e-6, 0.05, 200)


class _ClaimGrids:
    """The comparisons of one remark_claims call; each family is
    evaluated at most once per grid."""

    def __init__(self, grid_n):
        self.grid = (0.0, 1.0, grid_n)
        self.logs = functools.cache(
            lambda f, g: bounds.family_logs_array(f, _grid(*g)))

    def dominates(self, fa, fb, side, grid=None):
        grid = grid or self.grid
        values = [_side(self.logs(f, grid), f, side) for f in (fa, fb)]
        return bool(np.all(_winners(side, values) == 0))

    def includes(self, fa, fb, grid=None):
        return (self.dominates(fa, fb, "lower", grid)
                and self.dominates(fa, fb, "upper", grid))

    def crosses(self, fa, fb, side):
        d = _side_difference(side, _grid(*_SCAN), fa, self.logs(fa, _SCAN),
                             fb, self.logs(fb, _SCAN))
        return len(sweep.sign_changes(d)) > 0


_CLAIMS = [
    # findings for the Gamma(x) families on (0,1)
    ("r2_1_rearranged_alzer_power_not_included",
     "rearranged envelope and power bounds cross on (0,1)",
     lambda c: (c.crosses("qi_guo_rearranged", "alzer_power", "lower")
                or c.crosses("qi_guo_rearranged", "alzer_power", "upper"))
     and not c.includes("qi_guo_rearranged", "alzer_power")
     and not c.includes("alzer_power", "qi_guo_rearranged")),
    ("r2_2_rearranged_better_small_x",
     "rearranged envelope beats power bounds (both sides) for small x",
     lambda c: c.includes("qi_guo_rearranged", "alzer_power", _SMALL_X)),
    ("r2_3_rearranged_improves_alzer_batir",
     "rearranged envelope improves the psi-shift Stirling bounds on (0,1)",
     lambda c: c.includes("qi_guo_rearranged", "alzer_batir")),
    ("r2_4_rearranged_lower_refines_qgz",
     "rearranged lower bound refines the x^(x(1-ln x+psi)) lower bound",
     lambda c: c.dominates("qi_guo_rearranged", "qi_guo_zhang", "lower")),
    ("r2_5_rearranged_qgz_upper_not_included",
     "rearranged and x^(x(1-ln x+psi)) upper bounds cross on (0,1)",
     lambda c: c.crosses("qi_guo_rearranged", "qi_guo_zhang", "upper")),
    ("r2_6_rearranged_upper_better_small_x",
     "rearranged upper bound beats the x^(x(1-ln x+psi)) one for small x",
     lambda c: c.dominates("qi_guo_rearranged", "qi_guo_zhang", "upper",
                           _SMALL_X)),
    # findings for the Gamma(x+1) families on (0,1)
    ("r3_1_qi_guo_batir14_not_included",
     "sharp envelope and shifted-Stirling bounds do not include "
     "each other on (0,1)",
     lambda c: not c.includes("qi_guo", "batir_14")
     and not c.includes("batir_14", "qi_guo")),
    ("r3_2_qi_guo_upper_better_batir15",
     "sharp envelope upper bound beats the sqrt(2 pi) form on (0,1)",
     lambda c: c.dominates("qi_guo", "batir_15", "upper")),
    ("r3_3_qi_guo_batir15_lower_not_included",
     "sharp envelope and sqrt(2e) lower bounds cross on (0,1)",
     lambda c: c.crosses("qi_guo", "batir_15", "lower")),
    ("r3_4a_qi_guo_lower_improves_batir12",
     "sharp envelope lower bound improves the sqrt(2x+1) form on (0,1)",
     lambda c: c.dominates("qi_guo", "batir_12", "lower")),
]


def _finding(name, text, verdict):
    # a comparison finding on (0, 1): its text is what it expects, and it
    # measures nothing
    return sweep.Claim(name, "comparison", (0.0, 1.0), text, verdict, None,
                       None, int(verdict == "fail"))


def remark_claims(grid_n=2000):
    """Evaluate every encoded comparison finding; returns one
    :class:`~gamma_envelope.sweep.Claim` per finding, of kind comparison
    on (0, 1): name the claim id, expected its description, verdict pass,
    fail or flagged, measured and witness None, and violations 1 for a
    failed finding, else 0."""
    c = _ClaimGrids(sweep.grid_size(grid_n, "grid_n", 2))
    out = [_finding(cid, text, "pass" if holds(c) else "fail")
           for cid, text, holds in _CLAIMS]
    # The companion upper-bound finding in the source text compares a
    # bound with itself (apparent typo), so there is nothing well-defined
    # to assert; the observed qi_guo/batir_12 upper relation is reported
    # as a flagged finding instead.
    cross = c.crosses("qi_guo", "batir_12", "upper")
    out.append(_finding(
        "r3_4b_upper_half_self_referential",
        "source claim compares a bound with itself; observed: "
        "qi_guo/batir_12 upper bounds %s on (0,1)"
        % ("cross" if cross else "do not cross"),
        "flagged",
    ))
    return out

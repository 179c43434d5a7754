"""Workload definitions, seeded input generation and output checks.

Four workloads, chosen so that every layer of the toolkit is exercised by
at least one of them and bypassed by another:

* ``audit-dense``: the proof-chain audit at 100x its default grid.  Kernel
  bound (polygamma k=1,2, ln_gamma, digamma) plus the proofaudit and
  polycert glue.  At 100x grid two claims fail on floating-point noise
  near x = 1; the failures are counted, never hidden.
* ``lambda-search``: the lambda-ratio open-problem sweep at 10x grid.  Only
  ln_gamma on (1, 2), driven by the analysis sweep and bisection; no
  polygamma and no proofaudit code, so changes there should leave it flat.
* ``release-suite``: every subcommand once at its default grid, each in a
  fresh process.  Dominated by interpreter start-up and the numpy import;
  the only workload where polycert, the bounds catalog (via ``compare``),
  cm_probe and CLI rendering do measurable work.
* ``point-queries``: a seeded in-process stream of scalar public-API calls.
  Per-call overhead is the whole cost, so it shows whether a gain on the
  sweeps is paid for by point callers.
"""

import math
import random

CLI_WORKLOADS = {
    "audit-dense": [["audit", "--grid", "100000", "--format", "csv"]],
    "lambda-search": [["openproblem-lambda", "--grid", "20000"]],
    "release-suite": [
        ["bounds", "--family", "qi_guo", "--x", "0.5"],
        ["bounds", "--family", "qi_guo_extended", "--x", "3.5"],
        ["bounds", "--family", "alzer_batir", "--x", "0.5"],
        ["bounds", "--family", "unitball", "--x", "2"],
        ["compare"],
        ["audit"],
        ["lemma2"],
        ["monotone"],
        ["conjecture", "cm"],
        ["conjecture", "ratio-global"],
        ["conjecture", "tau"],
        ["openproblem-lambda"],
        ["polygamma-check"],
    ],
}

# Small sizes for the benchmark's own tests: same commands, smaller grids.
SMOKE_CLI_WORKLOADS = {
    "audit-dense": [["audit", "--grid", "1000", "--format", "csv"]],
    "lambda-search": [["openproblem-lambda", "--grid", "1000"]],
    "release-suite": [
        argv + ["--grid", "200"] for argv in CLI_WORKLOADS["release-suite"]
    ],
}

WORKLOADS = tuple(CLI_WORKLOADS) + ("point-queries",)

# ---------------------------------------------------------------------------
# point-queries input generation

# Input domains: (low, high, log-uniform?, membership test).
DOMAINS = {
    "unit": (0.0, 1.0, False, lambda x: 0.0 < x < 1.0),
    "unit_closed": (0.0, 1.0, False, lambda x: 0.0 < x <= 1.0),
    "one_two": (1.0, 2.0, False, lambda x: 1.0 < x < 2.0),
    "kernel_wide": (1e-3, 1e4, True, lambda x: True),
    "wide": (1e-3, 1e3, True, lambda x: True),
    "wide_not_one": (1e-3, 1e3, True, lambda x: x != 1.0),
    "above_half": (0.5, 1e3, True, lambda x: x > 0.5),
}
FAMILY_DOMAINS = {
    "ivady": "unit",
    "qi_guo": "unit",
    "qi_guo_rearranged": "unit",
    "lambda6": "unit",
    "qi_guo_zhang": "unit_closed",
    "qi_guo_extended": "wide",
    "alzer_batir": "wide",
    "batir_12": "wide",
    "batir_14": "wide",
    "batir_15": "wide",
    "alzer_power": "wide_not_one",
    "unitball": "above_half",
}
KERNELS = (
    ("ln_gamma", None),
    ("digamma", None),
    ("polygamma", 1),
    ("polygamma", 2),
    ("polygamma", 3),
)
KERNEL_DOMAINS = ("one_two", "kernel_wide")
# Per stream: 12 families x 4000 + 5 kernels x 2 domains x 7200 = 120000.
FAMILY_QUERIES = 4000
KERNEL_QUERIES = 7200
SMOKE_DIVISOR = 100

# Every SUBSAMPLE_STRIDE-th query is checked against mpmath.
SUBSAMPLE_STRIDE = 50

# Accuracy rule shared with the kernel tests of the toolkit:
# |value - ref| <= KERNEL_TOL * (1 + |ref|).  The same amount is the
# resolution of a containment check: a log-bound closer to the reference
# than this cannot be told apart from it in double precision, so it is
# counted as unresolved, not as a violation.
KERNEL_TOL = 1e-12


def _stratified(rng, domain, n):
    """``n`` seeded draws from a domain, one in each of ``n`` strata of
    equal probability, so that every seed covers the domain evenly and
    per-call percentiles do not depend on how a seed fills the tails."""
    lo, hi, log, inside = DOMAINS[domain]
    if log:
        lo, hi = math.log(lo), math.log(hi)
    xs = []
    for j in range(n):
        while True:
            t = lo + (hi - lo) * (j + rng.random()) / n
            x = math.exp(t) if log else t
            if inside(x):
                break
        xs.append(x)
    return xs


def generate_queries(seed, smoke=False):
    """Seeded, shuffled list of ``[kind, param, x]`` queries.

    ``kind`` is ``"family"`` (param: family id) or a kernel name
    (param: the polygamma order, else None).
    """
    rng = random.Random(seed)
    div = SMOKE_DIVISOR if smoke else 1
    queries = []
    for fid, domain in FAMILY_DOMAINS.items():
        queries += [["family", fid, x]
                    for x in _stratified(rng, domain, FAMILY_QUERIES // div)]
    for name, k in KERNELS:
        for domain in KERNEL_DOMAINS:
            queries += [[name, k, x] for x in
                        _stratified(rng, domain, KERNEL_QUERIES // div)]
    rng.shuffle(queries)
    return queries


def subsample_indices(n):
    return range(0, n, SUBSAMPLE_STRIDE)


# ---------------------------------------------------------------------------
# mpmath reference checks


def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def kernel_reference(name, k, x):
    """mpmath value of a kernel at the exact double ``x``, as a float."""
    mp = _mp()
    xm = mp.mpf(x)
    if name == "ln_gamma":
        return float(mp.loggamma(xm))
    if name == "digamma":
        return float(mp.digamma(xm))
    return float(mp.polygamma(k, xm))


def check_kernel_value(value, ref):
    """(ok, relative error); ``ok`` follows the accuracy rule above."""
    err = abs(value - ref)
    # at an exact zero of the kernel only the absolute rule applies
    rel = err / abs(ref) if ref != 0.0 else 0.0
    return err <= KERNEL_TOL * (1.0 + abs(ref)), rel


def check_containment(x, log_lower, log_upper, convention, equality, one_sided):
    """'contained', 'unresolved' or 'violated' for one bound pair.

    The reference is mpmath's ln Gamma(x+1) or ln Gamma(x), by the pair's
    argument convention.  A side within the resolution of the reference
    is unresolved; a side beyond it on the wrong side is violated.
    """
    mp = _mp()
    shift = 1.0 if convention == "gamma_of_x_plus_1" else 0.0
    ref = float(mp.loggamma(mp.mpf(x) + shift))
    tol = KERNEL_TOL * (1.0 + abs(ref))
    sides = [(log_upper, 1.0)]
    if not one_sided:
        sides.append((log_lower, -1.0))
    if equality:  # both sides must equal the reference
        ok = all(abs(value - ref) <= tol for value, _ in sides)
        return "contained" if ok else "violated"
    status = "contained"
    for value, sign in sides:
        margin = sign * (value - ref)  # > 0 on the right side of ref
        if margin < -tol:
            return "violated"
        if margin <= tol:
            status = "unresolved"
    return status


# ---------------------------------------------------------------------------
# CLI output checks

PASS_VERDICTS = {"pass", "flagged", "certified", "consistent"}
FAIL_VERDICTS = {"fail", "violated", "refuted"}
LAMBDA_CLASSES = {"increasing", "decreasing", "non-monotone"}


class Outcome:
    """Checked result of one CLI process: its operations are verdict rows."""

    def __init__(self, rows, failed, consistent, note=""):
        self.rows = rows  # number of operations (verdict rows)
        self.failed = failed  # names of failed rows
        self.consistent = consistent  # parsed, and exit code agrees
        self.note = note


def _bounds_rows(rows):
    out = []
    for row in rows:
        f = row.split(",")
        family, lower, true, upper = f[0], float(f[2]), float(f[3]), float(f[4])
        equality, one_sided = f[6] == "True", f[7] == "True"
        ok = equality or ((one_sided or lower < true) and true < upper)
        out.append((family, ok))
    return out


def _lambda_rows(rows):
    est = {}
    for row in rows:
        key, _, value = row.partition(",")
        if key.startswith("lambda_"):
            est[key] = float(value)
        elif key != "note" and value not in LAMBDA_CLASSES:
            raise ValueError("unknown classification %r" % (value,))
    inc = est["lambda_inc_max_estimate"]
    dec = est["lambda_dec_min_estimate"]
    return [("lambda_bracket", 1.0 < inc <= dec < 6.0)]


def _verdict_rows(header, rows):
    # columns after the verdict column hold no commas
    k = len(header.split(",")) - header.split(",").index("verdict")
    out = []
    for row in rows:
        name = row.split(",", 1)[0]
        verdict = row.rsplit(",", k)[-k]
        if verdict not in PASS_VERDICTS | FAIL_VERDICTS:
            raise ValueError("unknown verdict %r in row %r" % (verdict, name))
        out.append((name, verdict in PASS_VERDICTS))
    return out


def check_cli_output(argv, text, rc):
    """Count the verdict rows of one CLI run and the ones that failed.

    A row fails when its verdict is fail, violated or refuted.  Every row
    of the process fails when the process crashed (exit code other than
    0 or 1), when its report cannot be parsed, or when the exit code
    disagrees with the rows (0 with a failed row, 1 without one).  Free
    text cells may hold commas, so names are read from the left and
    verdicts from the right.
    """
    lines = [ln for ln in text.split("\n") if ln]
    rows = lines[1:]
    try:
        if not rows:
            raise ValueError("empty report")
        if argv[0] == "bounds":
            checked = _bounds_rows(rows)
        elif argv[0] == "openproblem-lambda":
            checked = _lambda_rows(rows)
        else:
            checked = _verdict_rows(lines[0], rows)
    except (ValueError, KeyError, IndexError) as exc:
        n = max(1, len(rows))
        return Outcome(n, ["%s:unparsed" % argv[0]] * n, False,
                       "unparsable report: %s" % exc)
    failed = [name for name, ok in checked if not ok]
    if rc not in (0, 1):
        note = "exit code %r" % (rc,)
    elif (rc == 1) != bool(failed):
        note = "exit code %d disagrees with %d failed rows" % (rc, len(failed))
    else:
        return Outcome(len(checked), failed, True)
    return Outcome(len(checked), [name for name, _ in checked], False, note)


# ---------------------------------------------------------------------------
# point-query checks (shared by the timed and the traced runner)


def structural_failure(kind, result):
    """Reason a query result is unusable, or None.

    Family bounds must have finite logs, except the one-sided -inf
    sentinel, and log_lower <= log_upper; kernel values must be finite.
    """
    if isinstance(result, Exception):
        return "raised %s: %s" % (type(result).__name__, result)
    if kind == "family":
        lo, hi = result.log_lower, result.log_upper
        if not math.isfinite(hi) or not (
            math.isfinite(lo) or (result.one_sided and lo == -math.inf)
        ):
            return "non-finite log bound (%r, %r)" % (lo, hi)
        if lo > hi:
            return "log_lower %r > log_upper %r" % (lo, hi)
        return None
    if not math.isfinite(result):
        return "non-finite value %r" % (result,)
    return None


def encode_result(kind, result):
    """JSON-able form of a query result for the mpmath subsample."""
    if isinstance(result, Exception):
        return None
    if kind == "family":
        return [result.log_lower, result.log_upper,
                result.argument_convention, result.is_equality_point,
                result.one_sided]
    return float(result)


def check_sampled_query(query, encoded):
    """(status, relative error or None) for one subsampled query.

    status is 'ok', 'unresolved' or 'violated'.
    """
    kind, param, x = query
    if encoded is None:  # raised; counted by the structural check
        return "ok", None
    if kind == "family":
        return check_containment(x, *encoded), None
    ok, rel = check_kernel_value(encoded, kernel_reference(kind, param, x))
    return ("ok" if ok else "violated"), rel

"""Command-line front end: runs the verification suites and writes
deterministic reports.

Exit codes: 0 when every check passes / every probe is consistent, 1 when
any verification fails or a conjecture violation is found, 2 on usage or
I/O errors.  Each sub-command returns a table, (header, rows, ok), and
:func:`main` alone renders and writes it.  All output is deterministic:
CSV follows RFC 4180 with '.' decimals, 17 significant digits and LF line
endings, and quotes a cell only when it holds a comma, a double quote or
a line break (a quote inside it is doubled); JSON is sorted.
"""

import argparse
import io
import math
import sys

# Only what the parser and ``bounds`` need: neither loads numpy.  Every
# other sub-command imports its own modules, so a process pays only for
# the sweeps it runs.
from gamma_envelope import bounds, refcore

FORMATS = ("csv", "json", "markdown")


def _cell(v):
    if v is None:
        return ""
    return "%.17g" % v if isinstance(v, float) else str(v)


def _render(header, rows, fmt):
    """The report text of one table.  JSON gives one object per row, keyed
    by the header; a header of None marks ``rows`` as a whole document."""
    if fmt == "csv":
        import csv  # only CSV reports pay for it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "---|" * len(header),
        ]
        lines.extend("| " + " | ".join(map(_cell, row)) + " |"
                     for row in rows)
        return "\n".join(lines) + "\n"
    import json  # only JSON reports pay for it

    doc = rows if header is None else [dict(zip(header, r)) for r in rows]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# sub-commands: each returns (header, rows, ok), ok meaning exit code 0


def _cmd_bounds(args):
    if args.x is None:
        raise ValueError("--x is required for the bounds command")
    bp = bounds.evaluate_family(args.family, args.x)
    # compare logs: Gamma overflows a double past x ~ 171, its log does
    # not; ln_gamma1p keeps the digits of ln Gamma(x+1) near x = 0 and 1
    plus_1 = bp.argument_convention == bounds.GAMMA_OF_X_PLUS_1
    log_true = (refcore.ln_gamma1p if plus_1 else refcore.ln_gamma)(args.x)
    header = [
        "family", "x", "lower", "true_gamma", "upper", "convention",
        "equality_point", "one_sided",
    ]
    rows = [[
        bp.family, float(args.x), bp.lower, bounds._safe_exp(log_true),
        bp.upper, bp.argument_convention, bp.is_equality_point, bp.one_sided,
    ]]
    lower_ok = bp.one_sided or bp.log_lower < log_true
    ok = bp.is_equality_point or (lower_ok and log_true < bp.log_upper)
    return header, rows, ok


def _cmd_compare(args):
    from gamma_envelope import analysis

    claims = analysis.remark_claims(grid_n=max(args.grid, args.grid_floor))
    header = ["claim_id", "description", "verdict"]
    rows = [[c.name, c.expected, c.verdict] for c in claims]
    return header, rows, all(c.ok for c in claims)


def _cmd_audit(args):
    from gamma_envelope import proofaudit

    claims = proofaudit.audit_proof(grid_n=args.grid)
    fields = ["name", "kind", "expected", "measured", "verdict", "witness"]
    if args.format == "json":  # a JSON row also carries the claim's interval
        fields.insert(2, "interval")
    rows = [[getattr(c, f) for f in fields] for c in claims]
    header = ["claim"] + fields[1:] if args.format == "markdown" else fields
    return header, rows, all(c.ok for c in claims)


def _cmd_lemma2(args):
    from gamma_envelope import polycert, proofaudit, sweep

    certs = polycert.certify_lemma_polynomials()
    rows = [["h%d" % i, "polynomial", cert.claimed_sign, cert.descartes_bound,
             cert.sturm_root_count, cert.verdict]
            for i, cert in certs.items()]
    # the transcendental member is the audit's grid claim, with its value
    # 1 at 0 checked too
    xs = proofaudit.interior_grid(max(args.grid, args.grid_floor))
    h2 = sweep.claim("lemma_h2_positive", "sign", xs,
                     proofaudit.lemma_expr(2, xs))
    h2_at_0 = proofaudit.lemma_expr(2, 0.0)
    h2 = h2._replace(verdict="consistent" if h2.ok
                     and abs(h2_at_0 - 1.0) <= 1e-12 else "violated")
    rows.append(["h2", "transcendental", "positive", "", "", h2.verdict])
    ok = h2.ok and all(c.verdict == "certified" for c in certs.values())
    header = ["name", "kind", "claimed_sign", "descartes_bound",
              "sturm_root_count", "verdict"]
    if args.format == "json":  # a document of the exact certificates
        header, rows = None, {
            "certificates": {
                "h%d" % i: cert.as_dict()
                for i, cert in certs.items()
            },
            "h2_grid_check": {
                "min_value": h2.measured,
                "value_at_0": h2_at_0,
                "verdict": h2.verdict,
            },
        }
    return header, rows, ok


def _cmd_monotone(args):
    from gamma_envelope import analysis

    a, b = args.interval if args.interval else (0.0, 1.0)
    c = analysis.check_monotone(
        args.function, a, b, args.direction, grid_n=args.grid
    )
    header = ["function", "a", "b", "direction", "grid_n",
              "min_abs_diff", "violations", "verdict"]
    rows = [[c.name, a, b, args.direction, args.grid, c.measured,
             c.violations, c.verdict]]
    return header, rows, c.ok


def _cmd_conjecture(args):
    from gamma_envelope import analysis

    def increasing(function_id):
        return lambda a, b: analysis.check_monotone(
            function_id, a, b, "increasing", grid_n=args.grid)

    # the probe's default interval and its (row id, claim of (a, b))
    interval, probes = {
        "cm": ((0.1, 50.0), [("cm_h", lambda a, b: analysis.cm_probe(
            "h_cm", a, b, args.max_order, args.step))]),
        "ratio-global": ((0.0, 50.0), [("ratio_global_increasing",
                                        increasing("ratio_R"))]),
        "tau": ((1e-3, 50.0), [("tau_ratio_increasing_tau=%g" % tau,
                                increasing("tau_ratio:%g" % tau))
                               for tau in (0.5, 1.0, 2.0, 6.0)]),
    }[args.which]
    a, b = args.interval if args.interval else interval
    claims = [(probe, claim(a, b)) for probe, claim in probes]
    rows = [[probe, "(%g,%g)" % c.interval, c.violations, c.verdict]
            for probe, c in claims]
    header = ["probe", "interval", "violations", "verdict"]
    return header, rows, all(c.ok for _, c in claims)


def _cmd_openproblem_lambda(args):
    from gamma_envelope import analysis

    inc, dec, table = analysis.search_lambda_thresholds(
        grid_n=max(args.grid, args.grid_floor), lambda_tol=args.lambda_tol
    )
    header = ["lambda", "classification"]
    rows = [[lam, cls] for lam, cls in table]
    rows.append(["lambda_inc_max_estimate", "%.17g" % inc])
    rows.append(["lambda_dec_min_estimate", "%.17g" % dec])
    rows.append(["note", "numerical estimates for an open question"])
    return header, rows, 1.0 < inc <= dec < 6.0


def _cmd_polygamma_check(args):
    import numpy as np

    from gamma_envelope import sweep

    xs = np.logspace(math.log10(0.01), math.log10(100.0), args.grid)
    claims = []
    for k in (1, 2, 3):
        lower, upper = bounds.polygamma_bounds(k, xs)
        val = abs(refcore.polygamma_array(k, xs))
        claims.append(sweep.claim("polygamma_%d_sandwich" % k, "sign", xs,
                                  np.minimum(val - lower, upper - val)))
    rows = [[k, *c.interval, len(xs), c.measured, c.verdict]
            for k, c in zip((1, 2, 3), claims)]
    header = ["k", "x_min", "x_max", "points", "min_margin", "verdict"]
    return header, rows, all(c.ok for c in claims)


def _grid_size(text):
    # a grid needs two points to have a step (and a first and last x)
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError("need at least 2 points, got %d" % n)
    return n


def build_parser():
    p = argparse.ArgumentParser(
        prog="gamma-envelope",
        description="Verification toolkit for elementary gamma-function "
        "bounds: exact lemma certificates, proof audit, family "
        "comparison, and conjecture probes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid_default=10000, interval=False, grid_floor=2):
        grid_help = "grid resolution"
        if grid_floor > 2:  # raised to the floor, not rejected
            grid_help += " (a smaller N is raised to %d)" % grid_floor
        sp.add_argument("--grid", type=_grid_size, default=grid_default,
                        metavar="N", help=grid_help)
        sp.set_defaults(grid_floor=grid_floor)
        if interval:
            sp.add_argument("--interval", type=float, nargs=2, default=None,
                            metavar=("A", "B"), help="interval endpoints")
        sp.add_argument("--format", choices=FORMATS, default="csv")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: stdout)")

    sp = sub.add_parser("bounds", help="evaluate one bound family at a point")
    common(sp)
    sp.add_argument("--family", default="qi_guo",
                    choices=sorted(bounds.FAMILIES))
    sp.add_argument("--x", type=float, default=None)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("compare", help="re-check the comparison findings")
    common(sp, grid_default=2000, grid_floor=500)
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser("audit", help="audit every step of the "
                        "monotonicity proof")
    common(sp)
    sp.set_defaults(fn=_cmd_audit)

    sp = sub.add_parser("lemma2", help="exact sign certificates for the "
                        "lemma polynomials")
    common(sp, grid_floor=100)
    sp.set_defaults(fn=_cmd_lemma2)

    sp = sub.add_parser("monotone", help="strict monotonicity check of a "
                        "registered function")
    common(sp, interval=True)
    sp.add_argument("--function", default="ratio_R")
    sp.add_argument("--direction", choices=("increasing", "decreasing"),
                    default="increasing")
    sp.set_defaults(fn=_cmd_monotone)

    sp = sub.add_parser("conjecture", help="falsification probes")
    sp.add_argument("which", choices=("cm", "ratio-global", "tau"))
    common(sp, interval=True)
    sp.add_argument("--max-order", type=int, default=6)
    sp.add_argument("--step", type=float, default=0.01)
    sp.set_defaults(fn=_cmd_conjecture)

    sp = sub.add_parser("openproblem-lambda", help="bracket the "
                        "monotonicity transition in lambda")
    common(sp, grid_default=2000, grid_floor=1000)
    sp.add_argument("--lambda-tol", type=float, default=1e-3)
    sp.set_defaults(fn=_cmd_openproblem_lambda)

    sp = sub.add_parser("polygamma-check", help="polygamma sandwich sweep")
    common(sp, grid_default=2000)
    sp.set_defaults(fn=_cmd_polygamma_check)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return 2 if exc.code not in (0,) else 0
    try:
        header, rows, ok = args.fn(args)
        text = _render(header, rows, args.format)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

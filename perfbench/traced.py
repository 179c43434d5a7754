"""Child process of a traced run: per-layer self times from span recorders.

Run:  python perfbench/traced.py --plan PLAN.json --out R.json

PLAN.json holds either ``{"argvs": [...]}`` (CLI workloads, each argv run
through ``cli.main`` in this one process) or ``{"queries": [...]}`` (the
point-queries stream).  The workload runs once untraced, then the public
functions in ``TARGETS`` are wrapped with span recorders and it runs once
more.  A span is (name, start, end, parent); spans are folded into a
call tree as they close, because a dense audit makes millions of them,
and the tree is written out at exit.  A span's self time is its duration
minus the time its child spans cover.
"""

import argparse
import contextlib
import importlib
import io
import itertools
import json
import sys
import time

from workloads import check_kernel_value, kernel_reference
import querystream

# (span name, module, attribute path) of every wrapped public function.
# refcore.polygamma is split into one span name per order k.
TARGETS = (
    ("refcore.ln_gamma", "refcore", "ln_gamma"),
    ("refcore.digamma", "refcore", "digamma"),
    ("refcore.polygamma", "refcore", "polygamma"),
    ("proofaudit.proof_function", "proofaudit", "proof_function"),
    ("proofaudit.lemma_expr", "proofaudit", "lemma_expr"),
    ("proofaudit.ratio_R", "proofaudit", "ratio_R"),
    ("proofaudit.audit_proof", "proofaudit", "audit_proof"),
    ("polycert.Polynomial.__call__", "polycert", "Polynomial.__call__"),
    ("polycert.certify_lemma_polynomials", "polycert",
     "certify_lemma_polynomials"),
    ("analysis.lambda_ratio", "analysis", "lambda_ratio"),
    ("analysis.search_lambda_thresholds", "analysis",
     "search_lambda_thresholds"),
    ("analysis.check_monotone", "analysis", "check_monotone"),
    ("analysis.cm_probe", "analysis", "cm_probe"),
    ("analysis.remark_claims", "analysis", "remark_claims"),
    ("bounds.evaluate_family", "bounds", "evaluate_family"),
    ("bounds.polygamma_bounds", "bounds", "polygamma_bounds"),
    ("cli.main", "cli", "main"),
)
KERNELS = ("refcore.ln_gamma", "refcore.digamma", "refcore.polygamma")
# Every RECORD_STRIDE-th kernel call is kept, and at most KERNEL_SAMPLE of
# those per kernel are checked against mpmath after the traced pass.
RECORD_STRIDE = 97
KERNEL_SAMPLE = 200


class Node:
    __slots__ = ("name", "children", "calls", "total_ns", "self_ns")

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def to_json(self):
        return {
            "name": self.name,
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "children": [c.to_json() for c in self.children.values()],
        }


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.root = Node("workload")
        self._stack = [[self.root, 0]]  # [node, ns covered by children]
        self.kernel_args = {}  # span name -> [args, ...]

    def wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0].child(name), 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                node = frame[0]
                node.calls += 1
                node.total_ns += dur
                node.self_ns += dur - frame[1]
                parent[1] += dur

        return traced

    def record_args(self, name, fn):
        """Keep (args, value) of every RECORD_STRIDE-th call of ``fn``."""
        append = self.kernel_args.setdefault(name, []).append
        count = itertools.count()

        def recorded(*args):
            value = fn(*args)
            if next(count) % RECORD_STRIDE == 0:
                append((args, value))
            return value

        return recorded

    def close(self, wall_ns):
        """Give the root span the pass's wall time; its self time is the
        part no wrapped function covers."""
        self.root.calls = 1
        self.root.total_ns = wall_ns
        self.root.self_ns = wall_ns - self._stack[0][1]

    def totals(self):
        """{span name: [calls, self_ns]} summed over the call tree."""
        out = {}
        todo = list(self.root.children.values())
        while todo:
            node = todo.pop()
            acc = out.setdefault(node.name, [0, 0])
            acc[0] += node.calls
            acc[1] += node.self_ns
            todo.extend(node.children.values())
        return out


def _polygamma_spans(tracer, fn):
    by_k = {k: tracer.wrap("refcore.polygamma.k%d" % k, fn) for k in (1, 2, 3)}
    other = tracer.wrap("refcore.polygamma.other", fn)

    def polygamma(k, x):
        return by_k.get(k, other)(k, x)

    return polygamma


def install(tracer):
    """Wrap every target where its callers look it up.

    A from-import or a registry dict (``analysis._FUNCTIONS``) holds its
    own reference, so every global and every module-level dict entry of
    the package that is the original function is replaced too.  Returns
    the targets that do not exist in this version of the package.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "gamma_envelope" or name.startswith("gamma_envelope.")]
    missing = []
    for span, modname, path in TARGETS:
        owner = importlib.import_module("gamma_envelope." + modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(span)
            continue
        fn = original
        if span in KERNELS:
            fn = tracer.record_args(span, original)
        if span == "refcore.polygamma":
            wrapped = _polygamma_spans(tracer, fn)
        else:
            wrapped = tracer.wrap(span, fn)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
    return missing


def run_cli_pass(argvs):
    from gamma_envelope import cli

    outputs = []
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except Exception as exc:  # a crash fails the command's rows
            rc = "crash: %s: %s" % (type(exc).__name__, exc)
        outputs.append([rc, buf.getvalue()])
    return outputs


def run_query_pass(queries):
    results = querystream.run_stream(querystream.build_calls(queries))
    return {str(i): r for i, r in querystream.failures(queries, results).items()}


def max_rel_err(kernel_args):
    """Largest kernel relative error on an evenly spaced sample of the
    recorded calls, with the number checked and the tolerance misses."""
    worst, checked, misses = 0.0, 0, 0
    for span, calls in sorted(kernel_args.items()):
        name = span.split(".")[1]
        step = max(1, len(calls) // KERNEL_SAMPLE)
        for args, value in calls[::step]:
            k, x = args if name == "polygamma" else (None, args[0])
            ok, rel = check_kernel_value(
                value, kernel_reference(name, k, float(x)))
            worst = max(worst, rel)
            checked += 1
            misses += not ok
    return worst, checked, misses


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)

    import gamma_envelope.cli  # noqa: F401  (loads every module)

    if "argvs" in plan:
        def run():
            return run_cli_pass(plan["argvs"])
    else:
        def run():
            return run_query_pass(plan["queries"])

    t0 = time.perf_counter()
    untraced = run()
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    missing = install(tracer)
    t0 = time.perf_counter()
    traced = run()
    traced_s = time.perf_counter() - t0
    tracer.close(int(traced_s * 1e9))

    worst, checked, misses = max_rel_err(tracer.kernel_args)
    with open(args.out, "w") as fh:
        json.dump({
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "untraced": untraced,
            "traced": traced,
            "missing_targets": missing,
            "totals": tracer.totals(),
            "tree": tracer.root.to_json(),
            "kernel_max_rel_err": worst,
            "kernel_checked": checked,
            "kernel_misses": misses,
        }, fh)


if __name__ == "__main__":
    main()

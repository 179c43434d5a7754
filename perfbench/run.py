"""Layered benchmark of the gamma-envelope verification toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload audit-dense --seed 1 --seconds 25 --trace 0

Workloads: audit-dense, lambda-search, release-suite (CLI subprocesses, run
one at a time with PYTHONPATH=src) and point-queries (a seeded stream of
public-API calls in one child process).  With ``--trace 0`` the run repeats
the workload for about ``--seconds``, timed from outside and scaled to a
reference machine speed (speedprobe.py), and reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer metrics from one traced
and one untraced in-process pass.  Every output is checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report with the run
metadata goes to ``.perfbench-out/``.  ``--smoke`` shrinks every workload
for the benchmark's own tests.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speedprobe
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9  # fresh interpreters per run for setup_s
TRACE_SETUP_PROBES = 3  # and per traced run, for setup and import shares
CHILD_TIMEOUT = 120.0  # seconds for one child process
BENCH_KERNELS_N = 20000
LAYERS = ("refcore", "proofaudit", "polycert", "analysis", "bounds", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "call_us.p50": "us",
    "call_us.p99": "us",
}


# Span names by the per-layer metrics they get: calls, self time and ns
# per call; calls and self time; self time only.
PER_CALL_SPANS = (
    "refcore.ln_gamma", "refcore.digamma", "refcore.polygamma.k1",
    "refcore.polygamma.k2", "refcore.polygamma.k3", "bounds.evaluate_family",
)
COUNTED_SPANS = (
    "proofaudit.proof_function", "proofaudit.lemma_expr",
    "proofaudit.ratio_R", "proofaudit.audit_proof",
    "polycert.Polynomial.__call__", "analysis.lambda_ratio",
    "bounds.polygamma_bounds",
)
TIMED_SPANS = (
    "polycert.certify_lemma_polynomials", "analysis.search_lambda_thresholds",
    "analysis.check_monotone", "analysis.cm_probe", "analysis.remark_claims",
    "cli.main",
)
BENCH_KERNELS = ("ln_gamma", "digamma", "polygamma")


def per_layer_units():
    units = {}
    for span in PER_CALL_SPANS:
        units[span + ".ns_per_call"] = "ns"
    for span in PER_CALL_SPANS + COUNTED_SPANS:
        units[span + ".calls"] = "count"
    for span in PER_CALL_SPANS + COUNTED_SPANS + TIMED_SPANS:
        units[span + ".self_s"] = "s"
    units["refcore.max_rel_err"] = "ratio"
    units["setup.import.numpy_s"] = "s"
    units["setup.import.gamma_envelope_s"] = "s"
    for layer in LAYERS + ("setup", "unattributed"):
        units["share." + layer] = "ratio"
    units["trace.overhead"] = "ratio"
    for fn in BENCH_KERNELS:
        units["layer0.%s.python_ns" % fn] = "ns"
    return units


# ---------------------------------------------------------------------------
# child processes


TICK_S = 0.05  # period of speed ticks while a child runs

# One busy thread per child: the toolkit makes no BLAS calls, but numpy's
# BLAS starts a thread pool at import that would otherwise compete with
# the main thread, which makes wall and CPU time depend on what else the
# machine is running.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_to_one_cpu():
    """Run this process and its children on one vCPU, so that speed
    probes measure the vCPU the measured code runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Child:
    """One finished child process, measured from outside."""

    def __init__(self, wall_s, cpu_s, rss_mb, rc, stdout, stderr, ticks):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.rc = rc  # exit code, or "timeout" / "signal N"
        self.stdout = stdout
        self.stderr = stderr
        # speed-probe ticks taken while it ran and right after it ended
        self.ticks = ticks

    @property
    def scale(self):
        return speedprobe.scale(self.ticks)


class Runner:
    """Starts children one at a time in the checkout, with PYTHONPATH=src."""

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        path = str(ROOT / "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path, **SINGLE_THREAD_ENV)

    def run(self, args, ticks=False, timeout=CHILD_TIMEOUT):
        """Run ``python args...`` to completion.

        Wall time comes from the clock around it, CPU time and peak RSS
        from wait4's rusage.  With ``ticks`` the speed probe ticks every
        TICK_S while the child runs (the benchmark and its children share
        one vCPU, so a tick briefly pauses the child) and once after it.
        """
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        samples = []
        timed_out = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + list(args), cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            fd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                wait_ms = int((TICK_S if ticks else timeout) * 1000)
                while not poller.poll(wait_ms):
                    if time.perf_counter() - t0 > timeout:
                        proc.kill()
                        timed_out = True
                    elif ticks:
                        samples.append(speedprobe.tick())
            finally:
                os.close(fd)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        if ticks:
            samples.append(speedprobe.tick())
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out:
            rc = "timeout"
        elif proc.returncode < 0:
            rc = "signal %d" % -proc.returncode
        else:
            rc = proc.returncode
        return Child(wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, rc,
                     out_path.read_text(), err_path.read_text(), samples)

    def run_cli(self, argv):
        return self.run(["-m", "gamma_envelope.cli"] + argv, ticks=True)

    def setup_times(self, n):
        """(raw, scaled) wall times of ``n`` fresh interpreters importing
        the CLI, after one untimed warm-up that fills the bytecode and
        file caches."""
        probe = ["-c", "import gamma_envelope.cli"]
        self._require_ok(self.run(probe), "import probe")
        raw, scaled = [], []
        for _ in range(n):
            child = self.run(probe, ticks=True)
            self._require_ok(child, "import probe")
            raw.append(child.wall_s)
            scaled.append(child.wall_s * child.scale)
        return raw, scaled

    def import_times(self, n):
        """Median numpy and own-package import times from -X importtime."""
        numpy_s, own_s = [], []
        for _ in range(n):
            child = self.run(["-X", "importtime", "-c",
                              "import gamma_envelope.cli"])
            self._require_ok(child, "importtime probe")
            a, b = parse_importtime(child.stderr)
            numpy_s.append(a)
            own_s.append(b)
        return statistics.median(numpy_s), statistics.median(own_s)

    def metadata(self):
        child = self.run(["-c", META_SNIPPET])
        self._require_ok(child, "metadata probe")
        meta = json.loads(child.stdout)
        meta["nproc"] = os.cpu_count()
        meta["child_env"] = SINGLE_THREAD_ENV
        meta["git_commit"] = git_commit()
        meta["source_sha256"] = source_digest()
        return meta

    @staticmethod
    def _require_ok(child, what):
        if child.rc != 0:
            raise RuntimeError("%s failed (%s): %s"
                               % (what, child.rc, child.stderr[-2000:]))


META_SNIPPET = """\
import json, platform, numpy, gamma_envelope
from gamma_envelope import refcore
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__,
                  "gamma_envelope": gamma_envelope.__version__,
                  "backend": refcore.backend(),
                  "machine": platform.machine()}))
"""


def parse_importtime(stderr):
    """(numpy cumulative s, own-package cumulative s without numpy).

    Top-level entries of the package are the ones with no indentation;
    numpy is imported beneath them, so its time is taken out.
    """
    numpy_us, own_us = 0, 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(1)), m.group(2), m.group(3)
        if name == "numpy":
            numpy_us = cumulative
        elif not indent and name.split(".")[0] == "gamma_envelope":
            own_us += cumulative
    return numpy_us / 1e6, max(own_us - numpy_us, 0) / 1e6


def git_commit():
    """HEAD of the checkout when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def source_digest():
    """sha256 over the package sources, to tell builds apart without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# helpers


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile q (0 < q <= 1) of an ascending list."""
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(q * n) - 1)]


class Tally:
    """Operations attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failed_names = {}
        self.notes = []

    def add(self, n, failed_names=(), consistent=True, note=""):
        self.attempted += n
        self.failed += len(failed_names)
        for name in failed_names:
            self.failed_names[name] = self.failed_names.get(name, 0) + 1
        if not consistent:
            self.correct = False
        if note and note not in self.notes:
            self.notes.append(note)


# ---------------------------------------------------------------------------
# timed runs (--trace 0)


def timed_cli(runner, argvs, seconds, tally):
    """Repeat the commands, one process at a time, while the next
    repetition is expected to end within ``seconds`` (at least once)."""
    reps = []
    peak = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = [runner.run_cli(argv) for argv in argvs]
        took = time.perf_counter() - t0
        peak = max([peak] + [c.rss_mb for c in rep])
        for argv, child in zip(argvs, rep):
            out = wl.check_cli_output(argv, child.stdout, child.rc)
            note = out.note and "%s: %s" % (" ".join(argv), out.note)
            tally.add(out.rows, out.failed, out.consistent, note)
        walls = sorted(c.wall_s * c.scale for c in rep)
        reps.append({
            "raw_wall_s": sum(c.wall_s for c in rep),
            "raw_cpu_s": sum(c.cpu_s for c in rep),
            "wall_s": sum(walls),
            "cpu_s": sum(c.cpu_s * c.scale for c in rep),
            "calls": len(rep),
            "p50_s": nearest_rank(walls, 0.5),
            "p99_s": nearest_rank(walls, 0.99),
        })
        if time.perf_counter() - start + took > seconds:
            break
    return reps, peak, {}


def query_name(query):
    kind, param, _ = query
    return kind if param is None else "%s:%s" % (kind, param)


def timed_queries(runner, queries, seconds, tally):
    qfile = runner.workdir / "queries.json"
    rfile = runner.workdir / "results.json"
    qfile.write_text(json.dumps(queries))
    child = runner.run([str(ROOT / "perfbench" / "querystream.py"),
                        "--queries", str(qfile), "--out", str(rfile),
                        "--seconds", repr(seconds)])
    if child.rc != 0:
        raise RuntimeError("query stream failed (%s): %s"
                           % (child.rc, child.stderr[-2000:]))
    data = json.loads(rfile.read_text())
    # the mpmath subsample is checked once; results repeat every repetition
    bad, unresolved, worst = {}, 0, 0.0
    for key, encoded in data["sample"].items():
        status, rel = wl.check_sampled_query(queries[int(key)], encoded)
        if status == "violated":
            bad[key] = "outside the mpmath reference"
        unresolved += status == "unresolved"
        worst = max(worst, rel or 0.0)
    reps = []
    for rep in data["reps"]:
        failed = dict(rep["failed"], **bad)
        tally.add(rep["calls"], [query_name(queries[int(i)]) for i in failed])
        for i, reason in failed.items():
            if len(tally.notes) < 20:
                tally.add(0, note="query %s %r: %s"
                          % (i, queries[int(i)], reason))
        reps.append(dict(rep, p50_s=rep["p50_ns"] / 1e9,
                         p99_s=rep["p99_ns"] / 1e9))
    info = {
        "mpmath_checked": len(data["sample"]),
        "mpmath_unresolved": unresolved,
        "max_rel_err": worst,
    }
    return reps, child.rss_mb, info


def end_to_end(setup_s, reps, peak_rss_mb):
    med = statistics.median
    return {
        "setup_s": setup_s,
        "wall_s": med(r["wall_s"] for r in reps),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "queries_per_s": med(r["calls"] / r["wall_s"] for r in reps),
        "call_us.p50": med(r["p50_s"] for r in reps) * 1e6,
        "call_us.p99": med(r["p99_s"] for r in reps) * 1e6,
    }


# ---------------------------------------------------------------------------
# traced runs (--trace 1)


def bench_kernels(runner, tally):
    """Per-call ns of the kernel backends from benchmarks/bench_kernels.py
    (layer 0): {function: {"python": ns, "compiled": ns or None}}."""
    script = ROOT / "benchmarks" / "bench_kernels.py"
    if not script.is_file():
        tally.add(0, note="benchmarks/bench_kernels.py not present")
        return {}
    child = runner.run([str(script), "--n", str(BENCH_KERNELS_N)])
    found = {}
    for line in child.stdout.splitlines():
        m = re.match(r"(ln_gamma|digamma|polygamma)\s+([\d.]+)\s+(\S+)", line)
        if m:
            compiled = m.group(3)
            found[m.group(1)] = {
                "python": float(m.group(2)) / BENCH_KERNELS_N * 1e9,
                "compiled": (None if compiled == "n/a" else
                             float(compiled) / BENCH_KERNELS_N * 1e9),
            }
    if child.rc != 0 or len(found) != 3:
        tally.add(0, consistent=False,
                  note="bench_kernels.py failed (%s): %s"
                  % (child.rc, child.stderr[-500:]))
    return found


def traced(runner, plan, tally):
    pfile = runner.workdir / "plan.json"
    rfile = runner.workdir / "traced.json"
    pfile.write_text(json.dumps(plan))
    child = runner.run([str(ROOT / "perfbench" / "traced.py"),
                        "--plan", str(pfile), "--out", str(rfile)])
    if child.rc != 0:
        raise RuntimeError("traced run failed (%s): %s"
                           % (child.rc, child.stderr[-2000:]))
    data = json.loads(rfile.read_text())
    if "argvs" in plan:
        if data["untraced"] != data["traced"]:
            tally.add(0, consistent=False,
                      note="tracing changed a report or an exit code")
        for argv, (rc, text) in zip(plan["argvs"], data["traced"]):
            out = wl.check_cli_output(argv, text, rc)
            note = out.note and "%s: %s" % (" ".join(argv), out.note)
            tally.add(out.rows, out.failed, out.consistent, note)
    else:
        queries = plan["queries"]
        failed = data["traced"]
        if failed != data["untraced"]:
            tally.add(0, consistent=False,
                      note="tracing changed a query result")
        tally.add(len(queries), [query_name(queries[int(i)]) for i in failed])
    for span in data["missing_targets"]:
        tally.add(0, note="no function to trace for %s" % span)
    return data


def per_layer(data, setup_s, processes, imports, kernels):
    totals = data["totals"]

    def calls(span):
        return totals.get(span, [0, 0])[0]

    def self_s(span):
        return totals.get(span, [0, 0])[1] / 1e9

    m = {}
    for span in PER_CALL_SPANS:
        n = calls(span)
        m[span + ".ns_per_call"] = self_s(span) * 1e9 / n if n else 0.0
    for span in PER_CALL_SPANS + COUNTED_SPANS:
        m[span + ".calls"] = calls(span)
    for span in PER_CALL_SPANS + COUNTED_SPANS + TIMED_SPANS:
        m[span + ".self_s"] = self_s(span)
    m["refcore.max_rel_err"] = data["kernel_max_rel_err"]
    m["setup.import.numpy_s"], m["setup.import.gamma_envelope_s"] = imports

    # Shares of the workload as a user runs it: every process starts an
    # interpreter and imports the package, then does the traced work.
    startup = processes * setup_s
    total = data["traced_s"] + startup
    for layer in LAYERS:
        layer_ns = sum(v[1] for k, v in totals.items()
                       if k.split(".")[0] == layer)
        m["share." + layer] = layer_ns / 1e9 / total
    m["share.setup"] = startup / total
    m["share.unattributed"] = data["tree"]["self_ns"] / 1e9 / total
    m["trace.overhead"] = data["traced_s"] / data["untraced_s"]
    for fn in BENCH_KERNELS:
        m["layer0.%s.python_ns" % fn] = kernels.get(fn, {}).get("python", 0.0)
    return m


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def declared_units(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def measure(args, runner, tally):
    """(metrics, info) of one run."""
    cli_workloads = wl.SMOKE_CLI_WORKLOADS if args.smoke else wl.CLI_WORKLOADS
    argvs = cli_workloads.get(args.workload)
    queries = None
    if argvs is None:
        queries = wl.generate_queries(args.seed, smoke=args.smoke)
    info = {"metadata": runner.metadata()}
    if args.trace:
        # shares compare raw times of one run, so nothing is scaled here
        setup, _ = runner.setup_times(1 if args.smoke else TRACE_SETUP_PROBES)
        imports = runner.import_times(1 if args.smoke else 3)
        kernels = bench_kernels(runner, tally)
        plan = {"argvs": argvs} if argvs else {"queries": queries}
        data = traced(runner, plan, tally)
        processes = len(argvs) if argvs else 1
        metrics = per_layer(data, statistics.median(setup), processes,
                            imports, kernels)
        info.update({
            "spans": data["tree"],
            "untraced_s": data["untraced_s"],
            "traced_s": data["traced_s"],
            "kernel_checked": data["kernel_checked"],
            "kernel_misses": data["kernel_misses"],
            "bench_kernels": kernels,
        })
        return metrics, info
    raw_setup, setup = runner.setup_times(1 if args.smoke else SETUP_PROBES)
    if argvs:
        reps, peak, extra = timed_cli(runner, argvs, args.seconds, tally)
    else:
        reps, peak, extra = timed_queries(runner, queries, args.seconds, tally)
    info.update(extra)
    info.update({
        "repetitions": len(reps),
        "repetitions_raw_wall_s": [r["raw_wall_s"] for r in reps],
        "repetitions_wall_s": [r["wall_s"] for r in reps],
        "repetitions_raw_cpu_s": [r["raw_cpu_s"] for r in reps],
        "calls_per_repetition": reps[0]["calls"],
        "setup_probes": len(setup),
        "raw_setup_s": statistics.median(raw_setup),
    })
    return end_to_end(statistics.median(setup), reps, peak), info


def report(args, metrics, units, info, tally):
    """Print the human-readable lines and the final JSON line; keep a copy
    with the metadata in .perfbench-out/."""
    print("workload %s  seed %d  seconds %g  trace %d%s"
          % (args.workload, args.seed, args.seconds, args.trace,
             "  (smoke)" if args.smoke else ""))
    print("metadata " + json.dumps(info["metadata"], sort_keys=True))
    if not args.trace:
        print("samples: %d repetitions x %d calls; setup_s over %d fresh "
              "interpreters; timings are medians over repetitions, scaled "
              "to the reference machine speed" % (
                  info["repetitions"], info["calls_per_repetition"],
                  info["setup_probes"]))
        print("raw (unscaled): wall_s %.6g s, cpu_s %.6g s, setup_s %.6g s" % (
            statistics.median(info["repetitions_raw_wall_s"]),
            statistics.median(info["repetitions_raw_cpu_s"]),
            info["raw_setup_s"]))
    for name in sorted(metrics):
        print("  %-44s %.6g %s" % (name, metrics[name], units[name]))
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print("error_rate %.6g (%d failed / %d attempted)"
          % (rate, tally.failed, tally.attempted))
    for name, count in sorted(tally.failed_names.items()):
        print("  failed: %s x%d" % (name, count))
    if "max_rel_err" in info:
        print("max_rel_err %.3g over %d mpmath-checked queries "
              "(%d containment checks unresolved at double resolution)"
              % (info["max_rel_err"], info["mpmath_checked"],
                 info["mpmath_unresolved"]))
    if args.trace:
        print("trace overhead %.3f (traced %.3f s / untraced %.3f s); "
              "%d kernel values checked, %d outside tolerance"
              % (metrics["trace.overhead"], info["traced_s"],
                 info["untraced_s"], info["kernel_checked"],
                 info["kernel_misses"]))
        for fn, ns in sorted(info["bench_kernels"].items()):
            print("bench_kernels %s: python %.0f ns, compiled %s" % (
                fn, ns["python"],
                "n/a" if ns["compiled"] is None else "%.0f ns" % ns["compiled"]))
    for note in tally.notes:
        print("note: " + note)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in sorted(metrics)},
    }
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (out_dir / name).write_text(json.dumps(
        dict(result, info=info, error_notes=tally.notes,
             failed_names=tally.failed_names), indent=1, sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gamma_envelope" / "cli.py").is_file():
        print("error: no gamma_envelope sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    cpu = pin_to_one_cpu()
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        metrics, info = measure(args, Runner(workdir), tally)
        info["metadata"].update(workload=args.workload, seed=args.seed,
                                seconds=args.seconds, smoke=args.smoke,
                                pinned_cpu=cpu)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    computed = (per_layer_units() if args.trace else END_TO_END_UNITS)
    if computed != units or set(metrics) != set(units):
        print("error: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 3
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print("error: non-finite metrics %s" % bad, file=sys.stderr)
        return 3
    report(args, metrics, units, info, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())

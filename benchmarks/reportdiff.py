"""Fingerprints of a fixed list of CLI reports, for a byte check of one
source tree against another.

Run:  python benchmarks/reportdiff.py SRC

Runs every command of :data:`RUNS` as ``python -m gamma_envelope.cli``
in a fresh process, with the directory SRC (the one holding
``gamma_envelope``) as the only PYTHONPATH entry, and prints one line
per run: the sha256 of its stdout, the sha256 of its stderr, its exit
code and its arguments.  One more fresh process, :data:`KERNELS`, hashes
the doubles that every scalar kernel, array twin and bound family
returns, and the errors they raise, at fixed seeded points, and prints
one line per function in the same form, its name after ``kernels``.
Two trees report the same bytes and the same doubles when the outputs
for their ``src`` directories are equal, e.g.

    python benchmarks/reportdiff.py ../parent/src > before.txt
    python benchmarks/reportdiff.py src > after.txt
    diff before.txt after.txt

Only the standard library is needed here; the kernel run imports the
package, and so numpy, in its own process.
"""

import hashlib
import os
import subprocess
import sys

# The default report of every sub-command, the dense runs, the ratio
# probes up to 1e300 and the proof functions: each in CSV and JSON
COMMANDS = [
    "bounds --x 0.5",
    "compare",
    "audit",
    "lemma2",
    "monotone",
    "conjecture cm",
    "conjecture ratio-global",
    "conjecture tau",
    "openproblem-lambda",
    "polygamma-check",
    "audit --grid 100000",
    "polygamma-check --grid 200000",
    "monotone --function q1 --direction decreasing",
    "conjecture tau --interval 1 1e300",
    "monotone --function q --direction decreasing",
    "monotone --function f_over_g_prime",
    "openproblem-lambda --grid 20000",
    # every step a tie: exit 1 with 9998 violations
    "monotone --function h_cm --interval 1 1e300 --direction decreasing",
]

RUNS = [
    "%s --format %s" % (command, fmt)
    for command in COMMANDS for fmt in ("csv", "json")
] + ["audit --format markdown"]


# The kernel run: prints "<sha256> <name>" per function, over the bytes
# of each double returned (the twins' on the points where the scalar
# returns, then once on every point) and the type and message of each
# error raised.  Points, seeded: log-uniform on (1e-300, 1e300), uniform
# on [0, 20], and each double within 4 ulps of 0.5, 1, 1.5, 2, 2.5 and 15.
KERNELS = r"""
import hashlib, math, random, struct
import numpy as np
from gamma_envelope import bounds, refcore

rng = random.Random(20261020)
xs = ([10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3000)]
      + [rng.uniform(0.0, 20.0) for _ in range(3000)])
for c in (0.5, 1.0, 1.5, 2.0, 2.5, 15.0):
    lo = c
    for _ in range(4):
        lo = math.nextafter(lo, 0.0)
    xs.append(lo)
    for _ in range(8):
        xs.append(math.nextafter(xs[-1], math.inf))


def word(value):
    if isinstance(value, BaseException):
        return ("!%s %s;" % (type(value).__name__, value)).encode()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, np.ndarray):
        return value.astype("<f8").tobytes()
    return repr(value).encode()


def call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def bound_pair(fid, x):
    bp = bounds.evaluate_family(fid, x)
    return (bp.log_lower, bp.log_upper, bp.argument_convention, bp.family,
            bp.x, bp.is_equality_point, bp.one_sided, bp.warning)


def show(name, values):
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, tuple):
            for part in v:
                h.update(word(part))
        else:
            h.update(word(v))
    print(h.hexdigest(), name)


kernels = [("ln_gamma", refcore.ln_gamma, refcore.ln_gamma_array),
           ("ln_gamma1p", refcore.ln_gamma1p, refcore.ln_gamma1p_array),
           ("digamma", refcore.digamma, refcore.digamma_array)]
kernels += [("polygamma%d" % k, lambda x, k=k: refcore.polygamma(k, x),
             lambda x, k=k: refcore.polygamma_array(k, x)) for k in (1, 2, 3)]
for name, scalar, twin in kernels:
    values = [call(scalar, x) for x in xs]
    show(name, values)
    ok = [x for x, v in zip(xs, values) if isinstance(v, float)]
    show(name + "_array", [call(twin, np.array(ok)),
                           call(twin, np.array(xs))])
for fid in bounds.FAMILIES:
    show("evaluate_family:" + fid, [call(bound_pair, fid, x) for x in xs])
"""


def _run(src, args):
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True,
    )


def fingerprint(src, run):
    """``stdout-sha256 stderr-sha256 exit-code arguments`` of one run."""
    proc = _run(src, ["-m", "gamma_envelope.cli", *run.split()])
    return "%s %s %d %s" % (hashlib.sha256(proc.stdout).hexdigest(),
                            hashlib.sha256(proc.stderr).hexdigest(),
                            proc.returncode, run)


def kernel_fingerprints(src):
    """``value-sha256 stderr-sha256 exit-code kernels name`` per function
    of the kernel run."""
    proc = _run(src, ["-c", KERNELS])
    err = hashlib.sha256(proc.stderr).hexdigest()
    lines = proc.stdout.decode().splitlines()
    return ["%s %s %d kernels %s" % (digest, err, proc.returncode, name)
            for digest, name in map(str.split, lines)]


def main(args):
    if len(args) != 1:
        print("usage: python benchmarks/reportdiff.py SRC", file=sys.stderr)
        return 2
    for run in RUNS:
        print(fingerprint(args[0], run), flush=True)
    print("\n".join(kernel_fingerprints(args[0])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

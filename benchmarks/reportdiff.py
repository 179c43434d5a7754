"""Fingerprints of a fixed list of CLI reports, for a byte check of one
source tree against another.

Run:  python benchmarks/reportdiff.py SRC

Runs every command of :data:`RUNS` as ``python -m gamma_envelope.cli``
in a fresh process, with the directory SRC (the one holding
``gamma_envelope``) as the only PYTHONPATH entry, and prints one line
per run: the sha256 of its stdout, the sha256 of its stderr, its exit
code and its arguments.  Two trees report the same bytes when the
outputs for their ``src`` directories are equal, e.g.

    python benchmarks/reportdiff.py ../parent/src > before.txt
    python benchmarks/reportdiff.py src > after.txt
    diff before.txt after.txt

Only the standard library is needed.
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


def fingerprint(src, run):
    """``stdout-sha256 stderr-sha256 exit-code arguments`` of one run."""
    proc = subprocess.run(
        [sys.executable, "-m", "gamma_envelope.cli", *run.split()],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True,
    )
    return "%s %s %d %s" % (hashlib.sha256(proc.stdout).hexdigest(),
                            hashlib.sha256(proc.stderr).hexdigest(),
                            proc.returncode, run)


def main(args):
    if len(args) != 1:
        print("usage: python benchmarks/reportdiff.py SRC", file=sys.stderr)
        return 2
    for run in RUNS:
        print(fingerprint(args[0], run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

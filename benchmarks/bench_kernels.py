"""Timing of the lnGamma, psi and psi^(k) kernels on one seeded argument stream.

Run:  python benchmarks/bench_kernels.py [--n 200000]

Prints one line per kernel: its name, the best of three passes over the
``n`` arguments in seconds, and ``n/a``.  The ``n/a`` column is where
perfbench/run.py reads a compiled backend's time; there is none.
"""

import argparse
import random
import time

from gamma_envelope import refcore


def _time(fn, args_list):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200000,
                    help="evaluations per function")
    args = ap.parse_args()

    rng = random.Random(20240811)
    xs = [(rng.uniform(1e-3, 1e4),) for _ in range(args.n)]
    kxs = [(rng.choice((1, 2, 3)), x) for (x,) in xs]

    print("%-10s %12s %12s" % ("function", "time [s]", "compiled [s]"))
    for name, payload in [
        ("ln_gamma", xs),
        ("digamma", xs),
        ("polygamma", kxs),
    ]:
        seconds = _time(getattr(refcore, name), payload)
        print("%-10s %12.4f %12s" % (name, seconds, "n/a"))


if __name__ == "__main__":
    main()

"""Timing of the lnGamma, psi and psi^(k) kernels on one seeded argument stream.

Run:  python benchmarks/bench_kernels.py [--n 200000]

Prints one line per kernel: its name, the best of three passes over the
``n`` arguments in seconds, and ``n/a``.  The ``n/a`` column is where
perfbench/run.py reads a compiled backend's time; there is none.

The first three rows draw x uniformly from [1e-3, 1e4], so almost every
argument lies past 2.5, where the kernels shift and sum their Stirling
series.  Three more rows, ``band:ln_gamma``, ``band:digamma`` and
``band:polygamma``, time the same kernels on n arguments drawn uniformly
from (1, 2), where each sums its economized Taylor series about 2 (the
audit's range).  They come from a second seeded stream, so the first three
rows' arguments are as before.  The last three rows, ``array:ln_gamma``,
``array:digamma`` and ``array:polygamma``, time one call of each array
twin on the first three rows' n arguments as one array (the twin of
polygamma once for each k = 1..3), best of three.  Neither the ``band:``
nor the ``array:`` names start with a kernel's, so perfbench reads only
the first three rows.
"""

import argparse
import random
import time

import numpy as np

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
    band = random.Random(20261019)
    band_xs = [(band.uniform(1.0, 2.0),) for _ in range(args.n)]
    band_kxs = [(band.choice((1, 2, 3)), x) for (x,) in band_xs]
    wide = np.array([x for (x,) in xs])

    print("%-14s %12s %12s" % ("function", "time [s]", "compiled [s]"))
    for row, name, payload in [
        ("ln_gamma", "ln_gamma", xs),
        ("digamma", "digamma", xs),
        ("polygamma", "polygamma", kxs),
        ("band:ln_gamma", "ln_gamma", band_xs),
        ("band:digamma", "digamma", band_xs),
        ("band:polygamma", "polygamma", band_kxs),
        ("array:ln_gamma", "ln_gamma_array", [(wide,)]),
        ("array:digamma", "digamma_array", [(wide,)]),
        ("array:polygamma", "polygamma_array", [(k, wide) for k in (1, 2, 3)]),
    ]:
        seconds = _time(getattr(refcore, name), payload)
        print("%-14s %12.4f %12s" % (row, seconds, "n/a"))


if __name__ == "__main__":
    main()

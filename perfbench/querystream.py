"""Child process of the point-queries workload: time a seeded query stream.

Run:  python perfbench/querystream.py --queries Q.json --out R.json --seconds S

Reads the queries the benchmark generated, then replays the whole stream
as one repetition, again and again while the next repetition is expected
to end within S seconds (at least once).  Every call is timed on its own,
and a speed tick between chunks of calls scales the timings to the
reference speed (see speedprobe.py).  Results are checked for structural
failures outside the timed loop.  Writes per-repetition timings, the
failing query indices and the results at the mpmath subsample to R.json.
"""

import argparse
import json
import time

import speedprobe
from workloads import encode_result, structural_failure, subsample_indices

CHUNK = 4000  # calls between two speed ticks, about 30 ms


def build_calls(queries):
    """(function, args) per query, looked up on the public modules now,
    so that a tracer installed beforehand sees the calls."""
    from gamma_envelope import bounds, refcore

    calls = []
    for kind, param, x in queries:
        if kind == "family":
            calls.append((bounds.evaluate_family, (param, x)))
        elif kind == "polygamma":
            calls.append((refcore.polygamma, (param, x)))
        else:
            calls.append((getattr(refcore, kind), (x,)))
    return calls


def run_stream(calls):
    """Call each function once, in order; exceptions become results."""
    results = [None] * len(calls)
    for i, (fn, args) in enumerate(calls):
        try:
            results[i] = fn(*args)
        except Exception as exc:  # a raise is one failed query
            results[i] = exc
    return results


def _timed_calls(calls, lo, hi, durations, results):
    clock = time.perf_counter_ns
    for i in range(lo, hi):
        fn, args = calls[i]
        t0 = clock()
        try:
            r = fn(*args)
        except Exception as exc:  # a raise is one failed query
            r = exc
        durations[i] = clock() - t0
        results[i] = r


def timed_repetition(calls, durations, results):
    """Run the stream once in chunks with a speed tick between chunks.

    Returns the raw wall and CPU seconds of the calls (ticks excluded),
    the same scaled to the reference speed chunk by chunk, and the scaled
    per-call times in ascending order.
    """
    raw_wall = raw_cpu = wall = cpu = 0.0
    scaled = []
    before = speedprobe.tick()
    for lo in range(0, len(calls), CHUNK):
        hi = min(len(calls), lo + CHUNK)
        c0, t0 = time.process_time(), time.perf_counter()
        _timed_calls(calls, lo, hi, durations, results)
        t1, c1 = time.perf_counter(), time.process_time()
        after = speedprobe.tick()
        k = speedprobe.scale([before, after])
        before = after
        raw_wall += t1 - t0
        raw_cpu += c1 - c0
        wall += k * (t1 - t0)
        cpu += k * (c1 - c0)
        scaled.extend(k * d for d in durations[lo:hi])
    scaled.sort()
    return raw_wall, raw_cpu, wall, cpu, scaled


def failures(queries, results):
    """{index: reason} for the queries whose result is unusable."""
    out = {}
    for i, (q, r) in enumerate(zip(queries, results)):
        reason = structural_failure(q[0], r)
        if reason is not None:
            out[i] = reason
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--queries", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()

    with open(args.queries) as fh:
        queries = json.load(fh)
    calls = build_calls(queries)
    n = len(calls)
    durations = [0] * n
    results = [None] * n
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        raw_wall, raw_cpu, wall, cpu, scaled = timed_repetition(
            calls, durations, results)
        took = time.perf_counter() - t0
        reps.append({
            "raw_wall_s": raw_wall,
            "raw_cpu_s": raw_cpu,
            "wall_s": wall,
            "cpu_s": cpu,
            "calls": n,
            "p50_ns": scaled[(n - 1) // 2],
            "p99_ns": scaled[-(-99 * n // 100) - 1],
            "failed": failures(queries, results),
        })
        if time.perf_counter() - start + took > args.seconds:
            break
    sample = {
        i: encode_result(queries[i][0], results[i])
        for i in subsample_indices(n)
    }
    with open(args.out, "w") as fh:
        json.dump({"reps": reps, "sample": sample}, fh)


if __name__ == "__main__":
    main()

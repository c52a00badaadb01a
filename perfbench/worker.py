"""Run one workload in its own process and write its measurements.

Started by ``run.py`` from the root of a checkout.  Set-up (import,
parse, warm-up ops) is timed from ``--t0``, the parent's monotonic clock
reading just before this process was spawned.  With ``--setup-only`` the
process stops there.  Otherwise it runs the closed loop, checking each
op's output outside the timed interval.  With ``--trace 1`` the loop
gets a third of ``--seconds``; its ops are then replayed untraced and
once more with every kgr layer wrapped by the tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_loop(wl, indices, budget_s, min_ops, digests, deadline, tracer=None):
    """Run ops (cycling ``wl.ops`` from ``indices``) until ``budget_s`` of
    op time and ``min_ops`` ops are done and the last cycle through
    ``wl.ops`` is complete, or through ``indices`` when it is a finite
    list.  Whole cycles keep the op mix, and so the median, the same
    whatever the speed.  Past ``deadline`` (a ``time.monotonic`` reading)
    the loop stops with a failure.  Returns ``(latencies, done_indices,
    failures, timed_s)``; ``timed_s`` also covers ops that raised."""
    latencies, done, failures = [], [], []
    timed = 0.0
    for i in indices:
        if (
            budget_s is not None
            and timed >= budget_s
            and len(done) >= min_ops
            and len(done) % len(wl.ops) == 0
        ):
            break
        if time.monotonic() > deadline:
            failures.append(f"op {i}: the run's time limit was reached before the loop ended")
            break
        k = i % len(wl.ops)
        op = wl.ops[k]
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        timed += elapsed
        done.append(i)
        if error is not None:
            failures.append(f"op {i}: {type(error).__name__}: {error}")
            continue
        latencies.append(elapsed)
        try:
            digest = hashlib.sha256(wl.check(op, out)).hexdigest()
        except Exception as exc:  # includes CheckFailed
            failures.append(f"op {i}: check failed: {type(exc).__name__}: {exc}")
            continue
        if digests.setdefault(k, digest) != digest:
            failures.append(f"op {i}: output bytes differ from an earlier run of the same op")
    return latencies, done, failures, timed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import kgr

    if not os.path.abspath(kgr.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported kgr from {kgr.__file__}, not from {src}")
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"][args.workload]
    wl = WORKLOADS[args.workload](spec, args.workdir, args.seed)
    digests: dict[int, str] = {}
    warm = range(spec["warmup_ops"])
    _, _, failures, _ = run_loop(wl, warm, None, 0, digests, args.deadline)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "failures": failures}
    if args.setup_only or failures:
        return _finish(args, result)

    budget = args.seconds / 3 if args.trace else args.seconds
    min_ops = 1 if args.trace else spec.get("min_ops", 1)
    lat, done, failures, timed = run_loop(wl, itertools.count(), budget, min_ops, digests, args.deadline)
    result.update(attempted=len(done), failures=failures, latencies=lat, timed_s=timed)
    if args.trace:
        from tracer import Tracer, per_layer_metrics, span_counts

        # Baseline for the overhead ratio: the same ops again, untraced, so
        # first-pass costs fall on neither side of the ratio.
        base_lat, base_done, base_failures, _ = run_loop(wl, done, None, 0, digests, args.deadline)
        failures += base_failures
        result["attempted"] += len(base_done)
        tracer = Tracer()
        tracer.install()
        tracer.begin_op("setup")
        kgr.read_graph(os.path.join(args.workdir, "graph.tsv"))
        tracer.end_op()
        traced_lat, traced_done, traced_failures, _ = run_loop(wl, done, None, 0, digests, args.deadline, tracer)
        failures += traced_failures
        result["attempted"] += len(traced_done)
        overhead = sum(traced_lat) / sum(base_lat) if base_lat and len(traced_lat) == len(base_lat) else 0.0
        timed_spans = [s for s in tracer.spans if isinstance(s.op, int)]
        counts = span_counts(timed_spans)
        for entry in spec["heavy"]:
            if not counts.get(entry):
                failures.append(f"trace self-check: heavy {entry!r} recorded no spans (stale wrapper?)")
        for entry in spec["idle"]:
            if counts.get(entry):
                failures.append(f"trace self-check: idle {entry!r} recorded {counts[entry]} spans")
        result["per_layer"] = per_layer_metrics(tracer, max(1, len(traced_done)), overhead)
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))

    if args.workload != "sweep" and threading.active_count() != 1:
        failures.append(f"{args.workload} should run in one thread, found {threading.active_count()}")
    result["workers"] = getattr(wl, "workers", None)
    result["cycle"] = len(wl.ops)
    # Every run completes at least one whole cycle, so the digest covers
    # the same ops whatever the speed.
    result["digest"] = hashlib.sha256("".join(digests.get(k, "-") for k in range(len(wl.ops))).encode()).hexdigest()
    result["digest_ops"] = len(digests)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return _finish(args, result)


def _finish(args, result) -> int:
    with open(os.path.join(args.workdir, "setup.json" if args.setup_only else "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

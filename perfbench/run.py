"""kgr benchmark: ``python3 perfbench/run.py --workload qa|sweep|damage
--seed N --seconds S --trace 0|1``, run from the root of a checkout.

Generates the workload's inputs from ``--seed`` under
``.perfbench_work/``, sets the workload up several times in fresh
processes (median set-up time), then runs the timed closed loop in one
more process of its own and prints the metrics.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Workload parameters live in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Worker loops stop at LOOP_LIMIT_S after the run starts; a worker still
# running at KILL_LIMIT_S is killed.  Both stay under the 180 s a run may take.
LOOP_LIMIT_S = 160.0
KILL_LIMIT_S = 172.0


class WorkerFailed(Exception):
    """A worker process crashed or ran out of time."""


def _spawn(args, workdir: str, setup_only: bool, env: dict, start: float) -> dict:
    """Run one worker process and return what it wrote."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--t0", repr(time.monotonic()),
        "--deadline", repr(start + LOOP_LIMIT_S),
    ] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, env=env, timeout=start + KILL_LIMIT_S - time.monotonic(), stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{args.workload} worker killed after {KILL_LIMIT_S:.0f} s of the run") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{args.workload} worker exited with code {proc.returncode}")
    with open(os.path.join(workdir, "setup.json" if setup_only else "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rank(n: int, p: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, -(-n * p // 100))


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile that leaves at least 10 of ``n`` samples beyond it."""
    return max((p for p in range(100) if n - _rank(n, p) >= 10), default=None)


def _declared(section: str) -> dict[str, str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join("src", "kgr", "__init__.py")):
        print("error: run from the root of a kgr checkout (src/kgr is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import write_inputs

    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = config["workloads"][args.workload]
    workdir = os.path.abspath(os.path.join(".perfbench_work", f"{args.workload}-{args.seed}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    write_inputs(args.workload, spec, args.seed, workdir)

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    if args.workload != "sweep":
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
    try:
        setups = []
        if not args.trace:
            setups = [_spawn(args, workdir, True, env, start)["setup_s"] for _ in range(config["setup_repeats"] - 1)]
        res = _spawn(args, workdir, False, env, start)
    except WorkerFailed as exc:
        print(f"FAILED {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setups.append(res["setup_s"])
    failures = res["failures"]
    attempted = res.get("attempted", 0) or 1
    p = spec["tail_percentile"]
    if "cycle" in res:
        # The fewest ops a timed run can do: min_ops rounded up to whole cycles.
        fewest = -(-spec.get("min_ops", 1) // res["cycle"]) * res["cycle"]
        if tail_percentile(fewest) != p:
            failures.append(f"workloads.json tail_percentile {p} should be {tail_percentile(fewest)}")
    for line in failures[:20]:
        print(f"FAILED {line}")

    lat = sorted(res.get("latencies", ()))
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} ops ok of {attempted}, "
          f"failed_ratio {len(failures) / attempted:.4f}, tail percentile p{p} of {len(lat)} ops "
          f"({len(lat) - _rank(len(lat), p)} beyond it)")
    print(f"output digest {res.get('digest')} over one cycle of {res.get('digest_ops')} distinct ops")
    if res.get("workers") is not None:
        print(f"sweep workers {res['workers']} of {len(os.sched_getaffinity(0))} usable CPUs")

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res.get("per_layer", {}).items()}
        declared = _declared("per_layer")
    else:
        metrics = {
            "throughput_ops_s": {"value": len(lat) / res["timed_s"], "unit": "ops/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * lat[_rank(len(lat), p) - 1], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        } if lat else {}
        declared = _declared("end_to_end")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        failures.append("printed metrics differ from BENCHMARK.json")
        print(f"FAILED metrics {sorted(set(got) ^ set(declared))} or units differ from BENCHMARK.json")
    for name in ("graph.tsv", "queries.jsonl"):
        if os.path.exists(os.path.join(workdir, name)):
            os.remove(os.path.join(workdir, name))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

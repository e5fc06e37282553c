#!/usr/bin/env python3
"""Benchmark of dicke-critic: four workloads, checked outputs, per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase_boundary --seed 1 --seconds 4 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (see README.md). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload oracle_crosscheck --seed 1 --seconds 4 --repeat 10

runs seeds 1..10 and reports each end-to-end metric's median and
interquartile spread next to its bound in BENCHMARK.json.

Every workload process gets one BLAS/OpenMP thread and no
DICKE_CRITIC_THREADS. setup_s is the median over SETUP_PROBES fresh
processes and the measuring process itself. Times are reported at the
speed of the reference machine (calibrate.py, README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 2
TIMEOUT_S = 170
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("DICKE_CRITIC_THREADS", "PYTHONPATH")}
    env.update(PINNED_ENV)
    return env


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--root", str(ROOT)]
    if mode == "trace":
        cmd += ["--trace-out", str(ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.npz")]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def _tail(latencies: list[float]) -> float:
    """Highest percentile with ten operations beyond it: the 11th largest."""
    return sorted(latencies)[-11]


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run. Every time is divided by the speed factor of calibrate.py
    measured in the same process, so it reads as on the reference machine:
    an operation by the speed() runs nearest to it, set-up by the median
    speed of its own process."""
    deadline = time.monotonic() + TIMEOUT_S
    if trace:
        res = _worker(workload, seed, seconds, "trace", deadline)
        speed = res["speed"]
        values = {**res["per_layer"], "calibration.speed": speed}
        metrics = {m["name"]: {"value": values[m["name"]] / (speed if m["unit"] == "s" else 1.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        probes = [_worker(workload, seed, seconds, "probe", deadline)
                  for _ in range(SETUP_PROBES)]
        res = _worker(workload, seed, seconds, "run", deadline)
        lat = [t / v for t, v in zip(res["latencies"], res["local_speeds"])]
        values = {
            "setup_s": statistics.median(p["setup_s"] / p["speed"] for p in probes + [res]),
            "ops_per_s": (len(lat) - res["failed"]) / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": _tail(lat),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def repeat(spec: dict, workload: str, seed: int, seconds: float, runs: int) -> dict:
    """Runs seeds seed..seed+runs-1 and reports each metric's spread."""
    results = []
    for s in range(seed, seed + runs):
        r = measure(spec, workload, s, seconds, trace=False)
        print(json.dumps({"seed": s, **r}), flush=True)
        results.append(r)
    summary = {}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[m["name"]] = {"median": med, "iqr_over_median": (q3 - q1) / med,
                              "bound": m["bound"], "unit": m["unit"]}
        print(f"{workload:22s} {m['name']:12s} median {med:.6g} {m['unit']:5s} "
              f"spread {(q3 - q1) / med:.4f} bound {m['bound']}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{workload:22s} failed share {shares}, "
          f"correct {all(r['correct'] for r in results)}")
    return {"workload": workload, "spreads": summary, "failed_shares": shares}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, help="run this many seeds and report spreads")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dicke_critic" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a dicke-critic checkout (src/dicke_critic, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.repeat:
        result = repeat(spec, args.workload, args.seed, args.seconds, args.repeat)
    else:
        result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

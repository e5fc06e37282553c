"""One workload in one fresh process: set up, warm up, run whole passes, check.

Started by run.py, never by hand. Modes:

* ``probe`` -- stop at the first timed operation, report the set-up time;
* ``run``   -- untraced passes until --seconds have passed at nominal host
  speed and at least MIN_OPS operations ran;
* ``trace`` -- traced passes until --seconds have passed at nominal host
  speed, every other operation with an untraced twin; report per-layer
  metrics from the traced calls and the tracing overhead from the twins.

calibrate.speed() runs between operations. Times are printed raw, with
speed factors (one for the whole process, one per operation from the
speed() runs nearest to it); run.py applies them. Prints one
JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
from reference import CheckFailed, require

MIN_OPS = 40  # enough for a tail percentile with ten operations beyond it
PROBE_SPEEDS = 9
NEAREST_SPEEDS = 4  # on each side of an operation, for its local speed


class Runner:
    """Runs operations, checks them and counts failures."""

    def __init__(self, ops, digests: dict[int, str], speeds: list[float],
                 calibration: tuple[str, ...]):
        self.ops = ops
        self.latencies: list[float] = []
        self.speeds_before: list[int] = []  # speed() runs done before each operation
        self.failed = 0
        self.unexpected: list[str] = []
        self.output_bytes = 0
        self._digests = digests  # op index -> sha256 of its first CLI output
        self._speeds = speeds
        self._calibration = calibration
        self._since_speed = 0.0

    def run_op(self, i: int) -> None:
        op = self.ops[i]
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.latencies.append(elapsed)
        self.speeds_before.append(len(self._speeds))
        if error is None:
            try:
                op.check(result)
                if isinstance(result, str):
                    self._same_bytes(i, result)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
        if error is not None:
            self.failed += 1
            if op.known_fault is None:
                self.unexpected.append(f"{op.label}: {error}")
        self._since_speed += elapsed
        if self._since_speed >= calibrate.INTERVAL_S:
            self._speeds.append(calibrate.speed(self._calibration))
            self._since_speed = 0.0

    def run_pass(self) -> None:
        for i in range(len(self.ops)):
            self.run_op(i)

    def local_speeds(self) -> list[float]:
        """Per operation, the median of the nearest speed() runs.

        The host's speed drifts within a run, so each operation is scaled
        by the speed measured within about a second of it."""
        s, n = self._speeds, NEAREST_SPEEDS
        return [statistics.median(s[max(0, j - n):max(j + n, 2 * n)])
                for j in self.speeds_before]

    def _same_bytes(self, i: int, text: str) -> None:
        data = text.encode()
        self.output_bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        require(self._digests.setdefault(i, digest) == digest,
                "output bytes differ from an earlier run of the same operation")


def _seconds_at_nominal(start: float, speeds: list[float]) -> float:
    """Wall time since start, at the host speed of the last few speed() runs.

    Counting the run length this way keeps the number of passes, and with it
    the percentile that op_tail_s lands on, from following the host's drift.
    """
    elapsed = time.perf_counter() - start
    return elapsed / statistics.median(speeds[-20:]) if speeds else elapsed


def _import_program(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import dicke_critic

    if Path(dicke_critic.__file__).resolve().parent != src / "dicke_critic":
        raise SystemExit(f"imported dicke_critic from {dicke_critic.__file__}, not {src}")


def _trace(ops, seconds: float, speeds: list[float], calibration: tuple[str, ...],
           trace_out: str | None):
    from tracer import Tracer

    digests: dict[int, str] = {}
    plain = Runner(ops, digests, speeds, calibration)
    traced = Runner(ops, digests, speeds, calibration)
    tracer = Tracer()
    passes = 0
    start = time.perf_counter()
    while _seconds_at_nominal(start, speeds) < seconds or not passes:
        for i in range(len(ops)):
            # every other operation gets an untraced twin, run first or
            # second in turn; a traced finite_size_onset pass then stays
            # near 75 s instead of 100 s
            twin = [plain] if i % 2 == 0 else []
            for runner in (twin + [traced] if i % 4 == 0 else [traced] + twin):
                if runner is traced:
                    tracer.install()
                try:
                    runner.run_op(i)
                finally:
                    tracer.uninstall()
        passes += 1
    layers = tracer.summary(passes)
    layers["cli.output_bytes"] = traced.output_bytes / passes
    # compare the twinned operations only, so both sides ran the same ones
    twinned = [t for k, t in enumerate(traced.latencies) if k % len(ops) % 2 == 0]
    layers["tracing.overhead.ops_per_s_pct"] = 100.0 * (
        1.0 - sum(plain.latencies) / sum(twinned))
    layers["tracing.overhead.op_p50_s_pct"] = 100.0 * (
        statistics.median(twinned) / statistics.median(plain.latencies) - 1.0)
    if trace_out:
        Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_out)
    return [plain, traced], layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--root", required=True, help="checkout holding src/dicke_critic")
    ap.add_argument("--trace-out", help="where the traced run writes its spans (.npz)")
    args = ap.parse_args()

    _import_program(Path(args.root))
    workload = importlib.import_module(f"workloads.{args.workload}")
    ops, warmup = workload.build(args.seed)
    speeds: list[float] = []
    calibration = workload.CALIBRATION
    warm = Runner([warmup], {}, [], calibration)
    warm.run_pass()
    setup_s = time.monotonic() - args.t0
    # Objects alive after set-up (numpy, scipy, the package, the inputs) are
    # frozen, so a full collection during a run scans only what the run
    # allocates; otherwise 30 ms collections over the imported modules land
    # in operations or in checks by the luck of allocation counts.
    gc.freeze()
    if args.mode == "probe":
        speeds += [calibrate.speed(calibration) for _ in range(PROBE_SPEEDS)]
        runners, layers = [], {}
    elif args.mode == "run":
        runners, layers = [Runner(ops, {}, speeds, calibration)], {}
        start = time.perf_counter()
        while _seconds_at_nominal(start, speeds) < args.seconds or len(runners[0].latencies) < MIN_OPS:
            runners[0].run_pass()
    else:
        runners, layers = _trace(ops, args.seconds, speeds, calibration, args.trace_out)

    unexpected = [u for r in [warm, *runners] for u in r.unexpected]
    for line in unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "speed": statistics.median(speeds),
        "latencies": runners[0].latencies if runners else [],
        "local_speeds": runners[0].local_speeds() if runners else [],
        "attempted": sum(len(r.latencies) for r in runners),
        "failed": sum(r.failed for r in runners),
        "correct": not unexpected,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "per_layer": layers,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

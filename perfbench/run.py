"""holomaplab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports holomaplab from its ``src``.
One process, one client, closed loop: the workload's fixed task list is run
round after round, each task after the previous one returns, with the
library's default threads=1, until S seconds have passed (and at least
MIN_ROUNDS rounds).  Every timing is scaled to a fixed machine speed (see
REF_UNIT_S).  Every task's output is checked.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics; the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread, like the library's threads=1: on a machine with few cores
# an idle BLAS worker spinning beside the client measures the scheduler.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Rounds needed so that the tail (the 11th largest task latency) lies among
# the samples of the slowest task.
MIN_ROUNDS = 11
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
TRACED_MIN_ROUNDS = 3

# A processor shared with other tenants, or throttled, can change speed by up
# to 2x for seconds to minutes at a time, in CPU time as well as wall time.
# So a fixed reference unit of Python and numpy work is timed right before
# and right after every timed call, and the call's time is multiplied by
# REF_UNIT_S over the mean of the two: the time the call would take on a
# machine on which the reference unit takes REF_UNIT_S.  Raw times are
# printed beside the scaled ones.
REF_UNIT_S = 2.5e-3
_REF_MATS = np.linspace(0.1, 1.0, 128).reshape(32, 2, 2) + 0.5j

LAYER_METRICS = (
    *(f"mapkit.jacobian_batch.{b}.{m}" for b in ("n1", "small", "large")
      for m in ("calls", "points", "s")),
    "mapkit.evaluate_batch.calls", "mapkit.evaluate_batch.points", "mapkit.evaluate_batch.s",
    "mapkit.parse.calls", "mapkit.parse.s",
    "algebra.singular_values_batch.calls", "algebra.singular_values_batch.matrices",
    "algebra.singular_values_batch.s",
    "algebra.singular_values.calls", "algebra.singular_values.s",
    "algebra.invert.calls", "algebra.invert.s",
    "sampling.coordinate_ascent.calls", "sampling.coordinate_ascent.objective_calls",
    "sampling.coordinate_ascent.s",
    "sampling.shell_points.calls", "sampling.shell_points.s",
    "sampling.interior_points.calls", "sampling.interior_points.s",
    *(f"conditioning.{f}.{m}" for f in ("sup_kappa", "refined_sup")
      for m in ("calls", "s", "self_s")),
    *(f"renorm.{f}.{m}" for f in ("lambda_functional", "bz_step")
      for m in ("calls", "s", "self_s")),
    "landau.inscribed_lower_bound.calls", "landau.inscribed_lower_bound.s",
    "landau.inscribed_lower_bound.self_s", "landau.inscribed_lower_bound.shells",
    "landau.inscribed_lower_bound.shells_failed",
    "landau.solve_membership.calls", "landau.solve_membership.s",
    "landau.solve_membership.certified",
    "landau.salvage.attempts", "landau.salvage.ok_frac",
    *(f"counterexamples.{f}.{m}" for f in ("certify_no_ball", "harris_witness",
                                          "duren_rudin_witness")
      for m in ("calls", "s")),
    "cli.run.calls", "cli.run.s", "cli.run.self_s",
    "trace.overhead",
)

# last name component of a layer metric -> field aggregated from the spans
_FIELD = {"points": "work", "matrices": "work", "objective_calls": "work",
          "shells": "work", "shells_failed": "failed"}


def _unit(metric: str) -> str:
    """Layer metrics are per traced round, except the two ratios."""
    if metric == "landau.salvage.ok_frac":
        return "fraction"
    if metric == "trace.overhead":
        return "ratio"
    return "s/round" if metric.endswith((".s", ".self_s")) else "count/round"


def ref_unit_s() -> float:
    """Median of three timings of the reference unit: the machine's speed now.

    The unit starts with its numpy part, so that its Python part always
    follows the same instructions, whatever the timed call before it ran."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.svd(_REF_MATS, compute_uv=False)
            np.abs(_REF_MATS).sum()
            _REF_MATS @ _REF_MATS
        acc = 0
        for i in range(4000):
            acc = (acc * 31 + i) & 0xFFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _scaled(raw: float, ref_before: float, ref_after: float) -> float:
    return raw * REF_UNIT_S * 2.0 / (ref_before + ref_after)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, one round: for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help="import and build the inputs, then exit (times setup_s)")
    return p.parse_args(argv)


@contextlib.contextmanager
def _workdir():
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _setup_seconds(args) -> float:
    """Fresh-process import of holomaplab plus generation and parsing of the
    workload's inputs, timed from outside."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # A blocking wait ends when the child does; Popen.wait(timeout) would
    # poll and round the time up to its 50 ms sleep steps.
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


class Runner:
    """Runs the task list round by round and keeps every latency and outcome."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.latencies = defaultdict(list)  # task -> scaled seconds, timed rounds only
        self.raw_latencies = defaultdict(list)  # task -> seconds as measured
        self.raw_walls = []  # raw task time of each timed round
        self.digests = {}  # task -> digest of its first passing round
        self.oracle_err = {}  # task -> worst relative error against its oracle
        self.failures = defaultdict(list)  # task -> failure details
        self.attempted = 0
        self.incorrect = 0  # returned an output that failed its check
        self.tracer = None

    def round(self, timed: bool) -> float:
        """Runs the task list once; returns the round's scaled task time."""
        wall = raw_wall = 0.0
        ref = ref_unit_s()
        for task in self.tasks:
            if self.tracer is not None:
                self.tracer.task = task.name
            t0 = time.perf_counter()
            try:
                result = task.run()
            except Exception as exc:  # a failed task is counted, not fatal
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            else:
                error = None
            dt = time.perf_counter() - t0
            ref_after = ref_unit_s()
            scaled = _scaled(dt, ref, ref_after)
            ref = ref_after
            wall += scaled
            raw_wall += dt
            self.attempted += 1
            if timed:
                self.latencies[task.name].append(scaled)
                self.raw_latencies[task.name].append(dt)
            if error is not None:
                self.failures[task.name].append(error)
                continue
            out = task.check(result)
            if out.oracle_err is not None:
                self.oracle_err[task.name] = max(out.oracle_err,
                                                 self.oracle_err.get(task.name, 0.0))
            if not out.ok:
                problem = f"check failed: {out.detail}"
            elif self.digests.setdefault(task.name, out.digest) != out.digest:
                problem = "output differs from its first passing round"
            else:
                continue
            self.incorrect += 1
            self.failures[task.name].append(problem)
        if timed:
            self.raw_walls.append(raw_wall)
        return wall

    def rounds(self, seconds: float, min_rounds: int) -> list:
        walls = []
        deadline = time.perf_counter() + seconds
        while len(walls) < min_rounds or time.perf_counter() < deadline:
            walls.append(self.round(timed=True))
        return walls


def _tail(samples):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest sample, at percentile 100 * (n - 10) / n."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_tasks(runner):
    print(f"{'task':42s} {'median_s':>10s} {'runs':>5s}  status  sha256")
    for task in runner.tasks:
        lat = runner.latencies[task.name]
        fails = runner.failures.get(task.name, [])
        status = "FAIL" if fails else "ok"
        med = statistics.median(lat) if lat else float("nan")
        digest = (runner.digests.get(task.name) or "-")[:16]
        print(f"{task.name:42s} {med:10.5f} {len(lat):5d}  {status:6s}  {digest}")
        if fails:
            print(f"    {len(fails)} failed: {fails[-1]}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "holomaplab" / "__init__.py").is_file():
        print(f"error: no holomaplab sources under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        import workloads

        with _workdir() as wd:
            workloads.build(args.workload, args.seed, args.tiny, ROOT, wd)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.tiny:
        warmups, min_rounds, traced_min, probes = 0, 1, 1, 1
    else:
        warmups, min_rounds, traced_min, probes = 1, MIN_ROUNDS, TRACED_MIN_ROUNDS, SETUP_PROBES
    setup, raw_setup = [], []
    for _ in range(0 if args.trace else probes):
        before = ref_unit_s()
        raw_setup.append(_setup_seconds(args))
        setup.append(_scaled(raw_setup[-1], before, ref_unit_s()))

    with _workdir() as wd:
        runner = Runner(workloads.build(args.workload, args.seed, args.tiny, ROOT, wd))
        for _ in range(warmups):  # lazy imports and first-call costs
            runner.round(timed=False)
        if args.trace:
            import tracing

            # Untraced and traced rounds alternate, so that both meet the
            # same machine noise and their ratio is the tracing overhead.
            tracer = tracing.Tracer()
            walls, traced_walls = [], []
            deadline = time.perf_counter() + args.seconds
            while len(traced_walls) < traced_min or time.perf_counter() < deadline:
                walls.append(runner.round(timed=True))
                tracer.install()
                runner.tracer = tracer
                try:
                    traced_walls.append(runner.round(timed=True))
                finally:
                    tracer.uninstall()
                    runner.tracer = None
        else:
            walls = runner.rounds(args.seconds, min_rounds)

    failed = sum(len(f) for f in runner.failures.values())
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, threads=1, "
          f"{len(runner.tasks)} tasks per round, {len(walls)} timed rounds after {warmups} warm-up")
    _print_tasks(runner)
    print(f"failed_frac = {failed}/{runner.attempted} = {failed / runner.attempted:.4g}")
    for task in runner.tasks:
        if task.known_failure and task.name in runner.failures:
            print(f"known failure: {task.name}: {task.known_failure}; "
                  f"{len(runner.failures[task.name])} runs failed")
    if runner.oracle_err:
        worst = max(runner.oracle_err, key=runner.oracle_err.get)
        print(f"oracle_err.max = {runner.oracle_err[worst]:.6g} ({worst}; "
              f"{len(runner.oracle_err)} tasks with an analytic oracle)")
    print("digests " + json.dumps(runner.digests, sort_keys=True))

    if args.trace:
        spans = tracer.spans
        OUT.mkdir(parents=True, exist_ok=True)
        span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(span_path)
        agg = tracing.layer_metrics(spans, len(traced_walls))
        attempts = agg.get("landau.salvage.attempts", 0.0)
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics = {}
        for name in LAYER_METRICS:
            if name == "trace.overhead":
                value = overhead
            elif name == "landau.salvage.ok_frac":
                value = agg.get("landau.salvage.ok", 0.0) / attempts if attempts else 0.0
            else:
                layer, last = name.rsplit(".", 1)
                value = agg.get(f"{layer}.{_FIELD.get(last, last)}", 0.0)
            metrics[name] = _metric(value, _unit(name))
        print(f"bindings patched: {json.dumps(tracer.bindings, sort_keys=True)}")
        print(f"{len(spans)} spans over {len(traced_walls)} traced rounds -> {span_path}")
        print(f"trace.overhead = traced wall_s {statistics.median(traced_walls):.4f} / "
              f"untraced wall_s {statistics.median(walls):.4f} - 1 = {overhead:.4f}")
    else:
        samples = [t for lat in runner.latencies.values() for t in lat]
        raw = [t for lat in runner.raw_latencies.values() for t in lat]
        p50 = statistics.median(samples)
        tail, pct = _tail(samples)
        print(f"timings scaled to a reference unit of {REF_UNIT_S * 1e3:g} ms; "
              "raw: as measured")
        print("round wall_s: " + " ".join(f"{w:.4f}" for w in walls))
        print("round wall_s raw: " + " ".join(f"{w:.4f}" for w in runner.raw_walls))
        print(f"task_s: {len(samples)} samples, p50 = {p50:.6f}, "
              f"tail = p{pct:.1f} = {tail:.6f}; raw p50 = {statistics.median(raw):.6f}, "
              f"raw tail = {_tail(raw)[0]:.6f}")
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}; "
              f"raw: {', '.join(f'{s:.4f}' for s in raw_setup)}")
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "task_s.p50": _metric(p50, "s"),
            "task_s.tail": _metric(tail, "s"),
            "ok_frac": _metric(1.0 - failed / runner.attempted, "fraction"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

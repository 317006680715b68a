"""Benchmark of the pianocat verifier: three fixed workloads, checked outputs.

    python3 perfbench/run.py --workload path-iso-n4 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it measures the library under ``src/``
as it is there.  Every unit of measured work runs in a fresh worker process
(``worker.py``), one at a time: one caller, closed loop, single-threaded,
and caches and peak memory start cold.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``verify-n3``: ``piano-cat verify all --n 3 --window 4 --word-cap 8``
  in-process, repeated in fresh workers until ``--seconds`` is used up.
* ``path-iso-n4``: ``endo.verify_path_algebra_iso(g, 4, window=6)`` on a
  seeded member of every fifth rotation class of the 416 generators at
  n = 4, repeated the same way.
* ``build-n5``: every construction step for all 5440 generators at n = 5,
  in a seeded order, once (about 35 s); its ``wall_s`` is nine times the
  median of nine equal parts of the shuffled sweep.

For the repeated workloads ``wall_s`` sums, over the timed items of one
pass (the whole CLI call, or one generator), each item's median time over
the passes.  Every time is calibrated: net of the calibration slices and
divided by the machine-speed factor measured while it ran, so it reads in
reference seconds (``calibrate.py``); the detail line gives the raw values
too.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run, which
also makes one untraced run of the same work to report the tracing
overhead.  The line before the last holds the details: environment, check
counts, sample counts and the raw samples.  The exit code is 0 when every
check passed, 1 when a check failed and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metric_names
from workloads import REPEATED, RUNS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = tuple(RUNS)
SETUP_SAMPLES = 5
MIN_PASSES = 3
# A workload run once reports CHUNKS times the median of CHUNKS equal parts.
CHUNKS = 9
# Every run must end within 180 s; workers get what is left of this budget.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "gen_ms_p50": "ms",
    "gen_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    """The environment of every worker: no CLI defaults from outside, one thread."""
    env = {k: v for k, v in os.environ.items() if k != "PIANO_CAT_WINDOW"}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(task: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time budget used up before the run ended")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(task)],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the time budget: {task}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker failed with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten of ``count`` samples beyond it."""
    q = math.floor(100 * (1 - 10 / count)) if count > 10 else 0
    return q if q >= 50 else None


def chunked_total(times: list[float], chunks: int) -> float:
    """``chunks`` times the median total of ``chunks`` consecutive equal parts."""
    bounds = [round(k * len(times) / chunks) for k in range(chunks + 1)]
    return chunks * statistics.median(sum(times[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def end_to_end(works: list[dict], setups: list[dict], calibrated: bool) -> dict[str, float]:
    """The end-to-end values, in reference seconds or (``calibrated`` off) raw."""

    def items(w: dict) -> list[float]:
        if not calibrated:
            return w["items_s"]
        return [s / f for s, f in zip(w["items_s"], w["item_factors"])]

    def setup(w: dict) -> float:
        return w["setup_s"] / w["setup_factor"] if calibrated else w["setup_s"]

    if len(works) > 1:
        # Every pass times the same items: each item's median over the
        # passes drops the passes in which machine noise hit it.
        wall = sum(statistics.median(col) for col in zip(*map(items, works)))
    else:
        # One pass in shuffled order, so its parts are alike: the median
        # part drops a stretch of machine noise that the whole would keep.
        wall = chunked_total(items(works[0]), CHUNKS)
    gen_ms = sorted(1000 * s / w["generators_per_item"] for w in works for s in items(w))
    q = tail_percentile(len(gen_ms))
    # Too few samples for a percentile (one per verify pass): the slowest.
    tail = statistics.quantiles(gen_ms, n=100, method="inclusive")[q - 1] if q else gen_ms[-1]
    return {
        "wall_s": wall,
        "gen_ms_p50": statistics.median(gen_ms),
        "gen_ms_tail": tail,
        "setup_s": statistics.median(map(setup, setups)),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in works),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    return "ratio"


def measure(args: argparse.Namespace, deadline: float) -> tuple[list[dict], dict, dict]:
    task = {"workload": args.workload, "seed": args.seed, "mode": "work", "trace": False}
    if args.trace:
        untraced = run_worker(task, deadline)
        spans_path = OUT / f"spans-{args.workload}.npz"
        traced = run_worker({**task, "trace": True, "spans_path": str(spans_path)}, deadline)
        layers = dict(traced["layers"])
        layers["trace.spans"] = traced["spans"]
        layers["trace.overhead_s"] = sum(traced["items_s"]) - sum(untraced["items_s"])
        metrics = {k: {"value": layers[k], "unit": layer_unit(k)} for k in per_layer_names()}
        detail = {
            "untraced_s": sum(untraced["items_s"]),
            "traced_s": sum(traced["items_s"]),
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
        return [untraced, traced], metrics, detail

    setups = [run_worker({**task, "mode": "setup"}, deadline) for _ in range(SETUP_SAMPLES - 1)]
    started = time.monotonic()
    works = [run_worker(task, deadline)]
    if args.workload in REPEATED:
        # Fixed work per pass; more passes only add samples.
        while len(works) < MIN_PASSES or (
            time.monotonic() - started + sum(works[-1]["items_s"]) < args.seconds
        ):
            works.append(run_worker(task, deadline))
    setups += works
    values = end_to_end(works, setups, calibrated=True)
    gen_samples = sum(len(w["items_s"]) for w in works)
    detail = {
        "raw": end_to_end(works, setups, calibrated=False),
        "speed_factors": {
            "work_median": [statistics.median(w["item_factors"]) for w in works],
            "setup": [w["setup_factor"] for w in setups],
        },
        "gen_ms_tail_percentile": tail_percentile(gen_samples) or 100,
        "gen_samples": gen_samples,
        "pass_s": [sum(w["items_s"]) for w in works],
        "setup_samples_s": [w["setup_s"] for w in setups],
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return works, metrics, detail


def per_layer_names() -> list[str]:
    return layer_metric_names() + ["trace.spans", "trace.overhead_s"]


def env_info() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pianocat").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "pianocat" / "__init__.py").is_file():
        sys.stderr.write(f"no pianocat sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        works, metrics, detail = measure(args, deadline)
    except WorkerError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    attempted = sum(w["attempted"] for w in works)
    failed = sum(w["failed"] for w in works)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=env_info(),
        failed_frac=failed / attempted,
        failures=[f for w in works for f in w["failures"]][:10],
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

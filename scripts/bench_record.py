#!/usr/bin/env python3
"""Run the benchmark on one or more checkouts and record the runs as BENCH_<label>.json.

The file is written to the current directory; run it from the root of the
repository that keeps the record.

Example, ten alternating pairs of a parent and a change on one workload:

    python3 scripts/bench_record.py --label mine --workload path-iso-n4 \\
        --seeds 1-10 --checkout parent=../parent --checkout change=.

What the runs are and what the file holds is set out in README.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 300
CHECKOUT_FILES = ("perfbench/run.py", "BENCHMARK.json")


def parse_seeds(text: str) -> list[int]:
    """``1-5,9`` -> [1, 2, 3, 4, 5, 9]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_seconds(path: Path) -> int:
    """The run length the benchmark of a checkout sets."""
    return json.loads((path / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(
    path: Path, workload: str, seed: int, seconds: int, trace: int = 0
) -> tuple[dict, dict]:
    """The detail line and the result line of one benchmark run."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    result = subprocess.run(cmd, cwd=path, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = result.stdout.splitlines()
    if result.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(
            f"{' '.join(cmd)} in {path} exited {result.returncode}: {result.stderr.strip()}"
        )
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument(
        "--checkout", action="append", required=True, metavar="NAME=PATH",
        help="a checkout to measure; repeat for each side",
    )
    args = parser.parse_args()
    checkouts = {}
    for item in args.checkout:
        name, sep, path = item.partition("=")
        if not sep or not all((Path(path) / f).is_file() for f in CHECKOUT_FILES):
            parser.error(
                f"--checkout wants NAME=PATH of a checkout with {' and '.join(CHECKOUT_FILES)}, "
                f"got {item!r}"
            )
        checkouts[name] = Path(path).resolve()

    sides = {
        name: {"env": None, "run_seconds": run_seconds(path)} for name, path in checkouts.items()
    }
    workloads = {}
    names = list(checkouts)
    try:
        for workload in args.workload:
            runs = []
            for k, seed in enumerate(args.seeds):
                for order, name in enumerate(names[k % len(names):] + names[: k % len(names)]):
                    detail, result = run_once(
                        checkouts[name], workload, seed, sides[name]["run_seconds"]
                    )
                    if sides[name]["env"] is None:
                        sides[name]["env"] = detail["env"]
                    runs.append({
                        "seed": seed,
                        "checkout": name,
                        "order": order,
                        "correct": result["correct"],
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {m: v["value"] for m, v in result["metrics"].items()},
                    })
                    print(json.dumps(runs[-1]), file=sys.stderr)
            traced = {}
            for name in names:
                _, result = run_once(
                    checkouts[name], workload, args.seeds[0], sides[name]["run_seconds"], trace=1
                )
                traced[name] = {
                    "seed": args.seeds[0],
                    "correct": result["correct"],
                    "layers": {m: v["value"] for m, v in result["metrics"].items()},
                }
            metrics = list(runs[0]["metrics"])
            workloads[workload] = {
                "runs": runs,
                "traced": traced,
                "summary": {
                    name: {
                        m: summary([r["metrics"][m] for r in runs if r["checkout"] == name])
                        for m in metrics
                    }
                    for name in names
                },
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2

    record = {
        "label": args.label,
        "command": "perfbench/run.py --seconds <run_seconds> --trace 0 (runs), --trace 1 (traced)",
        "checkouts": sides,
        "workloads": workloads,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark worker: a fresh process that sets up a workload and runs it once.

    python3 perfbench/worker.py '{"workload": "build-n5", "seed": 1, "mode": "work", "trace": false}'

``mode`` is ``setup`` (import and enumerate only) or ``work`` (set up, then
run the measured step).  Times are net of calibration slices and not yet
divided by their machine-speed factors (see ``calibrate.py``); a traced
worker runs no timer.  With ``trace`` the tracer is installed after the
import, so set-up enumeration and the measured step are both traced, and the
spans are saved to ``spans_path``.  The worker prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from calibrate import Calibration
from gate import Gate
from workloads import RUNS, setup

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    calibration = Calibration()
    if not task["trace"]:
        calibration.start()
    calibration.burst()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pianocat

    if Path(pianocat.__file__).resolve().parent != (SRC / "pianocat").resolve():
        sys.stderr.write(f"imported pianocat from {pianocat.__file__}, not from {SRC}\n")
        return 2
    tracer = None
    if task["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = setup(task["workload"])
    end = time.perf_counter()
    calibration.burst()
    result: dict = {}
    if task["mode"] == "work":
        gate = Gate()
        result.update(RUNS[task["workload"]](state, gate, task["seed"], calibration))
        result.update(
            attempted=gate.attempted,
            failed=gate.failed,
            failures=gate.failures[:10],
        )
    if tracer is not None:
        tracer.uninstall()
        result.update(layers=tracer.layer_metrics(), spans=tracer.span_count)
        tracer.write(Path(task["spans_path"]))
    calibration.burst()
    calibration.stop()
    result.update(
        setup_s=calibration.net(start, end),
        setup_factor=calibration.factor(start, end),
        items_s=calibration.items_s(),
        item_factors=calibration.item_factors(),
    )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""``piano-cat verify all --n 5`` over all 5,440 generators, pinned.

The run is a child process that writes its own peak RSS (``VmHWM`` of
``/proc/self/status``) to stderr when it exits.  That figure starts at the
child's ``exec``, so it holds the verifier alone; ``os.wait4``'s
``ru_maxrss`` would also keep the RSS the pytest process had when it forked
the child.  ``verify`` walks the generators once and keeps one generator's
context alive at a time.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

STDOUT_SHA256 = "6a1a98b8557774f09dd79bb56136400e36050c399d11ed5c98a8e71b13ce519e"
RECORDS = 38_081
# A driver that kept every context through all checks peaked at 169 MB.
PEAK_RSS_MB = 100
# ``python -m pianocat.cli`` that also writes its VmHWM line to stderr at exit.
REPORTING_CLI = """
import atexit, runpy, sys

def report_peak():
    with open("/proc/self/status") as status:
        sys.stderr.write("".join(line for line in status if line.startswith("VmHWM:")))

atexit.register(report_peak)
runpy.run_module("pianocat.cli", run_name="__main__", alter_sys=True)
"""


def test_every_record_passes_with_pinned_stdout():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-c", REPORTING_CLI, "verify", "all", "--n", "5"]
    child = subprocess.run(argv, capture_output=True, env=env)
    stdout = child.stdout.decode()
    records = [json.loads(line) for line in stdout.splitlines()]
    assert child.returncode == 0
    assert len(records) == RECORDS
    assert all(r["passed"] for r in records)
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256
    # The one line "VmHWM:   <kB> kB".
    (peak,) = [line for line in child.stderr.decode().splitlines() if line.startswith("VmHWM:")]
    assert int(peak.split()[1]) / 1024 < PEAK_RSS_MB

"""``piano-cat verify all --n 5`` over all 5,440 generators, pinned.

The run is a child process, so that its own peak RSS can be read with
``os.wait4``: the driver walks the generators once and keeps one
generator's context alive at a time.
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


def test_every_record_passes_with_pinned_stdout():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "pianocat.cli", "verify", "all", "--n", "5"]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    with child.stdout:
        stdout = child.stdout.read().decode()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    records = [json.loads(line) for line in stdout.splitlines()]
    assert child.returncode == 0
    assert len(records) == RECORDS
    assert all(r["passed"] for r in records)
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256
    # ru_maxrss is in KiB on Linux.
    assert usage.ru_maxrss / 1024 < PEAK_RSS_MB

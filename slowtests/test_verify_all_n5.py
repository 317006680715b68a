"""``piano-cat verify all --n 5`` over all 5,440 generators, pinned."""

import contextlib
import hashlib
import io
import json

from pianocat import cli

STDOUT_SHA256 = "6a1a98b8557774f09dd79bb56136400e36050c399d11ed5c98a8e71b13ce519e"
RECORDS = 38_081


def test_every_record_passes_with_pinned_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "all", "--n", "5"])
    stdout = out.getvalue()
    records = [json.loads(line) for line in stdout.splitlines()]
    assert rc == 0
    assert len(records) == RECORDS
    assert all(r["passed"] for r in records)
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256

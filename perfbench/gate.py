"""Correctness gate: every output of a benchmark run is checked here.

The expected values in ``expected.json`` were recorded from the library as
it stood when the benchmark was defined.  A check that fails or raises
counts as failed; the run is correct only when none failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

# The record keys compared; fields that later versions add to a record are
# ignored so that richer records do not break the gate.
RECORD_KEYS = ("check", "n", "passed")


class Gate:
    """Counts attempted checks and keeps the names of the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def expected_verify_records() -> list[dict]:
    """The seed's ``verify all`` records projected on ``RECORD_KEYS``."""
    out = []
    for check, n, passed, count in EXPECTED["verify_n3_records"]:
        out += [{"check": check, "n": n, "passed": passed}] * count
    return out


def gate_verify_run(gate: Gate, stdout: str, rc: int) -> None:
    """Check one ``verify all`` run: exit code, record count, every record."""
    gate.check("verify exit code 0", rc == 0)
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        gate.check("verify output is JSON lines", False)
        return
    gate.check(
        f"verify record count {len(records)} == {EXPECTED['verify_n3_record_count']}",
        len(records) == EXPECTED["verify_n3_record_count"],
    )
    for i, r in enumerate(records):
        gate.check(f"record {i} {r.get('check')} passed", r.get("passed") is True)
    projected = [{k: r.get(k) for k in RECORD_KEYS} for r in records]
    gate.check("records match the recorded check/n/passed sequence", projected == expected_verify_records())


def gate_count(gate: Gate, what: str, n: int, found: int) -> None:
    want = EXPECTED["counts"][what][str(n)]
    gate.check(f"{what} at n={n}: {found} == {want}", found == want)


def piano_digest(pairs: Iterable[tuple[str, str]]) -> str:
    """SHA-256 over (generator dumps, piano dumps) pairs in enumeration order."""
    h = hashlib.sha256()
    for generator, piano in pairs:
        h.update(generator.encode())
        h.update(b"\n")
        h.update(piano.encode())
        h.update(b"\n")
    return h.hexdigest()


def gate_piano_digest(gate: Gate, n: int, pairs: Iterable[tuple[str, str]]) -> None:
    found = piano_digest(pairs)
    want = EXPECTED["piano_digest"][str(n)]
    gate.check(f"piano digest at n={n}: {found[:12]} == {want[:12]}", found == want)

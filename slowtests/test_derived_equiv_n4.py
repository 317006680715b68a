"""``piano-cat verify derived-equiv --n 4`` over all 416 generators, pinned."""

import contextlib
import hashlib
import io
import json

import pytest

from pianocat import cli, signs

STDOUT_SHA256 = "e2c2951c68ffe91b66dfefb2d50b1abc41a59bfd500bf69de66d7b27d6764c59"
# Composable pairs of nonzero entries examined, over both matrices of
# every generator (window 6).
PAIRS = 30_840


@pytest.fixture(scope="module")
def run():
    """One in-process run, the phi reports recorded by a spy."""
    reports = []
    real = signs.verify_phi_homomorphism

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(signs, "verify_phi_homomorphism", spy)
        rc = cli.main(["verify", "derived-equiv", "--n", "4"])
    return rc, out.getvalue(), reports


def test_every_generator_passes_with_pinned_stdout(run):
    rc, stdout, _ = run
    records = [json.loads(line) for line in stdout.splitlines()]
    assert rc == 0
    assert len(records) == 832
    assert all(r["check"] == "derived-equiv" and r["passed"] for r in records)
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256


def test_examined_pairs_are_pinned(run):
    _, _, reports = run
    assert len(reports) == 832
    assert sum(r.checked for r in reports) == PAIRS

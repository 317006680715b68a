"""``piano-cat verify path-algebra-iso --n 4`` over all 416 generators, pinned."""

import contextlib
import hashlib
import io
import json

import pytest

from pianocat import cli, endo

STDOUT_SHA256 = "c30c0cc522cba9e672bf496877d25a95fce1b4ec5e9b5285ff0c969b603e9ed7"
# Products of the run that reach the closed-interval test (window 6): each
# nonzero landing that is not a round trip, with a middle object other than
# the source summand.  436,852 of them have the shifted target as their
# middle object, which the interval holds at its ends.
INTERVAL_TESTS = 1_255_592


@pytest.fixture(scope="module")
def run():
    """One in-process run, its closed-interval tests recorded by a spy.

    The matrix blocks are decided by the body of ``endo._typed_block`` on
    the arcs themselves, without either level of the block memo, so that
    every cell of the run reaches the spy."""
    seen = []
    real = endo.within_row

    def spy(w, row):
        hits = real(w, row)
        seen.extend(hit for hit, aligned in zip(hits, row) if aligned is not None)
        return hits

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(endo, "within_row", spy)
        mp.setattr(endo, "_matrix_block", endo._typed_block.__wrapped__)
        rc = cli.main(["verify", "path-algebra-iso", "--n", "4"])
    return rc, out.getvalue(), seen


def test_every_generator_passes_with_pinned_stdout(run):
    rc, stdout, _ = run
    records = [json.loads(line) for line in stdout.splitlines()]
    assert rc == 0
    assert len(records) == 416
    assert all(r["passed"] for r in records)
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256


def test_interval_test_never_rejects(run):
    # The closed-interval test of the product rule is reached on every
    # n = 4 generator run and never decides a product there.
    _, _, seen = run
    assert len(seen) == INTERVAL_TESTS
    assert all(seen)

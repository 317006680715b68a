"""Confluence by critical pairs at n = 4 and n = 5, against the exhaustive search."""

import contextlib
import io
import json

from exhaustive import confluence_report
from pianocat import cli
from pianocat.confluence import critical_pair_report
from pianocat.endo import piano_of_generator
from pianocat.generators import enumerate_limit_generators


def test_verify_confluence_passes_at_n5():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", "confluence", "--n", "5"])
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert rc == 0
    assert len(records) == 5440
    assert all(r == {"check": "confluence", "n": 5, "passed": True} for r in records)


def test_critical_pairs_agree_with_the_length_6_search_at_n4():
    sample = enumerate_limit_generators(4)[::8]
    assert len(sample) == 52
    for g in sample:
        p = piano_of_generator(list(g), 4)
        assert critical_pair_report(p)[0] == confluence_report(p, max_length=6)[0]

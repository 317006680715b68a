"""Both enumerations at n = 6 against the independent count of ``count_oracle``,
and their records and order against pinned SHA-256s."""

import hashlib

from count_oracle import extended_dissection_count
from pianocat.dissections import enumerate_extended_dissections
from pianocat.generators import enumerate_limit_generators

# SHA-256 of the newline-joined ``dumps()`` of each n = 6 enumeration.
N6_GENERATORS_SHA256 = "599e17482041028be3872ca783a86617f12ed73e92804ecd886827828008f036"
N6_DISSECTIONS_SHA256 = "77b8d30b5206bc73107ef244e3603e6ec196a535c93d9ac0da2fea97f87f6e6d"


def _count_and_digest(items) -> tuple[int, str]:
    # Line by line, so that no joined text is held beside the items.
    digest = hashlib.sha256()
    for i, item in enumerate(items):
        digest.update((b"\n" if i else b"") + item.dumps().encode())
    return len(items), digest.hexdigest()


def test_enumerations_match_the_independent_count_at_n6():
    count = extended_dissection_count(6)
    assert count == 76608
    assert _count_and_digest(enumerate_extended_dissections(6)) == (count, N6_DISSECTIONS_SHA256)
    assert _count_and_digest(enumerate_limit_generators(6)) == (count, N6_GENERATORS_SHA256)

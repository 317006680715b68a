"""Both enumerations at n = 6 against the independent count of ``count_oracle``."""

from count_oracle import extended_dissection_count
from pianocat.dissections import enumerate_extended_dissections
from pianocat.generators import enumerate_limit_generators


def test_enumerations_match_the_independent_count_at_n6():
    count = extended_dissection_count(6)
    assert count == 76608
    assert len(enumerate_extended_dissections(6)) == count
    assert len(enumerate_limit_generators(6)) == count

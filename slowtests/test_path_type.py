"""Path-side classes on the local type of every vertex pair with n = 5."""

import collections

from test_endo import _shared_prefix_matches_the_full_pass

from pianocat import endo, quivers
from pianocat.generators import enumerate_limit_generators


def test_every_class_keeps_its_ends_on_the_path_type_at_n5():
    # Every class of every n = 5 piano at window 6, 1,513,735 of them: the
    # memo on the pair's local type, and its body, give the ends and blocks
    # of the full word's normal form.  Then the check itself, from a cold
    # memo, asks 128,995 pairs for 61 local types.
    seen = collections.Counter()
    gens = enumerate_limit_generators(5)
    for g in gens:
        seen += _shared_prefix_matches_the_full_pass(endo.piano_of_generator(list(g), 5))
    assert seen == {"nonzero": 1_513_735}
    quivers._typed_ends.cache_clear()
    for g in gens:
        assert endo.verify_path_algebra_iso(list(g), 5, window=6).passed
    info = quivers._typed_ends.cache_info()
    assert (info.currsize, info.hits + info.misses) == (61, 128_995)

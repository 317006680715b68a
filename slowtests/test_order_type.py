"""Matrix blocks on the order type of every summand triple with n = 4, 5, 6."""

import collections

from summand_triples import own_segments, summand_triples

from pianocat import endo, geometry


def test_every_block_keeps_its_value_on_the_order_type():
    # All 186,174 ordered triples of summands with n from 4 to 6, at window
    # 6: the block body on the triple's order type equals the body on the
    # arcs themselves.  Six endpoints touch at most six segments, so the
    # types at n = 6 are those of every larger n: 14,062 keys.  The negative
    # control, each endpoint on a segment of its own, differs on 100, 325
    # and 840 triples.
    body = endo._typed_block.__wrapped__
    triples, keys, forgetful = collections.Counter(), collections.Counter(), collections.Counter()
    for n in (4, 5, 6):
        seen = set()
        for arcs, lefts, rights in summand_triples(n):
            typed = geometry.order_type(arcs)
            direct = body(*arcs, lefts, rights)
            assert body(*typed, lefts, rights) == direct, arcs
            forgetful[n] += body(*own_segments(arcs), lefts, rights) != direct
            seen.add((*typed, lefts, rights))
            triples[n] += 1
        keys[n] = len(seen)
    assert sum(triples.values()) == 186_174
    assert keys == {4: 5_962, 5: 11_632, 6: 14_062}
    assert forgetful == {4: 100, 5: 325, 6: 840}

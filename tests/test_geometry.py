import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pianocat.geometry import (
    Arc,
    ArcKind,
    ArcSet,
    BoundaryPoint,
    GeometryError,
    acc,
    arc_set,
    cross,
    crosses_under_some_shift,
    cyclic_less,
    pt,
    rotate_arc,
    suspend,
    within_keys,
    within_row,
)
from pianocat.dissections import chord_of_arc, chord_to_arc
from pianocat.generators import enumerate_limit_generators


def test_cyclic_less_segment_order():
    n = 3
    assert cyclic_less(acc(0, n), pt(0, 5, n), acc(1, n))
    assert cyclic_less(pt(0, 0, n), pt(0, 1, n), pt(0, -1, n))
    # Hand evaluation: anticlockwise from Acc(2) one meets Acc(0) then Acc(1).
    assert cyclic_less(acc(2, n), acc(0, n), acc(1, n))
    assert not cyclic_less(acc(2, n), acc(1, n), acc(0, n))


def test_cyclic_less_degenerate_triple():
    n = 2
    with pytest.raises(GeometryError, match="degenerate"):
        cyclic_less(acc(0, n), acc(0, n), acc(1, n))


def test_arc_kinds():
    n = 3
    assert Arc(n, pt(0, 0, n), pt(0, 2, n)).kind == ArcKind.SHORT
    assert Arc(n, pt(0, 0, n), pt(1, 3, n)).kind == ArcKind.LONG
    assert Arc(n, acc(0, n), pt(1, 0, n)).kind == ArcKind.LIMIT
    assert Arc(n, acc(0, n), acc(2, n)).kind == ArcKind.DOUBLE_LIMIT


def derived_kind(x):
    """The kind read off the endpoints, independently of the stored one."""
    accumulations = [p.is_accumulation for p in x.endpoints()].count(True)
    if accumulations == 2:
        return ArcKind.DOUBLE_LIMIT
    if accumulations == 1:
        return ArcKind.LIMIT
    return ArcKind.SHORT if x.a.seg == x.b.seg else ArcKind.LONG


def test_stored_kind_matches_the_endpoints():
    from pianocat.generators import enumerate_limit_generators

    checked = 0
    for n in (1, 2, 3):
        for g in enumerate_limit_generators(n):
            for x in g:
                for k in range(-6, 7):
                    y = suspend(x, k)
                    assert y.kind == derived_kind(y)
                    checked += 1
    assert checked == 13 * (1 * 1 + 4 * 3 + 36 * 5)
    # Long and short arcs, which no generator holds.
    for a, b in ((pt(0, 0, 3), pt(1, 3, 3)), (pt(2, 5, 3), pt(2, -1, 3))):
        assert Arc(3, a, b).kind == derived_kind(Arc(3, a, b))


def test_equal_endpoints_make_equal_arcs():
    n = 3
    for a, b in ((acc(0, n), pt(1, 0, n)), (pt(0, 0, n), pt(1, 3, n)), (acc(2, n), acc(0, n))):
        x, y = Arc(n, a, b), Arc(n, b, a)
        assert x == y and hash(x) == hash(y) and x.kind == y.kind
        assert Arc(n, BoundaryPoint(a.seg, a.pos), BoundaryPoint(b.seg, b.pos)) == x
        assert len({x, y}) == 1
        assert "kind" not in repr(x)
    assert Arc(n, acc(0, n), pt(1, 0, n)) != Arc(n, acc(0, n), pt(1, 2, n))


def test_arcs_are_interned():
    n = 3
    for a, b in (
        (acc(0, n), pt(1, 0, n)),
        (pt(0, 0, n), pt(1, 3, n)),
        (pt(2, 5, n), pt(2, -1, n)),
        (acc(2, n), acc(0, n)),
    ):
        x = Arc(n, a, b)
        # The endpoints in either order, and fresh equal endpoints.
        assert Arc(n, b, a) is x
        assert Arc(n, BoundaryPoint(b.seg, b.pos), BoundaryPoint(a.seg, a.pos)) is x
        assert Arc.from_json(x.to_json(), n) is x
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
        assert rotate_arc(rotate_arc(x, 1), n - 1) is x
    # Every summand of the n <= 4 generators, through its chord and back,
    # with and without the memos.
    for n in (1, 2, 3, 4):
        for x in {x for g in enumerate_limit_generators(n) for x in g}:
            assert chord_to_arc(chord_of_arc(x), n) is x
            assert chord_to_arc.__wrapped__(chord_of_arc.__wrapped__(x), n) is x
    # A refused value is never stored, so it raises on every call.
    for _ in range(2):
        with pytest.raises(GeometryError, match="neighbours"):
            Arc(3, pt(0, 0, 3), pt(0, 1, 3))
        with pytest.raises(GeometryError, match="outside"):
            Arc(3, acc(0, 3), BoundaryPoint(3, 0))


def test_arc_neighbour_endpoints_rejected():
    n = 2
    with pytest.raises(GeometryError):
        Arc(n, pt(0, 0, n), pt(0, 1, n))
    for a, b in ((pt(0, 1, n), pt(0, 2, n)), (pt(0, 2, n), pt(0, 1, n))):
        with pytest.raises(GeometryError, match="neighbours"):
            Arc(n, a, b)
    with pytest.raises(GeometryError):
        Arc(n, acc(0, n), acc(0, n))
    # An accumulation point and any marked point are never neighbours, nor
    # are adjacent positions on different segments.
    Arc(n, acc(0, n), pt(0, 0, n))
    assert Arc(n, acc(0, n), pt(0, 1, n)).kind == ArcKind.LIMIT
    assert Arc(n, pt(0, 1, n), pt(1, 2, n)).kind == ArcKind.LONG


# Reference predicates as they were before points stored their keys: they
# compare points, rebuild each key, and build the neighbours of an endpoint.
def _ref_key(p):
    return (p.seg, 0, 0) if p.pos is None else (p.seg, 1, p.pos)


def _ref_cyclic_less(x, y, z):
    if x == y or y == z or x == z:
        raise GeometryError("degenerate triple")
    kx, ky, kz = _ref_key(x), _ref_key(y), _ref_key(z)
    return (kx < ky < kz) or (ky < kz < kx) or (kz < kx < ky)


def _ref_in_open_interval(p, start, end):
    if p == start or p == end or start == end:
        return False
    return _ref_cyclic_less(start, p, end)


def _ref_in_closed_interval(p, start, end):
    if p == start or p == end:
        return True
    if start == end:
        return False
    return _ref_cyclic_less(start, p, end)


def _ref_is_arc(a, b):
    if a == b:
        return False
    if a.pos is None:
        return True
    return b not in (BoundaryPoint(a.seg, a.pos - 1), BoundaryPoint(a.seg, a.pos + 1))


def _ref_cross(x, y):
    if y.a in (x.a, x.b) or y.b in (x.a, x.b):
        return False
    return _ref_in_open_interval(y.a, x.a, x.b) != _ref_in_open_interval(y.b, x.a, x.b)


def _outcome(f, *args):
    try:
        return f(*args)
    except GeometryError as exc:
        return ("raises", str(exc))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_key_predicates_match_point_equality_reference(n):
    points = [acc(i, n) for i in range(n)] + [pt(i, p, n) for i in range(n) for p in range(-3, 4)]
    for x, y, z in itertools.product(points, repeat=3):
        assert _outcome(cyclic_less, x, y, z) == _outcome(_ref_cyclic_less, x, y, z), (x, y, z)
        # The closed-interval rule in its one-point case.
        kx, ky, kz = x.key(), y.key(), z.key()
        closed = within_keys((kx, kx), ((ky, ky), (kz, kz)))
        assert closed == _ref_in_closed_interval(x, y, z), (x, y, z)
    arcs = []
    for a, b in itertools.product(points, repeat=2):
        built = _outcome(Arc, n, a, b)
        assert isinstance(built, Arc) == _ref_is_arc(a, b), (a, b)
        if isinstance(built, Arc):
            assert _ref_key(built.a) < _ref_key(built.b)
            if built.a == a:
                arcs.append(built)
    for x, y in itertools.product(arcs, repeat=2):
        assert cross(x, y) == _ref_cross(x, y), (x, y)


def test_within_keys_matches_the_point_reference():
    # Two points against two closed intervals, in either labelling of the
    # points: every choice of six points at n = 2 (repeats included).
    n = 2
    points = [acc(i, n) for i in range(n)] + [pt(i, p, n) for i in range(n) for p in (-1, 1)]
    for wa, wb, y1, y2, z1, z2 in itertools.product(points, repeat=6):
        want = any(
            _ref_in_closed_interval(w1, y1, z1) and _ref_in_closed_interval(w2, y2, z2)
            for w1, w2 in ((wa, wb), (wb, wa))
        )
        aligned = ((y1.key(), y2.key()), (z1.key(), z2.key()))
        assert within_keys((wa.key(), wb.key()), aligned) == want, (wa, wb, y1, y2, z1, z2)


def test_within_row_is_within_keys_cell_by_cell():
    # One row of every alignment of four points at n = 2, every seventh
    # replaced by None, in both orders, against every pair of points: the
    # row form is the one-cell rule at each cell, also where an interval
    # wraps past Acc(0), that is, ends before it starts in key order.
    n = 2
    points = [acc(i, n) for i in range(n)] + [pt(i, p, n) for i in range(n) for p in (-1, 1)]
    keys = [q.key() for q in points]
    row = [((y1, y2), (z1, z2)) for y1, y2, z1, z2 in itertools.product(keys, repeat=4)]
    row[::7] = [None] * len(row[::7])
    wraps = {al for al in row if al is not None and (al[0][0] > al[1][0] or al[0][1] > al[1][1])}
    wrapped_cells = set()
    for w in itertools.product(keys, repeat=2):
        for r in (row, row[::-1]):
            cells = tuple(int(al is not None and within_keys(w, al)) for al in r)
            assert within_row(w, r) == cells, w
            wrapped_cells |= {hit for al, hit in zip(r, cells) if al in wraps}
    # Wrapping intervals both hold and miss a pair of points.
    assert wrapped_cells == {0, 1}
    assert within_row(keys[:2], ()) == () and within_row(keys[:2], [None]) == (0,)


def test_cross_examples():
    n = 3
    x = Arc(n, pt(0, 0, n), pt(1, 3, n))
    y = Arc(n, pt(0, 5, n), pt(2, 0, n))
    assert cross(x, y) and cross(y, x)
    assert not cross(Arc(n, pt(0, 0, n), pt(0, 2, n)), Arc(n, pt(1, 0, n), pt(1, 2, n)))
    assert not cross(Arc(n, acc(0, n), acc(1, n)), Arc(n, acc(0, n), pt(0, 0, n)))


def test_suspend_examples():
    n = 2
    x = Arc(n, pt(0, 0, n), acc(1, n))
    assert suspend(x, 1) == Arc(n, pt(0, -1, n), acc(1, n))
    assert suspend(x, 0) == x
    dl = Arc(n, acc(0, n), acc(1, n))
    assert suspend(dl, 7) == dl
    assert suspend(suspend(x, 4), -4) == x


def test_suspend_matches_the_validating_constructor():
    from pianocat.generators import enumerate_limit_generators

    # Every summand of every generator with n <= 4, once each, and the short
    # and long arcs no generator holds.
    summands = {
        (x.n, x.sort_key()): x
        for n in (1, 2, 3, 4)
        for g in enumerate_limit_generators(n)
        for x in g
    }
    n = 4
    for a, b in ((pt(0, 0, n), pt(0, 2, n)), (pt(3, 5, n), pt(3, -1, n)), (pt(0, 0, n), pt(2, 3, n))):
        summands[(n, Arc(n, a, b).sort_key())] = Arc(n, a, b)
    kinds = set()
    for x in summands.values():
        assert suspend(x, 0) is x
        for k in range(-12, 13):
            y = suspend(x, k)
            assert y is Arc(x.n, x.a.shifted(k), x.b.shifted(k))
            kinds.add(y.kind)
    assert kinds == set(ArcKind)


def test_arc_hash_and_equality_contract():
    n = 3
    pairs = [
        (pt(0, 0, n), pt(0, 2, n)),
        (pt(0, 0, n), pt(1, 3, n)),
        (acc(0, n), pt(1, 0, n)),
        (acc(2, n), acc(0, n)),
    ]
    for a, b in pairs:
        x, y = Arc(n, a, b), Arc(n, b, a)
        assert x == y and not x != y and hash(x) == hash(y)
        # Arcs that differ only in n are unequal.
        assert Arc(n + 1, a, b) != x and not Arc(n + 1, a, b) == x
        # An arc is never equal to a point or to its endpoint pair.
        assert (x == a) is False and (x != a) is True and x != (a, b)
        # A set or dict finds an arc by its endpoints, in either order.
        assert y in {x} and {x: 1}[y] == 1
        # An arc set refuses the same arc given with its endpoints swapped.
        with pytest.raises(GeometryError, match="duplicate"):
            ArcSet(n, (x, y))
    distinct = [Arc(n, a, b) for a, b in pairs]
    assert len(set(distinct)) == len(distinct)
    assert all((x == y) == (i == j) for i, x in enumerate(distinct) for j, y in enumerate(distinct))


points = st.builds(
    lambda seg, pos: BoundaryPoint(seg, pos),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(-4, 4)),
)

_POINT_POOL = [BoundaryPoint(s) for s in range(4)] + [
    BoundaryPoint(s, p) for s in range(4) for p in range(-3, 4)
]
_ARC_POOL = []
for _a in _POINT_POOL:
    for _b in _POINT_POOL:
        try:
            _ARC_POOL.append(Arc(4, _a, _b))
        except GeometryError:
            pass


def arcs():
    return st.sampled_from(_ARC_POOL)


@given(points, points, points)
def test_cyclic_trichotomy(x, y, z):
    if len({x, y, z}) < 3:
        return
    assert cyclic_less(x, y, z) != cyclic_less(x, z, y)


@given(points, points, points, st.integers(1, 3))
def test_cyclic_rotation_invariance(x, y, z, r):
    if len({x, y, z}) < 3:
        return
    n = 4

    def rot(p):
        return BoundaryPoint((p.seg + r) % n, p.pos)

    assert cyclic_less(x, y, z) == cyclic_less(rot(x), rot(y), rot(z))


@settings(max_examples=200)
@given(arcs(), arcs(), st.integers(-3, 3))
def test_cross_symmetric_and_shift_invariant(x, y, k):
    assert cross(x, y) == cross(y, x)
    assert cross(x, y) == cross(suspend(x, k), suspend(y, k))


@settings(max_examples=200)
@given(arcs(), st.integers(-5, 5))
def test_kind_stable_under_suspension(x, k):
    assert suspend(x, k).kind == x.kind


@given(st.integers(-6, 6))
def test_double_limit_fixed_by_suspension(k):
    n = 3
    dl = Arc(n, acc(0, n), acc(2, n))
    assert suspend(dl, k) == dl


def test_shift_crossing_same_segment_limit_arcs():
    n = 4
    x = Arc(n, acc(0, n), pt(2, 0, n))
    y = Arc(n, acc(1, n), pt(2, 5, n))
    assert crosses_under_some_shift(x, y)
    # Same accumulation endpoint: rotation never crosses.
    z = Arc(n, acc(0, n), pt(2, 9, n))
    assert not crosses_under_some_shift(x, z)


def test_shift_crossing_interleaved_bindings():
    n = 4
    x = Arc(n, acc(0, n), pt(2, 0, n))
    y = Arc(n, acc(1, n), pt(3, 0, n))
    assert crosses_under_some_shift(x, y)
    w = Arc(n, acc(3, n), pt(3, 0, n))
    assert not crosses_under_some_shift(x, w)


def test_shift_crossing_memo_matches_its_body():
    # Every ordered pair of summands of the n <= 4 generators, as the shared
    # objects and as fresh equal copies, which are the shared objects, asked
    # twice so that the second answer comes from the cache.
    hits = crosses_under_some_shift.cache_info().hits
    crossing = 0
    for n in (1, 2, 3, 4):
        summands = {x for g in enumerate_limit_generators(n) for x in g}
        for x in summands:
            for y in summands:
                want = crosses_under_some_shift.__wrapped__(x, y)
                fresh = Arc(n, y.a, y.b)
                assert fresh is y
                for _ in range(2):
                    assert crosses_under_some_shift(x, y) == want
                    assert crosses_under_some_shift(x, fresh) == want
                crossing += want
    assert crossing > 0
    assert crosses_under_some_shift.cache_info().hits > hits


def test_shift_crossing_memo_never_keeps_a_refusal():
    n = 3
    limit = Arc(n, acc(0, n), pt(1, 0, n))
    # A short, then a long arc, on either side, asked twice.
    for other in (Arc(n, pt(0, 0, n), pt(0, 2, n)), Arc(n, pt(0, 0, n), pt(1, 0, n))):
        misses = crosses_under_some_shift.cache_info().misses
        for _ in range(2):
            with pytest.raises(GeometryError, match="unsupported arc configuration"):
                crosses_under_some_shift(limit, other)
            with pytest.raises(GeometryError, match="unsupported arc configuration"):
                crosses_under_some_shift(other, limit)
        assert crosses_under_some_shift.cache_info().misses == misses + 4


def test_arcset_rejects_duplicates_and_json_round_trip():
    n = 3
    a = Arc(n, acc(0, n), acc(1, n))
    with pytest.raises(GeometryError):
        ArcSet(n, (a, Arc(n, acc(1, n), acc(0, n))))
    s = arc_set(n, [a, Arc(n, acc(0, n), pt(1, 2, n))])
    assert ArcSet.from_json(s.to_json()) == s


def test_rotate_arc():
    n = 3
    a = Arc(n, acc(0, n), pt(1, 2, n))
    assert rotate_arc(a, 2) == Arc(n, acc(2, n), pt(0, 2, n))

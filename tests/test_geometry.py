import itertools

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
    coarse_position,
    cross,
    crosses_under_some_shift,
    cyclic_less,
    in_closed_interval,
    pt,
    rotate_arc,
    suspend,
)


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
        assert in_closed_interval(x, y, z) == _ref_in_closed_interval(x, y, z), (x, y, z)
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
    assert coarse_position(acc(2, n)) == 4
    assert coarse_position(pt(1, 99, n)) == 3

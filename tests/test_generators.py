import hashlib
import itertools
from collections import Counter

import pytest

from pianocat.geometry import (
    Arc,
    ArcKind,
    GeometryError,
    acc,
    arc_set,
    cross,
    crosses_under_some_shift,
    pt,
    rotate_arc,
)
from pianocat.generators import (
    GeneratorError,
    check_linear_generator,
    decompose,
    enumerate_limit_generators,
    enumerate_pre_generators,
    fan_generator,
    fan_summands,
    is_homologically_connected,
    is_limit_generator,
    is_limit_pre_generator,
)


def test_homologically_connected():
    n = 4
    fan = fan_generator(3)
    assert is_homologically_connected(fan)
    two = arc_set(n, [Arc(n, acc(0, n), acc(1, n)), Arc(n, acc(2, n), acc(3, n))])
    assert not is_homologically_connected(two)
    single = arc_set(n, [Arc(n, acc(0, n), acc(2, n))])
    assert is_homologically_connected(single)


def test_homologically_connected_regime_guard():
    n = 2
    short = arc_set(n, [Arc(n, pt(0, 0, n), pt(0, 2, n))])
    with pytest.raises(GeneratorError, match="unsupported"):
        is_homologically_connected(short)


def test_limit_pre_generator():
    n = 3
    path = arc_set(n, [Arc(n, acc(0, n), acc(1, n)), Arc(n, acc(1, n), acc(2, n))])
    assert is_limit_pre_generator(path)
    cycle = arc_set(
        n,
        [
            Arc(n, acc(0, n), acc(1, n)),
            Arc(n, acc(1, n), acc(2, n)),
            Arc(n, acc(0, n), acc(2, n)),
        ],
    )
    assert not is_limit_pre_generator(cycle)
    n = 4
    crossing = arc_set(n, [Arc(n, acc(0, n), acc(2, n)), Arc(n, acc(1, n), acc(3, n))])
    assert not is_limit_pre_generator(crossing)
    assert is_limit_pre_generator(arc_set(1, []))


def test_limit_generator_and_decomposition():
    fan = fan_generator(3)
    assert is_limit_generator(fan)
    assert len(fan) == 5
    dec = decompose(fan)
    assert is_limit_pre_generator(dec.pre_generator)
    assert len(dec.pre_generator) == 2
    assert len(dec.limit_part) == 3
    assert sorted(dec.segment_assignment) == [0, 1, 2]
    assert set(dec.pre_generator) | set(dec.limit_part) == set(fan)

    # The tree alone has no complete orbit.
    assert not is_limit_generator(dec.pre_generator)

    # Two limit arcs in one segment violate minimality.
    n = 3
    extra = arc_set(n, list(fan) + [Arc(n, acc(2, n), pt(0, 5, n))])
    assert not is_limit_generator(extra)


def reference_is_limit_generator(a):
    """Test oracle: the limit-generator rule as first written, which builds
    the tree test of every generator afresh.  A tree of double limit arcs,
    one limit arc per segment, no two arcs crossing under shifts."""
    arcs = list(a)
    if not all(x.kind in (ArcKind.LIMIT, ArcKind.DOUBLE_LIMIT) for x in arcs):
        return False
    doubles = [x for x in arcs if x.kind == ArcKind.DOUBLE_LIMIT]
    limits = [x for x in arcs if x.kind == ArcKind.LIMIT]
    if not is_limit_pre_generator(arc_set(a.n, doubles)):
        return False
    if len(limits) != a.n:
        return False
    free_segments = [(x.a if x.a.is_marked else x.b).seg for x in limits]
    if sorted(free_segments) != list(range(a.n)):
        return False
    return not any(crosses_under_some_shift(x, y) for x, y in itertools.combinations(arcs, 2))


def _near_generators(g):
    """Inputs made from the generator g, each with its kind: g with one
    summand dropped, with one limit arc moved to another segment, with a
    short or a long arc added, and with one double limit arc of its tree
    swapped for one that crosses the rest of the tree."""
    n, arcs = g.n, list(g)
    for x in arcs:
        yield "dropped", [y for y in arcs if y is not x]
    for x in arcs:
        if x.kind is not ArcKind.LIMIT:
            continue
        acc_end = x.b if x.a.is_marked else x.a
        for seg in range(n):
            moved = Arc(n, acc_end, pt(seg, 0, n))
            if moved not in arcs:
                yield "moved", [moved if y is x else y for y in arcs]
    yield "short", arcs + [Arc(n, pt(0, 0, n), pt(0, 2, n))]
    if n > 1:
        yield "long", arcs + [Arc(n, pt(0, 0, n), pt(1, 1, n))]
    tree = [x for x in arcs if x.kind is ArcKind.DOUBLE_LIMIT]
    for x in tree:
        rest = [y for y in tree if y is not x]
        for i, j in itertools.combinations(range(n), 2):
            c = Arc(n, acc(i, n), acc(j, n))
            if c not in tree and any(cross(c, y) for y in rest):
                yield "swapped", [c if y is x else y for y in arcs]


def test_limit_generator_rule_matches_the_reference():
    # Every generator with n <= 4 and the inputs made from each; the rule
    # and the oracle agree on all, and each kind of input is refused.
    refused, accepted = Counter(), 0
    for n in (1, 2, 3, 4):
        for g in enumerate_limit_generators(n):
            assert is_limit_generator(g) and reference_is_limit_generator(g)
            accepted += 1
            for kind, arcs in _near_generators(g):
                try:
                    a = arc_set(n, arcs)
                except GeometryError:  # a repeated arc is no arc set
                    continue
                got = is_limit_generator(a)
                assert got == reference_is_limit_generator(a), (kind, a)
                refused[kind] += not got
    assert accepted == 1 + 4 + 36 + 416
    assert set(refused) == {"dropped", "moved", "short", "long", "swapped"}
    assert min(refused.values()) > 0


def test_n_equals_one_has_no_long_or_double_limit_arcs():
    # With a single accumulation point those kinds cannot be constructed.
    from pianocat.geometry import ArcKind, GeometryError

    n = 1
    with pytest.raises(GeometryError):
        Arc(n, acc(0, n), acc(0, n))
    kinds = {
        Arc(n, acc(0, n), pt(0, 5, n)).kind,
        Arc(n, pt(0, 0, n), pt(0, 2, n)).kind,
    }
    assert kinds == {ArcKind.LIMIT, ArcKind.SHORT}


def test_fan_generator_counts():
    assert len(fan_generator(1)) == 1
    assert len(fan_generator(2)) == 3
    for n in range(1, 7):
        assert is_limit_generator(fan_generator(n))
        assert len(fan_summands(n)) == 2 * n - 1


def test_fan_summands_at_any_apex():
    # The fan at Acc(a) is the default fan rotated by a + 1, in the same
    # radial order, and is a limit generator; Acc(n-1) is the default.
    n, apex = 3, acc(2, 3)
    radial = [pt(2, 0, n), acc(0, n), pt(0, 0, n), acc(1, n), pt(1, 0, n)]
    assert fan_summands(n) == [Arc(n, apex, p) for p in radial]
    for n in range(1, 6):
        assert fan_summands(n, acc(n - 1, n)) == fan_summands(n)
        for a in range(n):
            fan = fan_summands(n, acc(a, n))
            assert fan == [rotate_arc(x, a + 1) for x in fan_summands(n)]
            assert all(x.contains(acc(a, n)) for x in fan)
            assert is_limit_generator(arc_set(n, fan))


def test_enumeration_counts():
    assert len(enumerate_limit_generators(1)) == 1
    assert len(enumerate_limit_generators(2)) == 4
    assert len(enumerate_limit_generators(2, up_to_equivalence=True)) == 3
    assert len(enumerate_pre_generators(3)) == 3


# SHA-256 of the newline-joined ``dumps()`` of the n = 5 generators.
N5_GENERATORS_SHA256 = "1049b5c0a5f68badc2025e65db572b802535bcec6b043b7be9694d62f2eb927b"


def test_enumeration_shares_one_object_per_summand():
    # n^2 limit arcs and n(n-1)/2 double limit arcs, each one object held by
    # every generator that has it; the n = 5 list itself is pinned.
    for n in range(1, 6):
        gens = enumerate_limit_generators(n)
        objects = {id(x): x for g in gens for x in g}.values()
        assert len(objects) == len(set(objects)) == n * n + n * (n - 1) // 2
    text = "\n".join(g.dumps() for g in gens)
    assert len(gens) == 5440
    assert hashlib.sha256(text.encode()).hexdigest() == N5_GENERATORS_SHA256


def test_enumeration_cap():
    with pytest.raises(GeneratorError, match="cap"):
        enumerate_limit_generators(9)


def test_enumeration_outputs_are_limit_generators():
    for n in (1, 2, 3):
        for g in enumerate_limit_generators(n):
            assert is_limit_generator(g)


def test_enumeration_matches_brute_force_product():
    # Independent count: every pre-generator tree combined with every
    # placement of one normalised limit arc per segment, filtered by
    # pairwise non-crossing under suspensions.
    from pianocat.geometry import crosses_under_some_shift

    for n in (2, 3, 4):
        count = 0
        for tree in enumerate_pre_generators(n):
            options = [
                [Arc(n, acc(i, n), pt(seg, 0, n)) for i in range(n)]
                for seg in range(n)
            ]
            for combo in itertools.product(*options):
                arcs = list(tree) + list(combo)
                if all(
                    not crosses_under_some_shift(a, b)
                    for a, b in itertools.combinations(arcs, 2)
                ):
                    count += 1
        assert count == len(enumerate_limit_generators(n)), n


def test_equivalence_quotient_orbits():
    for n in (2, 3):
        full = enumerate_limit_generators(n)
        classes = enumerate_limit_generators(n, up_to_equivalence=True)
        # Orbits under the rotation group partition the full list.
        orbit_sizes = 0
        for rep in classes:
            orbit = {arc_set(n, [rotate_arc(x, r) for x in rep]).dumps() for r in range(n)}
            orbit_sizes += len(orbit)
        assert orbit_sizes == len(full)


def test_linear_generator_axioms_fan():
    for n in (1, 2, 3):
        rep = check_linear_generator(fan_generator(n), window=5)
        assert rep.passed, rep
    # Larger fans, thinner suspension window to keep the cubic scan small.
    for n in (5, 6):
        rep = check_linear_generator(fan_generator(n), window=2)
        assert rep.passed, rep


def test_linear_generator_axioms_fail_for_non_fan():
    n = 3
    tree = [Arc(n, acc(0, n), acc(1, n)), Arc(n, acc(1, n), acc(2, n))]
    bindings = [
        Arc(n, acc(0, n), pt(0, 0, n)),
        Arc(n, acc(1, n), pt(1, 0, n)),
        Arc(n, acc(2, n), pt(2, 0, n)),
    ]
    g = arc_set(n, tree + bindings)
    assert is_limit_generator(g)
    rep = check_linear_generator(g, window=2)
    assert not rep.total_order[0]
    assert rep.total_order[1] is not None  # a concrete incomparable pair

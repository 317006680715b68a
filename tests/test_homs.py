import importlib
import itertools
import pkgutil
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pianocat
from pianocat import generators, geometry, signs
from pianocat.geometry import Arc, BoundaryPoint, acc, arc_set, pt, suspend
from pianocat.homs import (
    MEMO_SIZE,
    Direction,
    HomDegreeTable,
    HomError,
    compose_directions,
    cone_presentation,
    default_apex,
    ext1_dim,
    extension_triangles,
    factors_through,
    hom_alignment,
    hom_dim,
    morphism_direction,
)
from pianocat.generators import enumerate_limit_generators, fan_generator, fan_summands


def test_ext1_double_limit_self():
    n = 2
    y = Arc(n, acc(0, n), acc(1, n))
    assert ext1_dim(y, y) == 1


def test_ext1_limit_self_zero():
    n = 1
    x = Arc(n, acc(0, n), pt(0, 3, n))
    assert ext1_dim(x, x) == 0


def test_ext1_crossing_pair():
    n = 3
    x = Arc(n, pt(0, 0, n), pt(1, 3, n))
    y = Arc(n, pt(0, 5, n), pt(2, 0, n))
    assert ext1_dim(x, y) == 1
    assert ext1_dim(y, x) == 1  # crossing is symmetric


def test_self_hom_patterns():
    n = 3
    limit = Arc(n, acc(0, n), pt(0, 3, n))
    double = Arc(n, acc(0, n), acc(1, n))
    long_arc = Arc(n, pt(0, 0, n), pt(2, 1, n))
    for i in range(-6, 7):
        assert hom_dim(limit, limit, i) == (1 if i <= 0 else 0)
        assert hom_dim(double, double, i) == 1
        assert hom_dim(long_arc, long_arc, i) == (0 if i == 1 else 1)


def test_hom_identity_always_present():
    n = 2
    for x in (
        Arc(n, acc(0, n), pt(0, 3, n)),
        Arc(n, acc(0, n), acc(1, n)),
        Arc(n, pt(0, 0, n), pt(0, 2, n)),
        Arc(n, pt(0, 0, n), pt(1, 2, n)),
    ):
        assert hom_dim(x, x, 0) == 1


@settings(max_examples=150)
@given(st.integers(-3, 3), st.integers(-4, 4), st.integers(-4, 4))
def test_hom_dim_suspension_invariant(k, p, q):
    n = 3
    x = Arc(n, acc(0, n), pt(0, p, n))
    y = Arc(n, pt(1, q, n), acc(2, n))
    for i in (-2, 0, 1, 3):
        assert hom_dim(x, y, i) == hom_dim(suspend(x, k), suspend(y, k), i)


def test_ext_symmetry_on_crossing_pairs():
    # Both crossing-type extension spaces are nonzero simultaneously.
    n = 4
    pool = [
        Arc(n, pt(0, 0, n), pt(1, 3, n)),
        Arc(n, pt(0, 5, n), pt(2, 0, n)),
        Arc(n, acc(0, n), pt(2, 1, n)),
        Arc(n, acc(1, n), pt(3, 2, n)),
        Arc(n, acc(0, n), acc(2, n)),
        Arc(n, acc(1, n), acc(3, n)),
        Arc(n, pt(1, 0, n), pt(3, 0, n)),
    ]
    from pianocat.geometry import cross

    for x in pool:
        for y in pool:
            if cross(x, y):
                assert ext1_dim(x, y) == 1 == ext1_dim(y, x)


def test_hom_table_serialisation():
    n = 2
    x = Arc(n, acc(0, n), pt(0, 0, n))
    t = HomDegreeTable.build(x, x, 3)
    obj = t.to_json()
    assert obj["window"] == [-3, 3]
    assert obj["dims"]["0"] == 1 and obj["dims"]["1"] == 0
    assert t.to_csv_rows()[0] == ["degree", "dim"]


def test_factors_through_fan_interval():
    n = 1
    y = Arc(n, acc(0, n), pt(0, 0, n))
    z = Arc(n, acc(0, n), pt(0, 5, n))
    assert factors_through(y, y, z)
    assert factors_through(y, z, z)
    assert factors_through(y, Arc(n, acc(0, n), pt(0, 2, n)), z)


def test_factors_through_outside_interval():
    n = 2
    y = Arc(n, acc(0, n), pt(0, 0, n))
    z = Arc(n, acc(0, n), pt(0, 5, n))
    w = Arc(n, acc(1, n), pt(0, 2, n))
    assert not factors_through(y, w, z)


def test_factors_through_requires_morphism():
    n = 2
    y = Arc(n, acc(0, n), pt(0, 0, n))
    with pytest.raises(HomError, match="no morphism"):
        factors_through(y, y, y)


def test_compose_directions_rule():
    fwd, bwd = Direction.FORWARD, Direction.BACKWARD
    assert compose_directions(fwd, fwd) == fwd
    assert compose_directions(fwd, bwd) == compose_directions(bwd, fwd) == bwd
    assert compose_directions(bwd, bwd) is None


def test_compose_direction_table():
    n = 3
    apex = BoundaryPoint(n - 1)
    a = Arc(n, apex, pt(2, 0, n))
    b = Arc(n, apex, acc(0, n))
    c = Arc(n, apex, pt(0, 0, n))
    f, g = morphism_direction(a, b), morphism_direction(b, c)
    assert (f, g) == (Direction.FORWARD, Direction.FORWARD)
    assert compose_directions(f, g) == Direction.FORWARD

    # A backward morphism: the free endpoint sweeps across the apex.
    x = Arc(n, acc(0, n), acc(1, n))
    y = Arc(n, acc(0, n), pt(2, 0, n))
    h = morphism_direction(x, y)
    assert h == Direction.BACKWARD
    k = morphism_direction(y, Arc(n, acc(0, n), pt(2, 5, n)))
    assert compose_directions(h, k) == Direction.BACKWARD
    assert compose_directions(h, Direction.BACKWARD) is None


def test_handles_only_exist_for_nonzero_spaces():
    n = 2
    x = Arc(n, acc(0, n), pt(0, 3, n))
    with pytest.raises(HomError):
        morphism_direction(x, x, 1)  # positive self-degree of a limit arc


def _windowed_fan_objects(n, window):
    return sorted(
        {suspend(x, k) for x in fan_generator(n) for k in range(-window, window + 1)},
        key=Arc.sort_key,
    )


def test_compose_agrees_with_factorisation_on_connected_triples():
    # On triples whose three pairwise degree-zero spaces are all nonzero the
    # direction table must agree with the factorisation criterion.
    objs = _windowed_fan_objects(2, 2)
    for x, y, z in itertools.permutations(objs, 3):
        if (
            hom_dim(x, y, 0) == 1
            and hom_dim(y, z, 0) == 1
            and hom_dim(x, z, 0) == 1
        ):
            composite = compose_directions(morphism_direction(x, y), morphism_direction(y, z))
            assert (composite is not None) == factors_through(x, y, z), (x, y, z)


def test_compose_directions_zero_side_on_generator_summands():
    # The suspensions (window 1) of the summands of every n = 3 generator.
    # On triples with x -> z nonzero, two backward factors never factor,
    # as the rule says; one backward factor may still not factor, so the
    # rule gives the direction of a composite only once it is nonzero.
    objs = {suspend(x, k) for g in enumerate_limit_generators(3) for x in g for k in (-1, 0, 1)}
    assert len(objs) == 30
    tally = Counter()
    for x, y, z in itertools.permutations(sorted(objs, key=Arc.sort_key), 3):
        if hom_dim(x, y, 0) == 1 and hom_dim(y, z, 0) == 1 and hom_dim(x, z, 0) == 1:
            composite = compose_directions(morphism_direction(x, y), morphism_direction(y, z))
            tally[composite, factors_through(x, y, z)] += 1
    fwd, bwd = Direction.FORWARD, Direction.BACKWARD
    assert tally == {(fwd, True): 541, (bwd, True): 599, (bwd, False): 183, (None, False): 45}


def test_extension_triangle_shared_point():
    n = 1
    u = Arc(n, acc(0, n), pt(0, 0, n))
    v = Arc(n, acc(0, n), pt(0, 4, n))
    (t,) = extension_triangles(u, v)
    assert t.middles == (Arc(n, pt(0, 0, n), pt(0, 4, n)),)
    assert hom_dim(t.source, t.middles[0], 0) == 1
    assert hom_dim(t.middles[0], t.target, 0) == 1
    assert hom_dim(t.target, t.source, 1) == 1


def test_extension_triangle_degenerate_middle():
    n = 1
    u = Arc(n, acc(0, n), pt(0, 0, n))
    v = Arc(n, acc(0, n), pt(0, 1, n))
    (t,) = extension_triangles(u, v)
    assert t.middles == ()  # {Pt(0,0), Pt(0,1)} is not an arc


def test_extension_triangles_crossing():
    n = 3
    x = Arc(n, pt(0, 0, n), pt(1, 3, n))
    y = Arc(n, pt(0, 5, n), pt(2, 0, n))
    t1, t2 = extension_triangles(x, y)
    assert len(t1.middles) == 2 and len(t2.middles) == 2
    for t in (t1, t2):
        for mid in t.middles:
            assert hom_dim(t.source, mid, 0) == 1
            assert hom_dim(mid, t.target, 0) == 1
        assert hom_dim(t.target, t.source, 1) == 1


def test_extension_triangles_rejects_unrelated():
    n = 2
    with pytest.raises(HomError, match="no extension triangle"):
        extension_triangles(
            Arc(n, pt(0, 0, n), pt(0, 2, n)), Arc(n, pt(1, 0, n), pt(1, 2, n))
        )


def test_cone_presentation_fan_cases():
    n = 3
    e = fan_generator(n)
    # Already a suspension of a summand.
    q, p = cone_presentation(suspend(Arc(n, acc(2, n), pt(0, 0, n)), 5), e)
    assert q is None and p == Arc(n, acc(2, n), pt(0, -5, n))
    # A double limit arc off the apex gets the two fan arcs at its endpoints.
    q, p = cone_presentation(Arc(n, acc(0, n), acc(1, n)), e)
    assert q == Arc(n, acc(0, n), acc(2, n))
    assert p == Arc(n, acc(1, n), acc(2, n))
    assert hom_dim(q, p, 0) == 1
    # A limit arc off the apex.
    q, p = cone_presentation(Arc(n, acc(0, n), pt(1, 7, n)), e)
    assert q == Arc(n, acc(0, n), acc(2, n))
    assert p == Arc(n, pt(1, 7, n), acc(2, n))


def test_cone_presentation_unreachable():
    n = 4
    # A path-shaped tree cannot present the far double limit arc in one step.
    tree = [
        Arc(n, acc(0, n), acc(1, n)),
        Arc(n, acc(1, n), acc(2, n)),
        Arc(n, acc(2, n), acc(3, n)),
    ]
    from pianocat.geometry import arc_set

    with pytest.raises(HomError):
        cone_presentation(Arc(n, acc(0, n), acc(3, n)), arc_set(n, tree[:2]))


def test_direction_backward_edge_and_apex_incident_arcs():
    n = 4
    # The backward edge of the standard four-point example.
    x = Arc(n, acc(0, n), acc(2, n))
    y = Arc(n, acc(0, n), pt(3, 0, n))
    assert morphism_direction(x, y, 0) == Direction.BACKWARD
    # Arcs incident to the reference point stay forward: the sweep starts at
    # the reference point, which is what the sign propagation of the signed
    # matrix needs.
    a = Arc(n, acc(3, n), acc(1, n))
    b = Arc(n, acc(3, n), acc(2, n))
    assert morphism_direction(a, b, 0) == Direction.FORWARD


def answer(fn, *args):
    """What fn returns, or the type and message of the HomError it raises."""
    try:
        return fn(*args)
    except HomError as exc:
        return HomError, str(exc)


def test_memos_match_their_bodies():
    """Each memoised function against its uncached body, asked twice so that
    the second answer comes from the cache."""
    memos = (ext1_dim, morphism_direction, cone_presentation)
    before = [f.cache_info().hits for f in memos]
    refused = 0
    for n in (1, 2, 3, 4):
        # Every ordered pair of summands of a generator, once each; keyed
        # without the arc hash that the memos rely on.
        pairs = {
            (x.sort_key(), y.sort_key()): (x, y)
            for g in enumerate_limit_generators(n)
            for x in g
            for y in g
        }
        summands = {x.sort_key(): x for x, _ in pairs.values()}
        # The fan at every apex, each an arc set of its own.
        fans = [arc_set(n, fan_summands(n, BoundaryPoint(c))) for c in range(n)]
        for k in range(-6, 7):
            for x, y in pairs.values():
                y_k = suspend(y, k)
                want = ext1_dim.__wrapped__(x, y_k)
                assert ext1_dim(x, y_k) == want == ext1_dim(x, suspend(y, k))
                want = answer(morphism_direction.__wrapped__, x, y, k)
                refused += isinstance(want, tuple)
                for _ in range(2):
                    assert answer(morphism_direction, x, y, k) == want
            for x in summands.values():
                x_k = suspend(x, k)
                for fan in fans:
                    want = answer(cone_presentation.__wrapped__, x_k, fan)
                    for _ in range(2):
                        assert answer(cone_presentation, suspend(x, k), fan) == want
    assert refused > 0
    assert all(f.cache_info().hits > hits for f, hits in zip(memos, before))


def test_tree_and_cone_memos_match_their_bodies():
    """The per-tree memo of ``is_limit_generator`` and the per-summand cone
    memo of ``cone_data`` against their uncached bodies, asked twice so that
    the second answer comes from the cache, on every tree and every summand
    with n <= 5.  Each tree is also asked without its last arc, which no
    tree spans."""
    memos = (generators._is_pre_generator_tree, signs._cone_summand)
    before = [f.cache_info().hits for f in memos]
    answers = Counter()
    for n in (1, 2, 3, 4, 5):
        for pre in generators.enumerate_pre_generators(n):
            doubles = tuple(pre)
            for key in {doubles, doubles[:-1]}:
                want = generators._is_pre_generator_tree.__wrapped__(n, key)
                answers[want] += 1
                for _ in range(2):
                    assert generators._is_pre_generator_tree(n, key) is want
        summands = {x.sort_key(): x for g in enumerate_limit_generators(n) for x in g}
        for x in summands.values():
            want = signs._cone_summand.__wrapped__(x)
            for _ in range(2):
                assert signs._cone_summand(x) == want
    # 1 + 1 + 3 + 12 + 55 trees, and as many non-trees less the empty one of n = 1.
    assert (answers[True], answers[False]) == (72, 71)
    assert all(f.cache_info().hits > hits for f, hits in zip(memos, before))


def test_hom_alignment_memo_matches_its_body():
    # Every ordered pair of summands of the n <= 3 generators of one n,
    # each suspended by -4..4, asked twice so that the second answer comes
    # from the cache.
    hits = hom_alignment.cache_info().hits
    aligned = 0
    for n in (1, 2, 3):
        summands = {x.sort_key(): x for g in enumerate_limit_generators(n) for x in g}
        shifted = [suspend(x, k) for x in summands.values() for k in range(-4, 5)]
        for x in shifted:
            for y in shifted:
                want = hom_alignment.__wrapped__(x, y)
                assert hom_alignment(x, y) == want == hom_alignment(x, y)
                aligned += want is not None
    assert aligned > 0
    assert hom_alignment.cache_info().hits > hits


def test_memos_never_keep_a_refusal():
    n = 3
    x = Arc(n, acc(0, n), pt(0, 3, n))
    misses = morphism_direction.cache_info().misses
    for _ in range(2):  # a zero Hom: positive self-degree of a limit arc
        with pytest.raises(HomError, match="no nonzero degree 1 morphism"):
            morphism_direction(x, x, 1)
    assert morphism_direction.cache_info().misses == misses + 2
    y = Arc(n + 1, acc(0, n + 1), pt(0, 3, n + 1))
    misses = ext1_dim.cache_info().misses
    for _ in range(2):
        with pytest.raises(HomError, match="different n"):
            ext1_dim(x, y)
    assert ext1_dim.cache_info().misses == misses + 2
    tree = arc_set(4, [Arc(4, acc(0, 4), acc(1, 4)), Arc(4, acc(1, 4), acc(2, 4))])
    for _ in range(2):
        with pytest.raises(HomError, match="not the cone"):
            cone_presentation(Arc(4, acc(0, 4), acc(3, 4)), tree)


def test_memos_are_bounded():
    # Every module-level LRU cache of the package, found by introspection,
    # keeps MEMO_SIZE entries; the one exception is the fan of ``signs``,
    # one per n, which keeps 64.
    assert isinstance(MEMO_SIZE, int) and MEMO_SIZE > 0 and MEMO_SIZE == geometry.MEMO_SIZE
    sizes = {}
    for info in pkgutil.iter_modules(pianocat.__path__):
        module = importlib.import_module(f"pianocat.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                sizes[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert sizes.pop("signs._fan") == 64
    assert set(sizes.values()) == {MEMO_SIZE}
    assert {
        "dissections.chord_of_arc",
        "dissections.chord_to_arc",
        "endo._entry",
        "endo._landing",
        "endo._marked_segments",
        "endo._matrix_block",
        "endo._shared",
        "endo._typed_block",
        "generators._is_pre_generator_tree",
        "geometry._suspended",
        "geometry.crosses_under_some_shift",
        "geometry.json_fragment",
        "homs.cone_presentation",
        "homs.default_apex",
        "homs.ext1_dim",
        "homs.hom_alignment",
        "homs.morphism_direction",
        "signs._cone_summand",
    } <= set(sizes)


def test_default_apex_is_one_object_per_n():
    for n in range(1, 7):
        assert default_apex(n) is default_apex(n)
        assert default_apex(n) == default_apex.__wrapped__(n) == BoundaryPoint(n - 1)

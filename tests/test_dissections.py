import copy
import json
import operator
import pickle
import re

import pytest
from count_oracle import extended_dissection_count
from face_oracle import extended_admissible, one_binding_per_green, recursive_faces
from quiver_oracle import gentle_from_dissection

from pianocat import dissections
from pianocat.dissections import (
    ChordArc,
    DissectionError,
    DissectionSet,
    canonical_dissection_key,
    chord_of_arc,
    chord_to_arc,
    chords_cross,
    dissection_from_generator,
    enumerate_admissible_dissections,
    enumerate_extended_dissections,
    extendability_report,
    generator_from_dissection,
    induced_admissible,
    is_admissible_dissection,
    is_extended_admissible,
    rotate_dissection,
)
from pianocat.generators import enumerate_limit_generators, fan_summands
from pianocat.geometry import Arc, acc, arc_set, pt, rotate_arc
from pianocat.quivers import QuiverError, keyboard_from_extended


def test_chords_cross():
    assert chords_cross(ChordArc(0, 3), ChordArc(2, 5))
    assert not chords_cross(ChordArc(0, 2), ChordArc(2, 4))  # shared endpoint
    assert not chords_cross(ChordArc(0, 1), ChordArc(2, 4))


def test_chord_validation():
    with pytest.raises(DissectionError):
        ChordArc(1, 3)  # green-green
    with pytest.raises(DissectionError):
        ChordArc(2, 2)
    assert ChordArc(4, 0).endpoints() == (0, 4)


def _sorted_faces(faces):
    """Faces as a sorted list of (points, sides), each sorted too."""
    return sorted((tuple(sorted(points)), tuple(sorted(sides))) for points, sides in faces)


def _faces_of(size, chords):
    return _sorted_faces(dissections._faces(size, chords, dissections._nesting(chords)))


def test_faces_split_counts():
    assert len(_faces_of(6, [ChordArc(0, 2), ChordArc(2, 4)])) == 3
    # A bigon cut off by a chord between adjacent positions owns one side.
    bigon = [sides for face, sides in _faces_of(4, [ChordArc(0, 1)]) if set(face) == {0, 1}]
    assert bigon == [((0, 1),)]


def small_dissections(max_n):
    for n in range(1, max_n + 1):
        yield from enumerate_admissible_dissections(n)
        yield from enumerate_extended_dissections(n)


def test_faces_match_the_recursive_oracle():
    checked = 0
    for d in small_dissections(4):
        chords = list(d.all_chords())
        for order in (chords, chords[::-1]):
            expected = _sorted_faces(recursive_faces(2 * d.n, order))
            assert _faces_of(2 * d.n, order) == expected
            checked += 1
    assert checked == 2 * (1 + 1 + 3 + 12 + 1 + 4 + 36 + 416)


def test_crossing_chords_raise_the_oracle_error():
    raised = 0
    for d in small_dissections(3):
        size = 2 * d.n
        chords = list(d.all_chords())
        candidates = [
            ChordArc(p, q)
            for p in range(size)
            for q in range(p + 1, size)
            if p % 2 == 0 or q % 2 == 0
        ]
        for c in candidates:
            if c in chords:
                continue
            for order in ([c] + chords, chords + [c]):
                try:
                    recursive_faces(size, order)
                except DissectionError:
                    assert dissections._nesting(order) is None
                    raised += 1
                else:
                    assert dissections._nesting(order) is not None
    assert raised == 180


def test_dissections_refuse_duplicate_and_outside_chords():
    with pytest.raises(DissectionError, match="duplicate"):
        DissectionSet(3, (ChordArc(0, 2), ChordArc(2, 0)), ())
    with pytest.raises(DissectionError, match="outside"):
        DissectionSet(3, (ChordArc(0, 6),), ())
    with pytest.raises(DissectionError, match="outside"):
        DissectionSet(3, (), (ChordArc(1, 6),))
    # One interned chord twice, chords of the wrong colour, and chords off
    # the disc at either end; the first offender in sorted red-then-binding
    # order is named.
    c = ChordArc(0, 2)
    for red, binding in (((c, c), ()), ((), (ChordArc(1, 2), ChordArc(2, 1)))):
        with pytest.raises(DissectionError, match="^duplicate chords$"):
            DissectionSet(3, red, binding)
    off = "outside the disc with 6 positions"
    refusals = [
        ((ChordArc(2, 4), ChordArc(3, 0)), (), "ChordArc(p=0, q=3) is not a red arc"),
        ((), (ChordArc(1, 4), c), "ChordArc(p=0, q=2) is not a binding arc"),
        ((ChordArc(2, 6), ChordArc(8, 0)), (), f"ChordArc(p=0, q=8) {off}"),
        ((c,), (ChordArc(-2, 1),), f"ChordArc(p=-2, q=1) {off}"),
        ((ChordArc(-4, 0),), (ChordArc(1, 6),), f"ChordArc(p=-4, q=0) {off}"),
    ]
    for red, binding, message in refusals:
        with pytest.raises(DissectionError, match=f"^{re.escape(message)}$"):
            DissectionSet(3, red, binding)


def test_chords_are_interned():
    for p, q in ((0, 2), (1, 4), (6, 3), (0, 11), (-2, 7)):
        c = ChordArc(p, q)
        # The endpoints in either order, by position or by keyword.
        assert ChordArc(q, p) is c and ChordArc(q=q, p=p) is c and ChordArc(p=q, q=p) is c
        assert c.endpoints() == (min(p, q), max(p, q))
        assert c.is_red_arc == (p % 2 == 0 and q % 2 == 0)
        assert copy.copy(c) is c and copy.deepcopy(c) is c
        assert pickle.loads(pickle.dumps(c)) is c
    # So a chord hashes and compares by identity, in C.
    assert ChordArc.__hash__ is object.__hash__ and ChordArc.__eq__ is object.__eq__
    # Every chord of the n <= 4 dissections, read back from JSON and
    # rotated once round the disc.
    for n in (1, 2, 3, 4):
        for d in enumerate_extended_dissections(n):
            chords = d.all_chords()
            assert all(map(operator.is_, DissectionSet.from_json(d.to_json()).all_chords(), chords))
            back = rotate_dissection(rotate_dissection(d, 1), n - 1)
            assert all(map(operator.is_, back.all_chords(), chords))
    # A refused value is never stored, so it raises on every call.
    for _ in range(2):
        with pytest.raises(DissectionError, match="distinct"):
            ChordArc(2, 2)
        with pytest.raises(DissectionError, match="green-green"):
            ChordArc(3, 1)
    assert (2, 2) not in dissections._CHORDS and (1, 3) not in dissections._CHORDS


def test_dumps_joins_the_bytes_of_json_dumps():
    # Every generator and every extended dissection with n <= 5, in each of
    # its rotations, and sets whose positions are negative or have two
    # digits, with n >= 10.
    def same(item):
        return item.dumps() == json.dumps(item.to_json(), sort_keys=True)

    for n in range(1, 6):
        gens, diss = enumerate_limit_generators(n), enumerate_extended_dissections(n)
        for r in range(n):
            assert all(same(arc_set(n, [rotate_arc(x, r) for x in g])) for g in gens)
            assert all(same(rotate_dissection(d, r)) for d in diss)
    n = 12
    arcs = [
        Arc(n, pt(0, -3, n), pt(0, 10, n)),
        Arc(n, acc(11, n), pt(10, -12, n)),
        Arc(n, acc(0, n), acc(10, n)),
        Arc(n, pt(11, 99, n), acc(3, n)),
    ]
    assert same(arc_set(n, arcs)) and same(arc_set(1, []))
    red = (ChordArc(0, 18), ChordArc(2, 16), ChordArc(4, 10))
    assert same(DissectionSet(10, red, (ChordArc(19, 0), ChordArc(5, 12))))
    assert same(DissectionSet(1, (), ()))


def test_chord_memo_matches_its_body():
    # Every summand of the n <= 4 generators, as the shared object and as a
    # fresh equal copy, which is the shared object, asked twice so that the
    # second answer comes from the cache.
    hits = chord_of_arc.cache_info().hits
    for n in (1, 2, 3, 4):
        for x in {x for g in enumerate_limit_generators(n) for x in g}:
            want = chord_of_arc.__wrapped__(x)
            fresh = Arc(n, x.a, x.b)
            assert fresh is x
            for _ in range(2):
                assert chord_of_arc(x) == want == chord_of_arc(fresh)
    assert chord_of_arc.cache_info().hits > hits


def test_chord_memo_never_keeps_a_refusal():
    n = 3
    # A short, then a long arc, asked twice.
    for x in (Arc(n, pt(0, 0, n), pt(0, 2, n)), Arc(n, pt(0, 0, n), pt(1, 0, n))):
        misses = chord_of_arc.cache_info().misses
        for _ in range(2):
            with pytest.raises(DissectionError, match="not a \\(double\\) limit arc"):
                chord_of_arc(x)
        assert chord_of_arc.cache_info().misses == misses + 2


def test_chord_preimage_memo_matches_its_body():
    # Every chord of the n <= 4 generators, as the shared object and as a
    # fresh equal copy, asked twice so that the second answer comes from
    # the cache; every answer is the one interned arc.
    hits = chord_to_arc.cache_info().hits
    for n in (1, 2, 3, 4):
        for c in {chord_of_arc(x) for g in enumerate_limit_generators(n) for x in g}:
            want = chord_to_arc.__wrapped__(c, n)
            for _ in range(2):
                assert chord_to_arc(c, n) is want is chord_to_arc(ChordArc(c.p, c.q), n)
    assert chord_to_arc.cache_info().hits > hits


def test_chord_preimage_memo_never_keeps_a_refusal():
    # A chord to a position outside the disc of n = 3, asked twice.
    misses = chord_to_arc.cache_info().misses
    for _ in range(2):
        with pytest.raises(DissectionError, match="no arc preimage"):
            chord_to_arc(ChordArc(0, 8), 3)
    assert chord_to_arc.cache_info().misses == misses + 2


def test_induced_dissection_is_admissible():
    # What lets keyboard_from_extended build on the induced dissection
    # without checking its admissibility again.
    count = 0
    for n in range(1, 6):
        for d in enumerate_extended_dissections(n):
            assert is_admissible_dissection(induced_admissible(d))
            count += 1
    assert count == 1 + 4 + 36 + 416 + 5440


def test_builders_still_refuse_invalid_input():
    fan3 = dissection_from_generator(fan_summands(3), 3)
    fewer = DissectionSet(3, fan3.red, fan3.binding[:-1])
    with pytest.raises(DissectionError, match="not an extended admissible dissection"):
        keyboard_from_extended(fewer)
    triangle = DissectionSet(3, (ChordArc(0, 2), ChordArc(0, 4), ChordArc(2, 4)), ())
    with pytest.raises(QuiverError, match="dissection is not admissible"):
        gentle_from_dissection(triangle)
    with pytest.raises(QuiverError, match="red only"):
        gentle_from_dissection(fan3)
    induced = induced_admissible(fan3)
    with pytest.raises(QuiverError, match="vertex order"):
        gentle_from_dissection(induced, vertex_order=list(induced.red[1:]))
    with pytest.raises(QuiverError, match="vertex order"):
        keyboard_from_extended(fan3, vertex_order=list(fan3.all_chords())[1:])


def test_keyboard_vertex_order_lists_each_chord_once():
    # The vertex order is checked against the dissection's own chords: a
    # repeated, missing, extra or foreign chord is refused, and the order is
    # free otherwise.
    fan3 = dissection_from_generator(fan_summands(3), 3)
    chords = list(fan3.all_chords())
    assert ChordArc(0, 2) not in chords
    for order in (
        chords[:-1] + chords[:1],  # repeated
        chords + chords[:1],  # every chord, one of them twice
        chords[1:],  # missing
        chords + [ChordArc(0, 2)],  # extra
        [ChordArc(0, 2)] + chords[1:],  # foreign
    ):
        with pytest.raises(QuiverError, match="vertex order"):
            keyboard_from_extended(fan3, vertex_order=order)
    kb = keyboard_from_extended(fan3, vertex_order=chords[::-1])
    assert kb.gentle.labels == tuple(chords[::-1])


def test_keyboard_refuses_what_induced_admissible_refuses(monkeypatch):
    crossing = DissectionSet(
        3,
        (ChordArc(0, 4), ChordArc(2, 4)),
        (ChordArc(1, 0), ChordArc(3, 2), ChordArc(5, 2)),  # {5, 2} crosses {0, 4}
    )
    for build in (induced_admissible, keyboard_from_extended):
        with pytest.raises(DissectionError, match="not an extended admissible dissection"):
            build(crossing)
    # Every other refusal is the rule's last clause, one boundary side per
    # face, so the side counts of an accepted dissection are altered: the
    # first face's side moves to the second.
    fan3 = dissection_from_generator(fan_summands(3), 3)
    assert is_extended_admissible(fan3)
    side_counts = dissections._side_counts

    def moved_side(size, chords, parent):
        s0, s1, *rest = side_counts(size, chords, parent)
        return [0, s1 + s0, *rest]

    monkeypatch.setattr(dissections, "_side_counts", moved_side)
    for build in (induced_admissible, keyboard_from_extended):
        with pytest.raises(DissectionError, match="not an extended admissible dissection"):
            build(fan3)


def test_side_counts_match_the_face_walk():
    # ``is_extended_admissible`` counts sides from the chord spans; the face
    # walk lists them.  Every extended dissection with n <= 5 (all its
    # counts are one), and every candidate with n <= 4 whose chords do not
    # cross, some of whose faces own no side or two.
    def dissections_to_compare():
        for n in (1, 2, 3, 4, 5):
            yield from enumerate_extended_dissections(n)
        for n in (1, 2, 3, 4):
            yield from one_binding_per_green(n)

    compared, counts_seen = 0, set()
    for d in dissections_to_compare():
        chords = d.all_chords()
        parent = dissections._nesting(chords)
        if parent is None:
            continue
        size = 2 * d.n
        counts = dissections._side_counts(size, chords, parent)
        assert counts == [len(sides) for _, sides in dissections._faces(size, chords, parent)], d
        compared += 1
        counts_seen.update(counts)
    assert (compared, counts_seen) == (5897 + 585, {0, 1, 2})


def test_extended_admissible_matches_the_reference_rule():
    # Every candidate with n <= 4 and one binding chord per green point,
    # against a reference built on ``chords_cross`` and ``recursive_faces``
    # (one green point per face of the red chords alone), which shares
    # neither ``_nesting`` nor ``_faces`` with the library.
    candidates = admissible = 0
    for n in (1, 2, 3, 4):
        for d in one_binding_per_green(n):
            want = extended_admissible(d)
            assert is_extended_admissible(d) == want, d
            candidates += 1
            admissible += want
    assert (candidates, admissible) == (1 + 4 + 81 + 5120, 1 + 4 + 36 + 416)


def test_admissible_examples():
    assert is_admissible_dissection(
        DissectionSet(3, (ChordArc(0, 2), ChordArc(2, 4)), ())
    )
    # Three chords on three red points cut off a green-free triangle.
    assert not is_admissible_dissection(
        DissectionSet(3, (ChordArc(0, 2), ChordArc(0, 4), ChordArc(2, 4)), ())
    )
    assert is_admissible_dissection(DissectionSet(2, (ChordArc(0, 2),), ()))
    assert is_admissible_dissection(DissectionSet(1, (), ()))


def test_extended_admissible_examples():
    fan3 = dissection_from_generator(fan_summands(3), 3)
    assert is_extended_admissible(fan3)
    assert len(fan3.all_chords()) == 5
    # Dropping a binding arc breaks the count.
    fewer = DissectionSet(3, fan3.red, fan3.binding[:-1])
    assert not is_extended_admissible(fewer)
    # Two binding arcs on one green point, and none on the other, are
    # rejected.
    assert not is_extended_admissible(
        DissectionSet(2, (ChordArc(0, 2),), (ChordArc(1, 0), ChordArc(1, 2)))
    )
    n1 = DissectionSet(1, (), (ChordArc(0, 1),))
    assert is_extended_admissible(n1)


def test_extended_rejects_crossing_binding():
    # Binding {5, 2} crosses the red chord {0, 4}.
    d = DissectionSet(
        3,
        (ChordArc(0, 4), ChordArc(2, 4)),
        (ChordArc(1, 0), ChordArc(3, 2), ChordArc(5, 2)),
    )
    assert not is_extended_admissible(d)


def test_induced_admissible_and_round_trip():
    for n in (1, 2, 3):
        for d in enumerate_extended_dissections(n):
            induced = induced_admissible(d)
            assert induced.n == 2 * n
            assert is_admissible_dissection(induced)
            assert len(induced.red) == 2 * n - 1
            ok, cond, rebuilt = extendability_report(induced)
            assert ok and cond is None
            assert rebuilt == d


def test_extendability_failures():
    # Odd red count.
    d = DissectionSet(3, (ChordArc(0, 2), ChordArc(2, 4)), ())
    ok, cond, _ = extendability_report(d)
    assert not ok and cond == 1
    # Even count but no alternating class with single incidences: the path
    # tree on four points has a vertex of degree 2 in both classes.
    d = DissectionSet(
        4, (ChordArc(0, 2), ChordArc(2, 4), ChordArc(4, 6)), ()
    )
    ok, cond, _ = extendability_report(d)
    assert not ok and cond == 2


def test_epsilon_round_trip_small():
    for n in (1, 2, 3):
        for g in enumerate_limit_generators(n):
            d = dissection_from_generator(list(g), n)
            assert is_extended_admissible(d)
            back = sorted(generator_from_dissection(d), key=Arc.sort_key)
            assert tuple(back) == g.arcs


def test_epsilon_bijection_counts():
    for n in (1, 2, 3, 4):
        gens = enumerate_limit_generators(n)
        diss = enumerate_extended_dissections(n)
        assert len(gens) == len(diss)
        images = {dissection_from_generator(list(g), n).dumps() for g in gens}
        assert images == {d.dumps() for d in diss}


def test_epsilon_respects_rotation():
    n = 3
    g = list(enumerate_limit_generators(n)[5])
    from pianocat.geometry import rotate_arc

    rotated_first = dissection_from_generator([rotate_arc(x, 1) for x in g], n)
    rotated_second = rotate_dissection(dissection_from_generator(g, n), 1)
    assert rotated_first == rotated_second


def test_admissible_enumeration_counts():
    # Non-crossing spanning trees on n points on a circle.
    expected = {1: 1, 2: 1, 3: 3, 4: 12, 5: 55, 6: 273}
    for n, count in expected.items():
        assert len(enumerate_admissible_dissections(n)) == count


def test_enumerations_match_the_independent_count():
    # The interval recursion of ``count_oracle`` counts without enumerating.
    # Unweighted it counts the red trees alone, which the binding choices
    # multiply: the negative control.
    for n in range(1, 6):
        count = extended_dissection_count(n)
        assert count == len(enumerate_extended_dissections(n))
        assert count == len(enumerate_limit_generators(n))
        trees = extended_dissection_count(n, weighted=False)
        assert trees == len(enumerate_admissible_dissections(n))
        assert (trees == count) == (n == 1)
    assert [extended_dissection_count(n) for n in (6, 7)] == [76608, 1133440]


def test_arc_count_formulas():
    for n in (1, 2, 3, 4):
        for d in enumerate_admissible_dissections(n):
            assert len(d.red) == n - 1
            assert is_admissible_dissection(d)
        for d in enumerate_extended_dissections(n):
            assert len(d.all_chords()) == 2 * n - 1


def test_counting_formulas_for_general_surfaces():
    from pianocat.dissections import admissible_arc_count, extended_arc_count

    # Unpunctured disc: the usual counts.
    for n in range(1, 7):
        assert admissible_arc_count(n) == n - 1
        assert extended_arc_count(2 * n) == 2 * n - 1
    # A disc with five red boundary points and one green puncture carries
    # five arcs; an annulus adds one more.
    assert admissible_arc_count(5, punctures=1) == 5
    assert admissible_arc_count(5, punctures=1, boundary_components=2) == 6
    # The genus term contributes twice, and green punctures need bindings.
    assert admissible_arc_count(4, genus=1) == 5
    assert extended_arc_count(10, punctures=1, green_punctures=1) == 11


def test_dissection_json_round_trip():
    d = dissection_from_generator(fan_summands(3), 3)
    assert DissectionSet.from_json(d.to_json()) == d


def test_canonical_key_is_rotation_invariant():
    d = dissection_from_generator(fan_summands(3), 3)
    for r in range(3):
        assert canonical_dissection_key(rotate_dissection(d, r)) == canonical_dissection_key(d)

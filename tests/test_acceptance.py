"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines
and the timings.
"""

import dataclasses
import time
from collections import Counter

from exhaustive import enumerate_composable_words
from pianocat.cli import Config, run_verifiers
from pianocat.confluence import all_terminals, critical_pair_report
from pianocat.dissections import (
    ChordArc,
    DissectionSet,
    dissection_from_generator,
    enumerate_admissible_dissections,
    enumerate_extended_dissections,
    is_admissible_dissection,
    is_extended_admissible,
)
from pianocat.endo import EndoAlgebra, RingKind, piano_of_generator, verify_path_algebra_iso
from pianocat.generators import (
    check_linear_generator,
    decompose,
    enumerate_limit_generators,
    fan_generator,
    fan_summands,
    is_limit_generator,
    is_limit_pre_generator,
)
from pianocat.geometry import Arc, BoundaryPoint as BP, arc_set
from pianocat.quivers import (
    GentleQuiver,
    KeyboardQuiver,
    PianoQuiver,
    arrow_path,
    degree_component_structure,
    graded_dim,
    normal_form,
    piano_from_keyboard,
)
from pianocat.signs import (
    check_beta_delta,
    signed_matrix,
    verify_phi_homomorphism,
)


# Limit generators, and so extended admissible dissections, for n = 1..5.
GENERATOR_COUNTS = {1: 1, 2: 4, 3: 36, 4: 416, 5: 5440}


def _report(number: int, name: str, passed: bool, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} ({name}): {status}  [{time.time() - started:.1f}s]")
    assert passed


def test_criterion_01_arc_count_formulas():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        admissible = enumerate_admissible_dissections(n)
        ok &= all(len(d.red) == n - 1 for d in admissible)
        extended = enumerate_extended_dissections(n)
        ok &= all(len(d.all_chords()) == 2 * n - 1 for d in extended)
        sample = admissible if n <= 4 else admissible[::17]
        ok &= all(is_admissible_dissection(d) for d in sample)
        esample = extended if n <= 4 else extended[::97]
        ok &= all(is_extended_admissible(d) for d in esample)
    elapsed = time.time() - t0
    _report(1, "arc-count formulas", ok and elapsed < 10.0, t0)


def test_criterion_02_bijection():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        (record,) = run_verifiers(["bijection"], Config(n=n))
        ok &= record["n"] == n and record["passed"]
        ok &= record["generators"] == record["dissections"] == GENERATOR_COUNTS[n]
    elapsed = time.time() - t0
    _report(2, "bijection with dissections", ok and elapsed < 60.0, t0)


def test_criterion_03_decomposition():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        for g in enumerate_limit_generators(n):
            ok &= len(g) == 2 * n - 1
            dec = decompose(g)
            ok &= is_limit_pre_generator(dec.pre_generator)
            ok &= len(dec.pre_generator) == n - 1
            ok &= len(dec.limit_part) == n
            ok &= sorted(dec.segment_assignment) == list(range(n))
            ok &= set(dec.pre_generator) | set(dec.limit_part) == set(g)
    _report(3, "summand decomposition", ok, t0)


def test_criterion_04_fan_endomorphism_ring():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        algebra = EndoAlgebra.from_arcs(fan_summands(n))
        for i in range(algebra.size):
            for j in range(algebra.size):
                kind = algebra.entry(i, j)
                if i == j:
                    ok &= kind == (RingKind.POLY if i % 2 == 0 else RingKind.LAURENT)
                elif i > j:
                    ok &= kind == RingKind.ZERO
                else:
                    ok &= kind == RingKind.LAURENT
    algebra = EndoAlgebra.from_arcs(fan_summands(3))
    for i in range(-6, 7):
        total = sum(algebra.dim(a, b, i) for a in range(algebra.size) for b in range(algebra.size))
        ok &= total == (15 if i <= 0 else 12)
    elapsed = time.time() - t0
    _report(4, "fan endomorphism ring", ok and elapsed < 1.0, t0)


def test_criterion_05_path_algebra_isomorphism():
    t0 = time.time()
    ok = True
    for n in range(1, 5):
        for g in enumerate_limit_generators(n):
            report = verify_path_algebra_iso(list(g), n, window=6)
            if not report.passed:
                ok = False
                print("  mismatch:", report.to_json()["witnesses"][:2])
                break
    elapsed = time.time() - t0
    _report(5, "graded path algebra isomorphism", ok and elapsed < 300.0, t0)


def test_criterion_06_degree_components():
    t0 = time.time()
    ok = True
    for n in range(1, 5):
        for g in enumerate_limit_generators(n):
            p = piano_of_generator(list(g), n)
            for i in range(-6, 7):
                expected = degree_component_structure(p, i)
                actual = [
                    [graded_dim(p, a, b, i) for b in range(p.num_vertices)]
                    for a in range(p.num_vertices)
                ]
                if expected != actual:
                    ok = False
                    break
    _report(6, "degree component structure", ok, t0)


def _nine_vertex_example_piano() -> PianoQuiver:
    from tests.test_quivers import EXAMPLE_CHORDS, example_dissection

    from pianocat.quivers import piano_from_extended

    return piano_from_extended(
        example_dissection(), vertex_order=[EXAMPLE_CHORDS[k] for k in range(1, 10)]
    )


def test_criterion_07_confluence_and_oracle():
    t0 = time.time()
    ok = True
    quivers = []
    for n in (1, 2, 3):
        quivers += [piano_of_generator(list(g), n) for g in enumerate_limit_generators(n)]
    quivers += [piano_of_generator(fan_summands(n)) for n in (4, 5)]
    quivers.append(_nine_vertex_example_piano())
    assert all(q.num_vertices <= 9 for q in quivers)
    # One pass over the composable words of each piano up to the length cap
    # feeds two oracles: the exhaustive confluence search, and the
    # exhaustive path enumeration that the closed-form dimensions must match
    # wherever a witness word fits under the cap.
    cap = 8
    for p in quivers:
        terminals: dict = {}
        divergent = None
        found = {(v, v, 0) for v in range(p.num_vertices)}
        for w in enumerate_composable_words(p, cap):
            if divergent is None and len(all_terminals(p, w, terminals)) != 1:
                divergent = w
            nf = normal_form(p, w)
            if not nf.is_zero:
                found.add((nf.source, nf.target, nf.degree))
        # The critical-pair proof, which covers words of every length, gives
        # the verdict of the exhaustive search up to length 8.
        if critical_pair_report(p)[0] != (divergent is None):
            ok = False
            print("  critical pairs and the length-8 search disagree:", p.dumps())
        if divergent is not None:
            ok = False
            print("  divergent word:", divergent)
            break
        for a in range(p.num_vertices):
            for b in range(p.num_vertices):
                path = arrow_path(p, a, b)
                for m in range(-4, 5):
                    if graded_dim(p, a, b, m) == 1:
                        witness_length = (len(path) if path else 0) + abs(m) + 1
                        if witness_length <= cap and (a, b, m) not in found:
                            ok = False
                    elif (a, b, m) in found:
                        ok = False
    _report(7, "rewriting confluence and path oracle", ok, t0)


def _four_point_example():
    n = 4
    arcs = [
        Arc(n, BP(0), BP(3, 0)),
        Arc(n, BP(0), BP(2)),
        Arc(n, BP(0), BP(0, 0)),
        Arc(n, BP(2), BP(1, 0)),
        Arc(n, BP(1), BP(2)),
        Arc(n, BP(3), BP(2)),
        Arc(n, BP(3), BP(2, 0)),
    ]
    return arcs


def test_criterion_08_signed_matrix():
    t0 = time.time()
    arcs = _four_point_example()
    m = signed_matrix(arcs, ("beta", 4))
    ok = m.diagonal() == (1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1)
    # Both sign choices of every generator, at window 4.
    for n in range(1, 5):
        records = list(run_verifiers(["beta-delta", "derived-equiv"], Config(n=n, window=4)))
        ok &= all(r["passed"] and r["n"] == n for r in records)
        per_check = 2 * GENERATOR_COUNTS[n]
        ok &= Counter(r["check"] for r in records) == {
            "beta-delta": per_check,
            "derived-equiv": per_check,
        }
    elapsed = time.time() - t0
    _report(8, "signed matrix and sign homomorphism", ok and elapsed < 300.0, t0)


def test_criterion_09_linear_generator_axioms():
    t0 = time.time()
    ok = True
    for n in range(1, 5):
        report = check_linear_generator(fan_generator(n), window=6)
        ok &= report.passed
    _report(9, "linear generator axioms", ok, t0)


def test_criterion_10_negative_controls():
    t0 = time.time()
    detections = []

    # Flipped sign in a signed matrix.
    arcs = _four_point_example()
    m = signed_matrix(arcs, ("beta", 4))
    corrupted = dataclasses.replace(m, beta=tuple(-b for b in m.beta))
    r = check_beta_delta(corrupted, arcs)
    r2 = verify_phi_homomorphism(arcs, corrupted, window=2)
    detections.append(not (r.passed and r2.passed) and bool(r.witnesses + r2.witnesses))

    # Removed relation: a dead word is no longer detected as zero.
    p = _nine_vertex_example_piano()
    (rel,) = [r for r in p.relations if p.arrows[r[0]].src == 1]
    word = (("d", rel[0]), ("d", rel[1]))
    stripped = piano_from_keyboard(
        KeyboardQuiver(
            GentleQuiver(
                p.keyboard.gentle.num_vertices,
                p.keyboard.gentle.labels,
                p.keyboard.gentle.arrows,
                frozenset(),
            ),
            p.keyboard.sharp,
        )
    )
    detections.append(
        normal_form(p, word).is_zero and not normal_form(stripped, word).is_zero
    )

    # Extra arc: the dissection and generator predicates both reject.
    fan = dissection_from_generator(fan_summands(3), 3)
    bloated = DissectionSet(3, fan.red + (ChordArc(0, 2),), fan.binding)
    detections.append(not is_extended_admissible(bloated))
    n = 3
    extra = arc_set(n, list(fan_generator(3)) + [Arc(n, BP(2), BP(0, 5))])
    detections.append(not is_limit_generator(extra))

    # Corrupted sharp set: the dimension comparison locates a witness.
    honest = piano_of_generator(fan_summands(2), 2)
    swapped = piano_from_keyboard(
        KeyboardQuiver(
            honest.keyboard.gentle,
            frozenset(range(honest.num_vertices)) - honest.keyboard.sharp,
        )
    )
    report = verify_path_algebra_iso(fan_summands(2), 2, window=3, piano=swapped)
    detections.append(not report.passed and len(report.witnesses) > 0)

    # Removed commutation: normal forms of one class diverge.
    p3 = piano_of_generator(fan_summands(3))
    w1 = (("b", 1), ("d", 1), ("d", 2))
    w2 = (("d", 1), ("d", 2), ("b", 3))
    crippled = PianoQuiver(p3.keyboard, ())
    detections.append(
        normal_form(p3, w1).word == normal_form(p3, w2).word
        and normal_form(crippled, w1).word != normal_form(crippled, w2).word
    )

    ok = all(detections)
    print(f"  detections: {sum(detections)}/{len(detections)}")
    _report(10, "negative controls", ok, t0)

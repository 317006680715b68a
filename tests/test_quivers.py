import dataclasses
import functools
import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exhaustive import confluence_report, enumerate_composable_words
from quiver_oracle import compose, gentle_from_dissection
from pianocat import confluence
from pianocat.confluence import all_terminals, critical_pair_report, rule_instances
from pianocat.dissections import (
    ChordArc,
    DissectionSet,
    dissection_from_generator,
    enumerate_extended_dissections,
)
from pianocat.endo import piano_of_generator
from pianocat.generators import enumerate_limit_generators, fan_summands
from pianocat.quivers import (
    GentleQuiver,
    Arrow,
    KeyboardQuiver,
    PathNormalForm,
    PianoQuiver,
    QuiverError,
    Shape,
    _doubled,
    canonical_word,
    degree_component_structure,
    graded_dim,
    is_locally_gentle,
    keyboard_from_extended,
    normal_form,
    one_step_rewrites,
    piano_from_extended,
    piano_from_keyboard,
    product_is_zero,
    quiver_to_dot,
    skeleton_dead,
    validate_word,
    zero_degree_pairs,
)

# The five-green-point worked example: red arcs 1,3,5,8 and binding arcs
# 2,4,6,7,9 on a ten-position disc.
EXAMPLE_CHORDS = {
    1: ChordArc(0, 4),
    2: ChordArc(0, 1),
    3: ChordArc(0, 8),
    4: ChordArc(3, 4),
    5: ChordArc(2, 4),
    6: ChordArc(5, 4),
    7: ChordArc(9, 8),
    8: ChordArc(6, 8),
    9: ChordArc(6, 7),
}


def example_dissection() -> DissectionSet:
    return DissectionSet(
        5,
        tuple(EXAMPLE_CHORDS[k] for k in (1, 3, 5, 8)),
        tuple(EXAMPLE_CHORDS[k] for k in (2, 4, 6, 7, 9)),
    )


def example_keyboard():
    order = [EXAMPLE_CHORDS[k] for k in range(1, 10)]
    return keyboard_from_extended(example_dissection(), vertex_order=order)


def test_example_keyboard_quiver():
    kb = example_keyboard()
    arrows = sorted((e.src + 1, e.tgt + 1) for e in kb.gentle.arrows)
    assert arrows == sorted(
        [(2, 1), (6, 1), (1, 5), (1, 3), (5, 4), (3, 8), (9, 8), (7, 3)]
    )
    relations = sorted(
        (kb.gentle.arrows[a].src + 1, kb.gentle.arrows[a].tgt + 1, kb.gentle.arrows[b].tgt + 1)
        for a, b in kb.gentle.relations
    )
    assert relations == [(1, 3, 8), (2, 1, 5), (6, 1, 3)]
    assert sorted(v + 1 for v in kb.sharp) == [2, 4, 6, 7, 9]
    assert is_locally_gentle(kb.gentle)


def test_example_generator_and_dissection_give_the_same_keyboard():
    # The arc preimage of the worked dissection is a limit generator whose
    # keyboard quiver, built through the bijection, coincides arrow for
    # arrow with the one built from the chords directly.
    from pianocat.dissections import chord_to_arc, dissection_from_generator
    from pianocat.endo import verify_path_algebra_iso
    from pianocat.generators import is_limit_generator
    from pianocat.geometry import arc_set

    order = [EXAMPLE_CHORDS[k] for k in range(1, 10)]
    arcs = [chord_to_arc(c, 5) for c in order]
    assert is_limit_generator(arc_set(5, arcs))
    assert dissection_from_generator(arcs, 5) == example_dissection()
    direct = keyboard_from_extended(example_dissection(), vertex_order=order)
    through_arcs = keyboard_from_extended(
        dissection_from_generator(arcs, 5), vertex_order=order
    )
    assert direct.gentle.arrows == through_arcs.gentle.arrows
    assert direct.gentle.relations == through_arcs.gentle.relations
    assert direct.sharp == through_arcs.sharp
    assert verify_path_algebra_iso(arcs, 5, window=3).passed


# SHA-256 of every piano with n <= 4, concatenated in enumeration order,
# as built by the recursive face split and the pairwise checks that
# preceded the single validation pass.
PIANO_DIGEST_N4 = "cee3d56afa70e811cbc54dcf98507d1e4d383dd64ba6315ba8fb3e6b471a71ed"


def test_pianos_are_pinned_up_to_n4():
    digest = hashlib.sha256()
    count = 0
    for n in (1, 2, 3, 4):
        for g in enumerate_limit_generators(n):
            digest.update(piano_of_generator(list(g), n).dumps().encode())
            count += 1
    assert count == 1 + 4 + 36 + 416
    assert digest.hexdigest() == PIANO_DIGEST_N4


def test_chord_doubling_memo_matches_its_body():
    # Every chord of the n <= 4 extended dissections, as the shared object
    # and as a fresh equal copy, asked twice so that the second answer
    # comes from the cache; and the sharp vertices, read off endpoint
    # parity, are exactly the binding arcs.
    hits = _doubled.cache_info().hits
    for n in (1, 2, 3, 4):
        for d in enumerate_extended_dissections(n):
            chords = d.all_chords()
            for c in chords:
                want = _doubled.__wrapped__(c)
                for _ in range(2):
                    assert _doubled(c) == want == _doubled(ChordArc(c.p, c.q))
            sharp = frozenset(i for i, c in enumerate(chords) if c.is_binding)
            assert keyboard_from_extended(d).sharp == sharp
    assert _doubled.cache_info().hits > hits


def test_single_chord_dissection_quiver():
    q = gentle_from_dissection(DissectionSet(2, (ChordArc(0, 2),), ()))
    assert q.num_vertices == 1 and not q.arrows
    assert is_locally_gentle(q)


def test_standard_subquiver_is_tree():
    for n in (2, 3):
        for g in enumerate_limit_generators(n):
            kb = keyboard_from_extended(dissection_from_generator(list(g), n))
            standard = [v for v in range(kb.num_vertices) if v not in kb.sharp]
            assert len(standard) == n - 1
            edges = [
                e for e in kb.gentle.arrows if e.src not in kb.sharp and e.tgt not in kb.sharp
            ]
            assert len(edges) <= max(len(standard) - 1, 0) or len(standard) <= 1
            # No arrow joins two sharp vertices.
            for e in kb.gentle.arrows:
                assert not (e.src in kb.sharp and e.tgt in kb.sharp)


def test_is_locally_gentle_negatives():
    # Three arrows out of one vertex.
    q = GentleQuiver(
        4,
        tuple(range(4)),
        (Arrow(0, 1, 0), Arrow(0, 2, 1), Arrow(0, 3, 2)),
        frozenset(),
    )
    assert not is_locally_gentle(q)
    # Two relations continuing the same arrow.
    q = GentleQuiver(
        4,
        tuple(range(4)),
        (Arrow(0, 1, 0), Arrow(1, 2, 1), Arrow(1, 3, 2)),
        frozenset({(0, 1), (0, 2)}),
    )
    assert not is_locally_gentle(q)
    # Disconnected quiver.
    q = GentleQuiver(2, (0, 1), (), frozenset())
    assert not is_locally_gentle(q)


def test_fan_piano_quiver_shape():
    for n in (1, 2, 3):
        p = piano_of_generator(fan_summands(n))
        assert p.num_vertices == 2 * n - 1
        assert sorted(p.sharp) == list(range(0, 2 * n - 1, 2))
        assert [(e.src, e.tgt) for e in p.arrows] == [
            (i, i + 1) for i in range(2 * n - 2)
        ]
        assert not p.relations


def test_normal_form_loop_cancellation():
    p = piano_of_generator(fan_summands(2))
    nf = normal_form(p, (("a", 1), ("b", 1)))
    assert not nf.is_zero and nf.degree == 0 and nf.word == ()
    nf = normal_form(p, (("b", 1), ("a", 1), ("a", 1)))
    assert nf.degree == -1 and nf.shape == Shape.DELTA_ALPHA


def test_normal_form_zero_on_relation():
    kb = example_keyboard()
    p = piano_from_extended(example_dissection(), vertex_order=[EXAMPLE_CHORDS[k] for k in range(1, 10)])
    (rel,) = [r for r in p.relations if p.arrows[r[0]].src == 1]  # (2,1,5)
    word = (("d", rel[0]), ("d", rel[1]))
    assert normal_form(p, word).is_zero
    # Loops between the dead pair do not rescue it.
    word = (("d", rel[0]), ("a", p.arrows[rel[0]].tgt), ("d", rel[1]))
    assert normal_form(p, word).is_zero


def test_normal_form_beta_parks_before_sharp_target():
    p = piano_of_generator(fan_summands(2))
    # Vertex 1 is the only non-sharp one; arrow 1 -> 2 enters a sharp vertex.
    word = (("b", 1), ("d", 1))
    nf = normal_form(p, word)
    assert nf.shape == Shape.DELTA_BETA_DELTA
    assert nf.degree == 1
    # With the inverse loop appended the pair cancels across the arrow.
    nf = normal_form(p, (("b", 1), ("d", 1), ("a", 2)))
    assert nf.degree == 0 and nf.shape == Shape.DELTA_ALPHA and len(nf.word) == 1


def test_normal_form_pushes_beta_through_sharp_runs():
    p = piano_of_generator(fan_summands(3))
    # beta at 1, then arrows 1->2->3 (2 sharp, 3 non-sharp).
    word = (("b", 1), ("d", 1), ("d", 2))
    nf = normal_form(p, word)
    assert nf.shape == Shape.DELTA_BETA
    assert nf.word == (("d", 1), ("d", 2), ("b", 3))


def test_canonical_words_match_graded_dim():
    p = piano_of_generator(fan_summands(3))
    for a in range(5):
        for b in range(5):
            for m in range(-4, 5):
                w = canonical_word(p, a, b, m)
                if graded_dim(p, a, b, m) == 0:
                    assert w is None
                else:
                    if w:
                        nf = normal_form(p, w)
                        assert not nf.is_zero
                        assert (nf.source, nf.target, nf.degree) == (a, b, m)


def test_graded_dim_rules():
    p = piano_of_generator(fan_summands(3))
    pairs = zero_degree_pairs(p)
    assert (0, 4) in pairs and (4, 0) not in pairs
    # Non-sharp diagonal in every degree, sharp only non-positive.
    for m in (-3, 0, 3):
        assert graded_dim(p, 1, 1, m) == 1
    assert graded_dim(p, 0, 0, 1) == 0
    assert graded_dim(p, 0, 0, -2) == 1
    # Off-diagonal dimensions are degree independent.
    for m in range(-5, 6):
        assert graded_dim(p, 0, 3, m) == graded_dim(p, 0, 3, 0)


def test_degree_component_structure_fan3():
    p = piano_of_generator(fan_summands(3))
    low = degree_component_structure(p, -2)
    high = degree_component_structure(p, 2)
    assert sum(map(sum, low)) == 15
    assert sum(map(sum, high)) == 12
    # Positive degrees: zero column at each sharp source, and the columns at
    # the other sharp vertices match the columns of their predecessors.
    assert [row[0] for row in high] == [0] * 5
    assert [row[2] for row in high] == [row[1] for row in high]


def test_degree_structure_matches_graded_dim():
    for n in (1, 2, 3):
        for g in enumerate_limit_generators(n):
            p = piano_of_generator(list(g), n)
            for i in (-2, 0, 1, 3):
                матrix = degree_component_structure(p, i)
                direct = [
                    [graded_dim(p, a, b, i) for b in range(p.num_vertices)]
                    for a in range(p.num_vertices)
                ]
                assert матrix == direct


def test_confluence_small_quivers():
    for n in (1, 2):
        for g in enumerate_limit_generators(n):
            p = piano_of_generator(list(g), n)
            ok, witness = confluence_report(p, max_length=6)
            assert ok, witness


def _instance_rewrites(word, rules):
    """Every word that one listed rule instance, applied at one match, makes of ``word``."""
    return [
        word[:i] + rhs + word[i + len(lhs) :]
        for lhs, rhs in rules.items()
        for i in range(len(word) - len(lhs) + 1)
        if word[i : i + len(lhs)] == lhs
    ]


def test_rule_instances_state_the_local_rules_of_one_step_rewrites():
    # The critical pairs are built from ``rule_instances`` and joined with
    # ``one_step_rewrites``: a rule edited in one and not the other fails here.
    for p in _differential_pianos():
        rules = rule_instances(p)
        for word in enumerate_composable_words(p, 4):
            expected = Counter(w for w in one_step_rewrites(p, word) if w is not None)
            assert Counter(_instance_rewrites(word, rules)) == expected, word


def _assert_unjoined(p, report):
    """The report fails, and its witness is a pair of live words with no common terminal."""
    ok, witness = report
    assert not ok
    first, second = witness
    for word in witness:
        validate_word(p, word)
    terminals = all_terminals(p, first), all_terminals(p, second)
    assert None not in terminals[0] | terminals[1]
    assert not terminals[0] & terminals[1], witness


def test_critical_pairs_flag_a_piano_without_commutation_runs():
    # Without its commutation runs a degree +1 loop is stuck in front of
    # an arrow; the exhaustive explorer finds the same defect.
    for g in enumerate_limit_generators(3):
        bare = dataclasses.replace(piano_of_generator(list(g), 3), beta_runs=())
        _assert_unjoined(bare, critical_pair_report(bare))
        assert not confluence_report(bare, max_length=5)[0]


def _drop_rules(monkeypatch, keep):
    """Make the confluence check see only the rule instances ``keep`` accepts."""

    def instances(p):
        return {lhs: rhs for lhs, rhs in rule_instances(p).items() if keep(lhs)}

    def rewrites(p, word):
        return ([None] if skeleton_dead(p, word) else []) + _instance_rewrites(word, instances(p))

    monkeypatch.setattr(confluence, "rule_instances", instances)
    monkeypatch.setattr(confluence, "one_step_rewrites", rewrites)


def test_critical_pairs_flag_rules_without_inverse_loop_cancellation(monkeypatch):
    # Every other rule instance has an arrow as its second symbol.
    _drop_rules(monkeypatch, lambda lhs: lhs[1][0] == "d")
    for g in enumerate_limit_generators(3):
        p = piano_of_generator(list(g), 3)
        _assert_unjoined(p, critical_pair_report(p))
        assert not confluence_report(p, max_length=5)[0]


def test_critical_pairs_include_a_rule_inside_another(monkeypatch):
    # One arrow between two non-sharp vertices: b0 d0 is a commutation run
    # inside the rule b0 d0 a1 -> d0, and that inclusion is the only overlap
    # whose reducts need b1 a1 to cancel.
    one_arrow = GentleQuiver(2, ("u", "w"), (Arrow(0, 1, 0),), frozenset())
    p = piano_from_keyboard(KeyboardQuiver(one_arrow, frozenset()))
    assert critical_pair_report(p) == (True, None)
    _drop_rules(monkeypatch, lambda lhs: lhs != (("b", 1), ("a", 1)))
    _assert_unjoined(p, critical_pair_report(p))
    assert set(critical_pair_report(p)[1]) == {(("d", 0),), (("d", 0), ("b", 1), ("a", 1))}


def test_critical_pairs_refuse_a_rule_that_does_not_terminate(monkeypatch):
    # A degree -1 loop moving back across an arrow undoes the crossing rule,
    # so rewriting could cycle: the instance itself is the witness.
    p = piano_of_generator(fan_summands(2), 2)
    e = p.arrows[0]
    backwards = ((("d", 0), ("a", e.tgt)), (("a", e.src), ("d", 0)))
    monkeypatch.setattr(
        confluence, "rule_instances", lambda q: {**rule_instances(q), backwards[0]: backwards[1]}
    )
    assert critical_pair_report(p) == (False, backwards)


@functools.cache
def _differential_pianos() -> tuple[PianoQuiver, ...]:
    pianos = [
        piano_of_generator(list(g), n) for n in (1, 2, 3) for g in enumerate_limit_generators(n)
    ]
    pianos.append(
        piano_from_extended(
            example_dissection(), vertex_order=[EXAMPLE_CHORDS[k] for k in range(1, 10)]
        )
    )
    return tuple(pianos)


@st.composite
def piano_words(draw):
    """A piano of size at most three (or the nine-vertex example) and a random
    composable word of at most ten symbols on it; loops come in blocks of up
    to six."""
    pianos = _differential_pianos()
    p = pianos[draw(st.integers(0, len(pianos) - 1))]
    at = draw(st.integers(0, p.num_vertices - 1))
    length = draw(st.integers(1, 10))
    word: list = []
    while len(word) < length:
        symbols = [("a", at)] + ([("b", at)] if p.has_beta(at) else [])
        symbols += [("d", k) for k, e in enumerate(p.arrows) if e.src == at]
        s = draw(st.sampled_from(symbols))
        power = 1 if s[0] == "d" else draw(st.integers(1, 6))
        word += [s] * min(power, length - len(word))
        at = p.symbol_table[s][1]
    return p, tuple(word)


def test_is_zero_follows_the_shape_however_the_form_is_made():
    # is_zero is no constructor argument: a ZERO-shaped form built directly
    # or by dataclasses.replace reads as zero, and a product with it too.
    p = piano_of_generator(fan_summands(2))
    nf = normal_form(p, (("a", 1),))
    assert not nf.is_zero and not product_is_zero(p, nf, nf)
    for zero in (
        PathNormalForm(None, None, None, Shape.ZERO),
        dataclasses.replace(nf, shape=Shape.ZERO),
    ):
        assert zero.is_zero and product_is_zero(p, nf, zero) and product_is_zero(p, zero, nf)
    assert not dataclasses.replace(nf, degree=-2).is_zero
    with pytest.raises(TypeError):
        PathNormalForm(None, None, None, Shape.DELTA_ALPHA, is_zero=True)


@settings(deadline=None, max_examples=500)
@given(piano_words())
def test_normal_form_matches_exhaustive_rewriting(case):
    # The one-pass normaliser against every rewrite order of the rules.
    p, word = case
    nf = normal_form(p, word)
    terminals = all_terminals(p, word)
    assert nf.is_zero == (terminals == {None}) == (nf.shape == Shape.ZERO)
    if not nf.is_zero:
        assert terminals == {nf.word}


@st.composite
def split_piano_words(draw):
    """A random piano word of at most eight symbols, cut at a random point."""
    p, word = draw(piano_words())
    word = word[:8]
    cut = draw(st.integers(0, len(word)))
    return p, word[:cut], word[cut:]


@settings(deadline=None, max_examples=300)
@given(split_piano_words())
def test_compose_matches_exhaustive_rewriting(case):
    # Composing the normal forms of the two pieces lands where every rewrite
    # order of the whole word lands; an empty piece is an identity.
    p, u, v = case
    whole = u + v
    source, target = p.symbol_table[whole[0]][0], p.symbol_table[whole[-1]][1]
    product = compose(p, normal_form(p, u, base=source), normal_form(p, v, base=target))
    terminals = all_terminals(p, whole)
    assert product.is_zero == (terminals == {None}) == (product.shape == Shape.ZERO)
    if not product.is_zero:
        assert terminals == {product.word}
        assert (product.source, product.target) == (source, target)


def _canonical_forms(p: PianoQuiver, window: int) -> dict:
    """Canonical word and normal form of every nonzero class (a, b, m) with |m| <= window."""
    forms = {}
    for a in range(p.num_vertices):
        for b in range(p.num_vertices):
            for m in range(-window, window + 1):
                word = canonical_word(p, a, b, m)
                if word is not None:
                    forms[(a, b, m)] = (word, normal_form(p, word, base=a))
    return forms


def _with_junction_state(f):
    """A normal form with the fields ``compose`` continues from, which equality skips."""
    return f, f.blocks, f.first_arrow, f.last_arrow


def _compose_mismatches(p: PianoQuiver, composer, window: int = 6) -> tuple[list, int]:
    """Composable canonical-word pairs where ``composer`` disagrees with
    normalising the concatenated word, and the number of pairs checked."""
    forms = _canonical_forms(p, window)
    by_source: dict[int, list] = {}
    for (a, b, m), entry in forms.items():
        by_source.setdefault(a, []).append(((a, b, m), entry))
    bad, pairs = [], 0
    for (a, b, m), (u, nu) in forms.items():
        for (_, c, m2), (v, nv) in by_source.get(b, ()):
            pairs += 1
            got = composer(p, nu, nv)
            want = normal_form(p, u + v, base=a)
            if _with_junction_state(got) != _with_junction_state(want):
                bad.append((a, b, c, m, m2))
    return bad, pairs


@functools.cache
def _compose_pianos() -> tuple[PianoQuiver, ...]:
    pianos = list(_differential_pianos())
    pianos += [piano_of_generator(list(g), 4) for g in enumerate_limit_generators(4)[::7]]
    return tuple(pianos)


def test_compose_matches_normal_form_on_canonical_words():
    # Every composable pair of canonical words of every piano of size at
    # most three, every seventh at size four, and the worked example.
    total = 0
    for p in _compose_pianos():
        bad, pairs = _compose_mismatches(p, compose)
        assert not bad, bad[:5]
        total += pairs
    assert total > 100_000


def test_compose_needs_the_junction_relation_check():
    # The same composer on a copy of the piano without relations skips the
    # junction check and nothing else; the differential test must catch it.
    def without_junction_check(p, u, v):
        g = p.keyboard.gentle
        stripped = GentleQuiver(g.num_vertices, g.labels, g.arrows, frozenset())
        crippled = PianoQuiver(KeyboardQuiver(stripped, p.sharp), p.beta_runs)
        return compose(crippled, u, v)

    assert any(_compose_mismatches(p, without_junction_check)[0] for p in _differential_pianos())


def test_compose_identity_and_composability():
    p = piano_of_generator(fan_summands(3))
    path = normal_form(p, (("d", 0), ("d", 1), ("d", 2), ("b", 3), ("b", 3)))
    ends = (path.source, path.target)
    assert compose(p, normal_form(p, (), base=ends[0]), path) == path
    assert compose(p, path, normal_form(p, (), base=ends[1])) == path
    with pytest.raises(QuiverError, match="do not compose"):
        compose(p, path, path)


def test_removed_commutation_breaks_normal_form_uniqueness():
    # Two words of the same class must share a terminal; dropping the
    # commutation runs leaves the loop stuck on the wrong side.
    p = piano_of_generator(fan_summands(3))
    w1 = (("b", 1), ("d", 1), ("d", 2))
    w2 = (("d", 1), ("d", 2), ("b", 3))
    assert normal_form(p, w1).word == normal_form(p, w2).word
    crippled = PianoQuiver(p.keyboard, ())
    assert normal_form(crippled, w1).word != normal_form(crippled, w2).word


def test_removed_relation_breaks_zero_detection():
    p = piano_from_extended(
        example_dissection(), vertex_order=[EXAMPLE_CHORDS[k] for k in range(1, 10)]
    )
    (rel,) = [r for r in p.relations if p.arrows[r[0]].src == 1]
    word = (("d", rel[0]), ("d", rel[1]))
    assert normal_form(p, word).is_zero
    from pianocat.quivers import GentleQuiver as GQ, KeyboardQuiver as KQ, piano_from_keyboard

    stripped_gentle = GQ(
        p.keyboard.gentle.num_vertices,
        p.keyboard.gentle.labels,
        p.keyboard.gentle.arrows,
        frozenset(),
    )
    crippled = piano_from_keyboard(KQ(stripped_gentle, p.keyboard.sharp))
    assert not normal_form(crippled, word).is_zero


def test_path_enumeration_oracle():
    p = piano_of_generator(fan_summands(2))
    found = {(v, v, 0) for v in range(p.num_vertices)}  # identity classes
    for w in enumerate_composable_words(p, 7):
        nf = normal_form(p, w)
        if not nf.is_zero:
            found.add((nf.source, nf.target, nf.degree))
    for a in range(p.num_vertices):
        for b in range(p.num_vertices):
            for m in range(-3, 4):
                path = () if a == b else (abs(b - a),)
                witness_length = (abs(b - a)) + abs(m) + 1
                if witness_length <= 7:
                    assert graded_dim(p, a, b, m) == int((a, b, m) in found), (a, b, m)


def test_dot_export_counts():
    kb = example_keyboard()
    dot = quiver_to_dot(kb)
    assert dot.count("style=solid") == 8
    assert dot.count("style=dotted") == 3
    assert dot.count("shape=circle") == 9


def test_word_validation():
    p = piano_of_generator(fan_summands(2))
    with pytest.raises(QuiverError):
        normal_form(p, (("b", 0),))  # no beta at a sharp vertex
    with pytest.raises(QuiverError):
        normal_form(p, (("d", 0), ("d", 0)))  # not composable
    with pytest.raises(QuiverError):
        normal_form(p, ())

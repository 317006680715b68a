import collections
import itertools

import pytest
from memos import FAN_MEMO, FAN_MEMO_SIZE, package_memos
from quiver_oracle import compose, is_locally_gentle
from summand_triples import own_segments, summand_triples

from pianocat import dissections, endo, generators, geometry, homs, quivers, signs
from pianocat.endo import (
    CheckReport,
    EndoAlgebra,
    EndoError,
    IsoMismatch,
    RingKind,
    chi_multiply,
    classify_entry,
    piano_of_generator,
    verify_path_algebra_iso,
)
from pianocat.generators import enumerate_limit_generators, fan_summands
from pianocat.geometry import MEMO_SIZE, Arc, acc, pt, suspend
from pianocat.homs import HomError, factors_through, hom_dim
from pianocat.quivers import (
    GentleQuiver,
    KeyboardQuiver,
    PianoQuiver,
    QuiverError,
    canonical_word,
    graded_dim,
    normal_form,
    piano_from_keyboard,
)
from pianocat.signs import order_for_cone_blocks


def test_entry_dimension_profiles():
    assert [RingKind.POLY.dim(i) for i in (-2, 0, 1)] == [1, 1, 0]
    assert [RingKind.LAURENT.dim(i) for i in (-2, 0, 5)] == [1, 1, 1]
    assert [RingKind.LONG.dim(i) for i in (-1, 0, 1, 2)] == [1, 1, 0, 1]
    assert RingKind.ZERO.dim(0) == 0


def test_fan_pattern():
    for n in (2, 3, 4, 5, 6):
        algebra = EndoAlgebra.from_arcs(fan_summands(n))
        for i in range(algebra.size):
            for j in range(algebra.size):
                kind = algebra.entry(i, j)
                if i == j:
                    assert kind == (RingKind.POLY if i % 2 == 0 else RingKind.LAURENT)
                elif i > j:
                    assert kind == RingKind.ZERO
                else:
                    assert kind == RingKind.LAURENT


def test_fan3_dimension_counts():
    algebra = EndoAlgebra.from_arcs(fan_summands(3))
    for i in range(-6, 7):
        total = sum(algebra.dim(a, b, i) for a in range(algebra.size) for b in range(algebra.size))
        assert total == (15 if i <= 0 else 12)


def test_from_arcs_refuses_an_n_other_than_the_summands():
    # An algebra labelled with another n than its summands' is refused, naming both.
    arcs = fan_summands(3)
    assert EndoAlgebra.from_arcs(arcs, 3) == EndoAlgebra.from_arcs(arcs)
    with pytest.raises(EndoError, match="n=4 disagrees with the summands' n=3"):
        EndoAlgebra.from_arcs(arcs, 4)


def test_classify_entry_errors():
    # The algebra checks orbit disjointness once for all its summands.
    n = 3
    arcs = [Arc(n, acc(0, n), pt(2, 0, n)), Arc(n, acc(1, n), pt(2, 5, n))]
    with pytest.raises(EndoError, match="orbits overlap"):
        EndoAlgebra.from_arcs(arcs)
    with pytest.raises(EndoError, match="orbits overlap"):
        EndoAlgebra.from_arcs(arcs[::-1])
    with pytest.raises(EndoError, match="short"):
        EndoAlgebra.from_arcs([Arc(n, pt(0, 0, n), pt(0, 2, n))])
    # A double limit arc is its own suspension orbit: listed twice, the
    # orbits overlap although no marked endpoint is shared.
    double = Arc(n, acc(0, n), acc(2, n))
    with pytest.raises(EndoError, match="orbits overlap"):
        EndoAlgebra.from_arcs([double, double])
    # The overlap is refused wherever the pair sits in the list.
    with pytest.raises(EndoError, match="orbits overlap"):
        EndoAlgebra.from_arcs([arcs[0], double, arcs[1]])


def test_crossing_double_limits_laurent_both_ways():
    n = 4
    arcs = [Arc(n, acc(0, n), acc(2, n)), Arc(n, acc(1, n), acc(3, n))]
    assert classify_entry(arcs[0], arcs[1]) == RingKind.LAURENT
    assert classify_entry(arcs[1], arcs[0]) == RingKind.LAURENT


def test_long_ring_multiplication_table():
    n = 2
    z = Arc(n, pt(0, 0, n), pt(1, 0, n))
    algebra = EndoAlgebra.from_arcs([z])
    assert algebra.entry(0, 0) == RingKind.LONG

    def product(p, q):
        return chi_multiply(algebra, (0, 0, p), (0, 0, q))

    assert product(-1, -1) == 1  # lands in degree -2
    assert product(2, -3) == 0  # the stated degree condition fails
    assert product(-3, 2) == 0
    assert product(-1, 3) == 1  # degree 2, condition holds
    assert product(3, -1) == 1
    assert product(2, -2) == 0  # a degree-zero round trip through a shift
    assert product(-1, 2) == 0  # the product would land in the zero component
    assert product(0, 5) == 1 and product(5, 0) == 1
    with pytest.raises(EndoError, match="zero operand"):
        product(1, 0)


def test_chi_identity_action():
    algebra = EndoAlgebra.from_arcs(fan_summands(3))
    for j in range(algebra.size):
        for l in range(algebra.size):
            if algebra.dim(j, l, 2) == 1:
                assert chi_multiply(algebra, (j, j, 0), (j, l, 2)) == 1
                assert chi_multiply(algebra, (j, l, 2), (l, l, 0)) == 1


def _assert_associative(algebra: EndoAlgebra, window: range) -> None:
    size = algebra.size
    outgoing: dict[int, list[int]] = {}
    for i in range(size):
        for j in range(size):
            if algebra.entry(i, j) != RingKind.ZERO:
                outgoing.setdefault(i, []).append(j)
    for i in range(size):
        for j in outgoing.get(i, []):
            for l in outgoing.get(j, []):
                for m in outgoing.get(l, []):
                    for p, q, r in itertools.product(window, repeat=3):
                        if not (
                            algebra.dim(i, j, p)
                            and algebra.dim(j, l, q)
                            and algebra.dim(l, m, r)
                        ):
                            continue
                        fg = chi_multiply(algebra, (i, j, p), (j, l, q))
                        gh = chi_multiply(algebra, (j, l, q), (l, m, r))
                        left = 0
                        if fg and algebra.dim(i, l, p + q):
                            left = chi_multiply(algebra, (i, l, p + q), (l, m, r))
                        right = 0
                        if gh and algebra.dim(j, m, q + r):
                            right = chi_multiply(algebra, (i, j, p), (j, m, q + r))
                        assert left == right, (i, j, l, m, p, q, r)


def test_chi_associativity():
    for g in enumerate_limit_generators(2):
        _assert_associative(EndoAlgebra.from_arcs(list(g), 2), range(-3, 4))
    for g in enumerate_limit_generators(3)[:6]:
        _assert_associative(EndoAlgebra.from_arcs(list(g), 3), range(-3, 4))
    for g in enumerate_limit_generators(4)[::40]:
        _assert_associative(EndoAlgebra.from_arcs(list(g), 4), range(-2, 3))


def test_verify_path_algebra_iso_examples():
    for n in (1, 2, 3):
        assert verify_path_algebra_iso(fan_summands(n), n, window=6).passed
    for g in enumerate_limit_generators(3)[:10]:
        assert verify_path_algebra_iso(list(g), 3, window=4).passed


def test_verify_path_algebra_iso_shares_a_given_algebra():
    for g in enumerate_limit_generators(3)[::9]:
        arcs = list(g)
        report = verify_path_algebra_iso(arcs, 3, window=3)
        shared = EndoAlgebra.from_arcs(arcs, 3)
        assert verify_path_algebra_iso(arcs, 3, window=3, algebra=shared) == report
        # The algebra is a plain value: it keeps no caches of the check's products.
        assert set(vars(shared)) == {"n", "arcs", "entries"}
        with pytest.raises(EndoError, match="algebra"):
            verify_path_algebra_iso(arcs, 3, window=3, algebra=EndoAlgebra.from_arcs(arcs[::-1]))


def test_verify_path_algebra_iso_refuses_the_piano_of_other_summands():
    # A piano of the same summands in another order, or of a smaller
    # generator, is a caller error, not evidence: it is refused before any
    # check, as a foreign algebra is.  The piano of these summands in this
    # order is taken.
    gens = enumerate_limit_generators(3)
    smaller = list(enumerate_limit_generators(2)[0])
    for g in gens[::9]:
        arcs = list(g)
        own = piano_of_generator(arcs, 3)
        assert verify_path_algebra_iso(arcs, 3, window=3, piano=own).passed
        for foreign in (piano_of_generator(arcs[::-1], 3), piano_of_generator(smaller, 2)):
            with pytest.raises(EndoError, match="piano's vertices"):
                verify_path_algebra_iso(arcs, 3, window=3, piano=foreign)


def test_verify_detects_corrupted_sharp_set():
    n = 2
    arcs = fan_summands(n)
    honest = piano_of_generator(arcs, n)
    # Swap the sharp set: every dimension profile on the diagonal flips.
    corrupted = piano_from_keyboard(
        KeyboardQuiver(
            honest.keyboard.gentle,
            frozenset(range(honest.num_vertices)) - honest.keyboard.sharp,
        )
    )
    report = verify_path_algebra_iso(arcs, n, window=3, piano=corrupted)
    assert not report.passed
    kinds = {m.kind for m in report.witnesses}
    assert "dimension" in kinds
    located = report.witnesses[0].location
    assert len(located) == 3  # a concrete (vertex, vertex, degree) witness


def test_degree_zero_part_is_the_keyboard_algebra():
    for n in (1, 2, 3):
        for g in enumerate_limit_generators(n)[:12]:
            algebra = EndoAlgebra.from_arcs(list(g), n)
            p = piano_of_generator(list(g), n)
            assert is_locally_gentle(p.keyboard.gentle)
            keyboard_dim = p.num_vertices + len(p.arrow_paths)
            chi_zero_dim = sum(
                algebra.dim(a, b, 0) for a in range(algebra.size) for b in range(algebra.size)
            )
            assert keyboard_dim == chi_zero_dim


def test_scalar_degree_independence_matches_per_degree_products():
    # The cached triple scalar used by the sign verifier agrees with the
    # per-degree product over a window.
    for g in enumerate_limit_generators(3)[:6]:
        algebra = EndoAlgebra.from_arcs(list(g), 3)
        size = algebra.size
        for j in range(size):
            for j2 in range(size):
                if algebra.entry(j, j2) == RingKind.ZERO:
                    continue
                for l in range(size):
                    if algebra.entry(j2, l) == RingKind.ZERO:
                        continue
                    base = chi_multiply(algebra, (j, j2, 0), (j2, l, 0))
                    for i, i2 in itertools.product(range(-3, 4), repeat=2):
                        if algebra.dim(j, j2, i) and algebra.dim(j2, l, i2):
                            assert (
                                chi_multiply(algebra, (j, j2, i), (j2, l, i2)) == base
                            )


def _fresh_suspension(x: Arc, k: int) -> Arc:
    """The k-fold suspension built by the validating constructor, outside
    the ``geometry._suspended`` memo that the code under test reads."""
    return Arc(x.n, x.a.shifted(k), x.b.shifted(k))


def _product_oracle(algebra: EndoAlgebra, f, g) -> int:
    """``chi_multiply`` from scratch: suspensions that share no memo with
    the code under test, the degree-zero round-trip rule, and otherwise
    ``factors_through`` with a HomError as 0."""
    (i, j, p), (_, l, q) = f, g
    x = algebra.arcs[i]
    w = _fresh_suspension(algebra.arcs[j], p)
    z = _fresh_suspension(algebra.arcs[l], p + q)
    if z == x:
        return int(w == x and hom_dim(x, z, 0) == 1)
    try:
        return 1 if factors_through(x, w, z) else 0
    except HomError:
        return 0


def _composable_pairs(algebra: EndoAlgebra, degrees: range):
    size = algebra.size
    basis = [
        (i, j, p) for i in range(size) for j in range(size) for p in degrees if algebra.dim(i, j, p)
    ]
    for f in basis:
        for g in basis:
            if g[0] == f[1]:
                yield f, g


@pytest.mark.parametrize("n, stride", [(1, 1), (2, 1), (3, 1), (4, 8)], ids=["n1", "n2", "n3", "n4"])
def test_chi_multiply_matches_factorisation_oracle(n, stride):
    # Every composable pair of basis elements in degrees -6 .. 6: the
    # cached alignments and Hom dimensions decide each product as
    # factors_through does.
    for g in enumerate_limit_generators(n)[::stride]:
        algebra = EndoAlgebra.from_arcs(list(g), n)
        for f, h in _composable_pairs(algebra, range(-6, 7)):
            assert chi_multiply(algebra, f, h) == _product_oracle(algebra, f, h), (g, f, h)


def test_chi_multiply_matches_oracle_where_the_interval_test_decides():
    # On limit generators every product that reaches the closed-interval
    # test passes it, so a chi_multiply that skipped the test would still
    # agree there.  Two-summand algebras at n = 2 that are no generator have
    # products the test rejects; chi_multiply must reject the same ones.
    n = 2
    ends = [acc(i, n) for i in range(n)] + [pt(i, 0, n) for i in range(n)]
    arcs = [Arc(n, a, b) for a, b in itertools.combinations(ends, 2)]
    rejected = 0
    for pair in itertools.combinations(arcs, 2):
        try:
            algebra = EndoAlgebra.from_arcs(list(pair), n)
        except EndoError:
            continue
        for f, h in _composable_pairs(algebra, range(-4, 5)):
            expected = _product_oracle(algebra, f, h)
            assert chi_multiply(algebra, f, h) == expected, (pair, f, h)
            x, z = algebra.arcs[f[0]], suspend(algebra.arcs[h[1]], f[2] + h[2])
            rejected += expected == 0 and z != x and hom_dim(x, z, 0) == 1
    assert rejected > 0


def test_iso_report_counts_every_composable_pair():
    # An independent count of the composable pairs of nonzero classes on
    # both sides; a verifier that skipped a pair would report fewer.
    window = 4
    degrees = range(-window, window + 1)
    for n in (1, 2, 3):
        for g in enumerate_limit_generators(n):
            arcs = list(g)
            algebra = EndoAlgebra.from_arcs(arcs, n)
            p = piano_of_generator(arcs, n)
            size = algebra.size
            count = {
                (a, b): sum(1 for m in degrees if algebra.dim(a, b, m) and graded_dim(p, a, b, m))
                for a in range(size)
                for b in range(size)
            }
            expected = sum(
                count[(a, b)] * count[(b, c)]
                for a in range(size)
                for b in range(size)
                for c in range(size)
            )
            report = verify_path_algebra_iso(arcs, n, window=window, piano=p)
            assert report.passed
            assert report.checked == expected > 0
            assert "checked" not in report.to_json()


def _reference_iso(arcs, n, window, piano=None, max_mismatches=20, algebra=None) -> CheckReport:
    """``verify_path_algebra_iso`` as a plain per-cell loop: every degree of
    every pair has its dimensions compared, and every composable pair of
    nonzero classes with a word of the piano is composed in full
    (``compose(...).is_zero``) and multiplied by the checked ``chi_multiply``."""
    algebra = algebra if algebra is not None else EndoAlgebra.from_arcs(arcs, n)
    p = piano if piano is not None else piano_of_generator(arcs, n)
    size = len(arcs)
    degrees = range(-window, window + 1)
    mismatches = []
    for a, b, m in itertools.product(range(size), range(size), degrees):
        lhs, rhs = algebra.dim(a, b, m), graded_dim(p, a, b, m)
        if lhs != rhs:
            mismatches.append(IsoMismatch("dimension", (a, b, m), lhs, rhs))
            if len(mismatches) >= max_mismatches:
                return CheckReport(tuple(mismatches))
    forms = {}
    for a, b, m in itertools.product(range(size), range(size), degrees):
        if algebra.dim(a, b, m) and graded_dim(p, a, b, m):
            try:
                forms[(a, b, m)] = normal_form(p, canonical_word(p, a, b, m), base=a)
            except QuiverError as err:
                mismatches.append(IsoMismatch("word", (a, b, m), "a word of the piano", str(err)))
                if len(mismatches) >= max_mismatches:
                    return CheckReport(tuple(mismatches))
    classes = {
        (a, b): [m for m in degrees if (a, b, m) in forms]
        for a, b in itertools.product(range(size), repeat=2)
    }
    products = 0
    for a, b, c in itertools.product(range(size), repeat=3):
        for m, m2 in itertools.product(classes[(a, b)], classes[(b, c)]):
            products += 1
            path_nonzero = not compose(p, forms[(a, b, m)], forms[(b, c, m2)]).is_zero
            if path_nonzero and graded_dim(p, a, c, m + m2) == 0:
                mismatches.append(IsoMismatch("rewriting", (a, b, c, m, m2), 0, 1))
                if len(mismatches) >= max_mismatches:
                    return CheckReport(tuple(mismatches), products)
            chi = chi_multiply(algebra, (a, b, m), (b, c, m2))
            if int(path_nonzero) != chi:
                mismatches.append(
                    IsoMismatch("multiplication", (a, b, c, m, m2), chi, int(path_nonzero))
                )
                if len(mismatches) >= max_mismatches:
                    return CheckReport(tuple(mismatches), products)
    return CheckReport(tuple(mismatches), products)


def _with_relations(p: PianoQuiver, relations) -> PianoQuiver:
    """The piano p with another relation set and nothing else changed."""
    g = p.keyboard.gentle
    gentle = GentleQuiver(g.num_vertices, g.labels, g.arrows, frozenset(relations))
    return PianoQuiver(KeyboardQuiver(gentle, p.sharp), p.beta_runs)


def _corrupted_pianos():
    """An n = 3 generator, and its piano without its one relation, with one
    spurious relation between two composable arrows, and without the arrow
    path of one pair joined by two arrows."""
    arcs = list(enumerate_limit_generators(3)[0])
    honest = piano_of_generator(arcs, 3)
    (dropped,) = honest.relations
    spurious = min(
        (i, j)
        for i, e in enumerate(honest.arrows)
        for j, f in enumerate(honest.arrows)
        if e.tgt == f.src and (i, j) not in honest.relations
    )
    pathless = PianoQuiver(honest.keyboard, honest.beta_runs)
    missing = min(pair for pair, path in honest.arrow_paths.items() if len(path) == 2)
    vars(pathless)["arrow_paths"] = {
        pair: path for pair, path in honest.arrow_paths.items() if pair != missing
    }
    return arcs, {
        "dropped": _with_relations(honest, honest.relations - {dropped}),
        "spurious": _with_relations(honest, honest.relations | {spurious}),
        "pathless": pathless,
    }


def test_verify_detects_a_dropped_relation():
    # Without the relation some zero products of paths survive: they are
    # nonzero where the matrix product is zero, and land in a class the
    # piano says is zero.
    arcs, pianos = _corrupted_pianos()
    report = verify_path_algebra_iso(arcs, 3, window=3, piano=pianos["dropped"])
    assert {m.kind for m in report.witnesses} == {"multiplication", "rewriting"}


def test_verify_detects_a_spurious_relation():
    # The spurious relation kills canonical words outright (a zero normal
    # form has no arrows for the junction lookup to see) and products
    # across the junction; both are zero where the matrix product is not.
    arcs, pianos = _corrupted_pianos()
    p = pianos["spurious"]
    assert any(
        normal_form(p, canonical_word(p, a, b, 0)).is_zero
        for a in range(p.num_vertices)
        for b in range(p.num_vertices)
        if a != b and canonical_word(p, a, b, 0)
    )
    report = verify_path_algebra_iso(arcs, 3, window=3, piano=p)
    assert {m.kind for m in report.witnesses} == {"multiplication"}


def test_verify_detects_a_missing_arrow_path():
    # Without the path the piano has no class from its source to its target,
    # where the matrix algebra has one in every degree; products through the
    # middle vertex are nonzero on both sides, so only the rewriting test
    # finds them, on a row where the path and matrix sides agree.
    arcs, pianos = _corrupted_pianos()
    p = pianos["pathless"]
    report = verify_path_algebra_iso(arcs, 3, window=3, piano=p, max_mismatches=10**6)
    assert {m.kind for m in report.witnesses} == {"dimension", "rewriting"}


def test_verify_refuses_a_cap_below_one_and_a_negative_window():
    # A cap of 0 or less would report a failing check with fewer witnesses
    # than it found, and a negative window checks nothing, so both are
    # refused; at cap 1 the dropped relation still fails, and window 0
    # still checks products.
    arcs, pianos = _corrupted_pianos()
    p = pianos["dropped"]
    report = verify_path_algebra_iso(arcs, 3, window=3, piano=p, max_mismatches=1)
    assert not report.passed and len(report.witnesses) == 1
    for cap in (0, -5):
        with pytest.raises(EndoError, match="max_mismatches"):
            verify_path_algebra_iso(arcs, 3, window=3, piano=p, max_mismatches=cap)
    with pytest.raises(EndoError, match="window"):
        verify_path_algebra_iso(arcs, 3, window=-1)
    report = verify_path_algebra_iso(arcs, 3, window=0)
    assert report.passed and report.checked > 0


@pytest.mark.parametrize("n, stride", [(1, 1), (2, 1), (3, 1), (4, 7)], ids=["n1", "n2", "n3", "n4"])
def test_verify_path_algebra_iso_matches_the_reference_loop(n, stride):
    # The same mismatches in the same order and the same product count as
    # composing every pair in full and multiplying with the checked entry point.
    for g in enumerate_limit_generators(n)[::stride]:
        arcs = list(g)
        assert verify_path_algebra_iso(arcs, n, window=6) == _reference_iso(arcs, n, 6), g


def test_verify_on_corrupted_pianos_matches_the_reference_loop():
    arcs, pianos = _corrupted_pianos()
    for p in pianos.values():
        for cap in (1, 4, 10**6):
            expected = _reference_iso(arcs, 3, 3, piano=p, max_mismatches=cap)
            assert verify_path_algebra_iso(arcs, 3, window=3, piano=p, max_mismatches=cap) == expected
            if cap < 10**6:
                assert len(expected.witnesses) == cap  # the cut happened
            else:
                assert len(expected.witnesses) > 4


def _on_the_piano(blocks, path, vertices) -> tuple:
    """Blocks in path positions (``quivers._typed_ends``) as blocks of the piano."""
    return tuple(
        ("d", path[k], 1) if tag == "d" else (tag, vertices[k], power) for tag, k, power in blocks
    )


def _shared_prefix_matches_the_full_pass(p, window=6) -> collections.Counter:
    """``quivers.class_ends``, one pass per vertex pair, against
    ``normal_form`` on the full canonical word, for every class of the piano
    with |degree| <= window: the same zero flag, last arrow (junction) and
    first arrow (start), and the same reduced blocks (equal blocks are an
    equal irreducible word), which the memo on the pair's ``path_type``
    holds in path positions and which are mapped back here; or a
    ``QuiverError`` with the same text.  The memo's value is also its
    body's, asked afresh.  Counts the classes by outcome."""
    seen = collections.Counter()
    for a, b in itertools.product(range(p.num_vertices), repeat=2):
        ms = [m for m in range(-window, window + 1) if graded_dim(p, a, b, m)]
        if not ms:
            continue
        ends = quivers.class_ends(p, a, b, ms)
        assert len(ends) == len(ms), (a, b)
        key, path, vertices = quivers.path_type(p, a, b)
        words = tuple(m for m, got in zip(ms, ends) if not isinstance(got, QuiverError))
        typed = quivers._typed_ends(*key, words)
        assert typed == quivers._typed_ends.__wrapped__(*key, words), (a, b)
        blocks = {m: _on_the_piano(t, path, vertices) for m, t in zip(words, typed[2])}
        for m, got in zip(ms, ends):
            word = canonical_word(p, a, b, m)
            try:
                want = normal_form(p, word, base=a)
            except QuiverError as err:
                assert isinstance(got, QuiverError), (a, b, m)
                assert str(got) == str(err), (a, b, m)
                seen["raised"] += 1
                continue
            assert got == ((want.is_zero, want.last_arrow), (want.is_zero, want.first_arrow)), (a, b, m)
            assert blocks[m] == want.blocks, (a, b, m)
            # A parked loop whose prefix is alive, with the prefix's last
            # arrow and the parked arrow in a relation: the class is zero.
            if m > 0 and word[-1][0] == "d" and len(word) > m + 1:
                prefix = normal_form(p, word[: -m - 1], base=a)
                if not prefix.is_zero and (prefix.last_arrow, word[-1][1]) in p.relations:
                    assert got[0][0]
                    seen["dead junction"] += 1
            seen["zero" if want.is_zero else "nonzero"] += 1
    return seen


def test_shared_prefix_forms_match_the_full_pass_on_generators():
    seen = collections.Counter()
    for n in (1, 2, 3, 4):
        for g in enumerate_limit_generators(n):
            seen += _shared_prefix_matches_the_full_pass(piano_of_generator(list(g), n))
    assert seen == {"nonzero": 88_946}


def test_shared_prefix_forms_match_the_full_pass_off_generators():
    # The corrupted pianos, one with a relation between the last two arrows
    # of an arrow path into a sharp vertex (its parked words have an alive
    # prefix and a dead junction), one with a spurious commutation run
    # (which moves a parked loop), and every n = 3 piano with the
    # complemented sharp set, where some words raise.
    arcs, pianos = _corrupted_pianos()
    honest = piano_of_generator(arcs, 3)
    last_two = min(
        path[-2:]
        for (_, b), path in honest.arrow_paths.items()
        if len(path) > 1 and not honest.has_beta(b)
    )
    pianos["dead junction"] = _with_relations(honest, honest.relations | {last_two})
    pianos["spurious run"] = _one_spurious_run(honest)
    seen = collections.Counter()
    for p in pianos.values():
        seen += _shared_prefix_matches_the_full_pass(p)
    for g in enumerate_limit_generators(3):
        honest = piano_of_generator(list(g), 3)
        sharp = frozenset(range(honest.num_vertices)) - honest.keyboard.sharp
        seen += _shared_prefix_matches_the_full_pass(
            piano_from_keyboard(KeyboardQuiver(honest.keyboard.gentle, sharp))
        )
    assert seen["dead junction"] > 0 and seen["raised"] > 0
    assert seen["zero"] > seen["dead junction"]


def test_path_types_are_few():
    # Every nonzero pair of every generator, verified at window 6 from a
    # cold memo: its classes are decided once per local type and degrees.
    keys, calls = {}, {}
    for n in (1, 2, 3, 4):
        quivers._typed_ends.cache_clear()
        for g in enumerate_limit_generators(n):
            assert verify_path_algebra_iso(list(g), n, window=6).passed
        info = quivers._typed_ends.cache_info()
        keys[n], calls[n] = info.currsize, info.hits + info.misses
    assert keys == {1: 1, 2: 5, 3: 13, 4: 29}
    assert calls == {1: 1, 2: 22, 3: 405, 4: 7_236}


def _one_spurious_run(p: PianoQuiver) -> PianoQuiver:
    """The piano p with one more commutation run: the last arrow of the
    first arrow path into a sharp vertex, where a parked degree +1 loop
    stands in front of it."""
    (_, b), path = min(
        (pair, path) for pair, path in p.arrow_paths.items() if not p.has_beta(pair[1])
    )
    park = p.arrows[path[-1]].src
    return PianoQuiver(p.keyboard, p.beta_runs + ((park, path[-1:], b),))


def test_path_type_needs_its_sharp_flags_relation_flags_and_runs():
    # Group the classes of every pair of a set of pianos (window 6) by the
    # local type with one part left out, and count the groups whose pairs
    # disagree somewhere (the memo's body, blocks included).  On the clean
    # pianos with n <= 4 only the sharp flags tell pairs apart.  The n = 3
    # piano with a spurious relation meets a clean pair on the type without
    # relation flags, and one with a spurious run on the type without runs.
    # Dropping the real run tells nothing apart: no canonical word puts a
    # degree +1 loop in front of a run.
    def classes(p):
        for a, b in itertools.product(range(p.num_vertices), repeat=2):
            ms = tuple(m for m in range(-6, 7) if graded_dim(p, a, b, m))
            if ms:
                key = quivers.path_type(p, a, b)[0]
                yield key, ms, quivers._typed_ends.__wrapped__(*key, ms)

    def clashes(other, part):
        values = collections.defaultdict(set)
        for key, ms, typed in clean + ([] if other is None else list(classes(other))):
            values[key[:part] + key[part + 1 :], ms].add(typed)
        return sum(len(v) > 1 for v in values.values())

    clean = [
        c for n in (1, 2, 3, 4) for g in enumerate_limit_generators(n)
        for c in classes(piano_of_generator(list(g), n))
    ]
    arcs, pianos = _corrupted_pianos()
    honest = piano_of_generator(arcs, 3)
    assert honest.beta_runs
    sharp, runs, relations = 1, 2, 3
    assert [clashes(None, part) for part in (sharp, runs, relations)] == [1, 0, 0]
    assert clashes(pianos["spurious"], relations) > 0
    assert clashes(PianoQuiver(honest.keyboard, ()), runs) == 0
    assert clashes(_one_spurious_run(honest), runs) > 0


def test_a_warm_path_memo_does_not_mask_a_corrupted_piano():
    # The corrupted pianos of the test_verify_detects_* tests and the n = 3
    # piano without its one commutation run, each verified at window 6 from
    # cold memos and again after every clean piano with n <= 4 has filled
    # them: the same reports, though the warm runs read entries the clean
    # pianos made.  The piano without its run passes either way (no
    # canonical word puts a degree +1 loop in front of a run), so for it
    # only the equality says anything.
    arcs, pianos = _corrupted_pianos()
    fan = fan_summands(2)
    honest_fan = piano_of_generator(fan, 2)
    sharp = frozenset(range(honest_fan.num_vertices)) - honest_fan.sharp
    cases = [(arcs, 3, p) for p in pianos.values()] + [
        (fan, 2, piano_from_keyboard(KeyboardQuiver(honest_fan.keyboard.gentle, sharp))),
        (arcs, 3, PianoQuiver(piano_of_generator(arcs, 3).keyboard, ())),
    ]
    cold = []
    for arcs_, n, p in cases:
        _clear_memos()
        cold.append(verify_path_algebra_iso(arcs_, n, window=6, piano=p, max_mismatches=10**6))
    for n in (1, 2, 3, 4):
        for g in enumerate_limit_generators(n):
            assert verify_path_algebra_iso(list(g), n, window=6).passed
    hits = quivers._typed_ends.cache_info().hits
    warm = [
        verify_path_algebra_iso(arcs_, n, window=6, piano=p, max_mismatches=10**6)
        for arcs_, n, p in cases
    ]
    assert quivers._typed_ends.cache_info().hits > hits
    assert warm == cold
    assert [report.passed for report in cold] == [False, False, False, False, True]


def _interval_cells(arcs, n, window):
    """The cells (a, b, c, m, m2) whose product reaches the closed-interval
    test, in the verifier's order, each with its position in its row
    (a, b, c, m), the row's length, and the (w, aligned) pair of point keys
    it tests."""
    algebra = EndoAlgebra.from_arcs(arcs, n)
    p = piano_of_generator(arcs, n)
    size = len(arcs)
    degrees = range(-window, window + 1)
    classes = {
        (a, b): [m for m in degrees if algebra.dim(a, b, m) and graded_dim(p, a, b, m)]
        for a, b in itertools.product(range(size), repeat=2)
    }
    cells = []
    for a, b, c in itertools.product(range(size), repeat=3):
        rights = classes[(b, c)]
        for m in classes[(a, b)]:
            w = suspend(arcs[b], m)
            w_is_source = w == arcs[a]
            for k, m2 in enumerate(rights):
                z = suspend(arcs[c], m + m2)
                if (
                    hom_dim(arcs[a], arcs[c], m + m2) == 0
                    or z is arcs[a]
                    or w_is_source
                    or (b == c and w == z)
                ):
                    continue
                keys = endo._landing(arcs[a], arcs[c], m + m2)
                cells.append(((a, b, c, m, m2), k, len(rights), (w.sort_key(), keys)))
    return cells


@pytest.fixture
def cold_matrix_rows():
    """Clear both levels of the process-wide matrix-block memo before and
    after the test, so that rows decided under a patched ``endo.within_row``
    reach no other test, and the patch sees every row of this one."""
    endo._matrix_block.cache_clear()
    endo._typed_block.cache_clear()
    yield
    endo._matrix_block.cache_clear()
    endo._typed_block.cache_clear()


def test_verify_on_a_corrupted_matrix_side_matches_the_reference_loop(
    cold_matrix_rows, monkeypatch
):
    # The closed-interval test flips for two chosen (w, aligned) pairs, so
    # the matrix side is wrong in the middle of one row and in the last cell
    # of a row of another (a, b, c).  The reference loop reaches the same
    # name through chi_multiply, so only the path side disagrees with it.
    arcs, n, window = list(enumerate_limit_generators(3)[0]), 3, 3
    cells = _interval_cells(arcs, n, window)
    middle = next(cell for cell in cells if 0 < cell[1] < cell[2] - 1)
    last = next(
        cell for cell in cells if cell[1] == cell[2] - 1 and cell[0][:3] != middle[0][:3]
    )
    flipped = {middle[3], last[3]}
    real = endo.within_row

    def flip(w, row):
        return tuple(hit ^ ((w, aligned) in flipped) for hit, aligned in zip(real(w, row), row))

    monkeypatch.setattr(endo, "within_row", flip)
    # A pair can recur in other cells (a double limit arc is its own
    # suspension), so the witnesses include both chosen cells.
    for cap in (1, 4, 10**6):
        expected = _reference_iso(arcs, n, window, max_mismatches=cap)
        assert verify_path_algebra_iso(arcs, n, window=window, max_mismatches=cap) == expected
        assert {m.kind for m in expected.witnesses} == {"multiplication"}
        if cap < 10**6:
            assert len(expected.witnesses) == cap  # the cut happened
        else:
            assert len(expected.witnesses) > 4
    assert {middle[0], last[0]} <= {m.location for m in expected.witnesses}


def test_verify_walks_the_one_disagreeing_row_of_a_block(cold_matrix_rows, monkeypatch):
    # The closed-interval test flips for one (w, aligned) pair that a middle
    # row of its block (a, b, c) meets in several cells and no other row of
    # that block meets, so the block disagrees in that row alone: the
    # verifier walks the block cell by cell, and the agreeing rows around
    # that row add to the count and no witness.  The reference loop reaches
    # the same name through chi_multiply.
    arcs, n, window = list(enumerate_limit_generators(3)[0]), 3, 3
    cells = _interval_cells(arcs, n, window)
    rows, uses = collections.defaultdict(set), collections.Counter()
    for (a, b, c, m, _), _, _, pair in cells:
        rows[(a, b, c, pair)].add(m)
        uses[pair] += 1
    algebra, p = EndoAlgebra.from_arcs(arcs, n), piano_of_generator(arcs, n)

    def left_degrees(a, b):
        degrees = range(-window, window + 1)
        return [m for m in degrees if algebra.dim(a, b, m) and graded_dim(p, a, b, m)]

    location, pair = next(
        (location, pair)
        for location, _, _, pair in cells
        if rows[(*location[:3], pair)] == {location[3]}
        and left_degrees(*location[:2])[0] < location[3] < left_degrees(*location[:2])[-1]
        and uses[pair] > 2
    )
    real = endo.within_row

    def flip(w, row):
        return tuple(hit ^ ((w, aligned) == pair) for hit, aligned in zip(real(w, row), row))

    monkeypatch.setattr(endo, "within_row", flip)
    full = _reference_iso(arcs, n, window, max_mismatches=10**6)
    assert {m.kind for m in full.witnesses} == {"multiplication"}
    assert len(full.witnesses) > 2  # caps 1 and 2 cut the list
    assert location in {m.location for m in full.witnesses}
    in_block = {m.location[3] for m in full.witnesses if m.location[:3] == location[:3]}
    assert in_block == {location[3]}
    for cap in (1, 2, 10**6):
        expected = _reference_iso(arcs, n, window, max_mismatches=cap)
        assert expected.witnesses == full.witnesses[:cap]
        assert verify_path_algebra_iso(arcs, n, window=window, max_mismatches=cap) == expected


def test_interval_test_never_rejects_on_generators(cold_matrix_rows, monkeypatch):
    # Every product of the verifier that reaches the closed-interval test
    # passes it on every generator with n <= 3 (window 6); the test stays as
    # a guard, and the non-generator control above shows it can reject.
    seen = []
    real = endo.within_row

    def spy(w, row):
        hits = real(w, row)
        seen.extend(hit for hit, aligned in zip(hits, row) if aligned is not None)
        return hits

    monkeypatch.setattr(endo, "within_row", spy)
    for n in (1, 2, 3):
        for g in enumerate_limit_generators(n):
            assert verify_path_algebra_iso(list(g), n, window=6).passed
    assert len(seen) > 0
    assert all(seen)


def test_block_rows_equal_the_one_cell_rule(cold_matrix_rows, monkeypatch):
    # Every row that the blocks of the n <= 4 generators (window 6) decide
    # with ``within_row`` (2,630 rows of 14,342 distinct cells), from a cold
    # block memo, equals the one-cell rule ``geometry.within_keys`` at each
    # of its cells, None cells included; 364 of the 1,356 alignments those
    # cells reach wrap past Acc(0).
    rows = set()
    real = endo.within_row

    def spy(w, row):
        rows.add((w, tuple(row)))
        return real(w, row)

    monkeypatch.setattr(endo, "within_row", spy)
    for n in (1, 2, 3, 4):
        for g in enumerate_limit_generators(n):
            assert verify_path_algebra_iso(list(g), n, window=6).passed
    cells = {(w, aligned) for w, row in rows for aligned in row}
    for w, row in rows:
        want = tuple(int(al is not None and geometry.within_keys(w, al)) for al in row)
        assert real(w, row) == want, (w, row)
    reached = {aligned for _, aligned in cells if aligned is not None}
    assert None in {aligned for _, aligned in cells}
    assert any(y1 > z1 or y2 > z2 for (y1, y2), (z1, z2) in reached)
    assert len(rows) > 100 and len(cells) > len(rows)


def test_every_landing_off_the_source_has_an_alignment():
    # The product rule needs no flag for w == z: a nonzero landing that is
    # not a round trip has an alignment (the body refuses one without), and
    # z lies within it.  Checked on every pair of summands of the n <= 5
    # generators, |degree| <= 14.
    landed = 0
    for n in (1, 2, 3, 4, 5):
        summands = {x for g in enumerate_limit_generators(n) for x in g}
        for x, y in itertools.product(summands, repeat=2):
            for degree in range(-14, 15):
                aligned = endo._landing.__wrapped__(x, y, degree)
                z = suspend(y, degree)
                if aligned is None or z is x:
                    continue
                assert geometry.within_keys(z.sort_key(), aligned)
                landed += 1
    assert landed > 0


def test_a_round_trip_lands_where_only_its_source_lies():
    # A round trip (y suspended by the degree is x) lands in x's alignment
    # with itself, so the product rule needs no flag for it: on every pair
    # of summands of each n <= 4 generator, at every such degree with
    # |degree| <= 8, the closed-interval test holds exactly for the middle
    # arcs w that are x, over every summand of the generator suspended by
    # -8..8.
    trips = tested = 0
    for n in (1, 2, 3, 4):
        for g in enumerate_limit_generators(n):
            middles = {suspend(y, m) for y in g for m in range(-8, 9)}
            for x, y in itertools.product(g, repeat=2):
                for degree in range(-8, 9):
                    if suspend(y, degree) is not x:
                        continue
                    aligned = endo._landing(x, y, degree)
                    assert aligned is not None, (x, degree)
                    trips += 1
                    for w in middles:
                        assert geometry.within_row(w.sort_key(), (aligned,)) == (int(w is x),)
                        tested += 1
    assert trips > 0 and tested > trips


def test_a_nonzero_landing_without_an_alignment_is_refused(monkeypatch):
    # Negative control: None means a zero Hom and nothing else, so a nonzero
    # Hom whose alignment is missing raises instead of landing nowhere.
    x = fan_summands(3)[0]
    assert endo._landing.__wrapped__(x, x, 0) is not None
    monkeypatch.setattr(endo, "hom_alignment", lambda x, y: None)
    with pytest.raises(EndoError, match="no endpoint alignment"):
        endo._landing.__wrapped__(x, x, 0)
    assert endo._landing.__wrapped__(x, x, 1) is None  # a zero Hom needs none


def test_class_records_mark_the_source_summand_only_where_it_is_met():
    # A class from a to a ends at summand a suspended by its degree; its
    # products see the source summand only where that suspension is the
    # summand itself (``w is x`` in ``_matrix_block`` and ``chi_multiply``),
    # and the verifier must not read every loop class so.  Each row is
    # decided alone, by the block body on its one left degree.
    shifted = 0
    for n in (1, 2, 3):
        for g in enumerate_limit_generators(n):
            arcs = list(g)
            algebra = EndoAlgebra.from_arcs(arcs, n)
            for a, c in itertools.product(range(len(arcs)), repeat=2):
                x, v = arcs[a], arcs[c]
                rights = tuple(m2 for m2 in range(-6, 7) if algebra.dim(a, c, m2))
                for m in range(-6, 7):
                    if not algebra.dim(a, a, m):
                        continue
                    (row,) = endo._typed_block.__wrapped__(x, x, v, (m,), rights)
                    assert row == tuple(
                        chi_multiply(algebra, (a, a, m), (a, c, m2)) for m2 in rights
                    ), (g, a, c, m)
                    shifted += suspend(x, m) != x
    assert shifted > 0


_MEMOS = package_memos()


def _clear_memos() -> None:
    for memo in _MEMOS.values():
        memo.cache_clear()


def test_matrix_rows_match_the_factorisation_oracle():
    # From cold memos, and again with them warm, every block of every
    # generator with n <= 3 (window 6), whether decided for it or shared from
    # an earlier generator, equals the factorisation oracle cell by cell, and
    # so does each of its rows decided alone, by the block body on its one
    # left degree.
    degrees = range(-6, 7)
    for warm in (False, True):
        if not warm:
            _clear_memos()
        shared = {}
        hits = endo._matrix_block.cache_info().hits
        typed_hits = endo._typed_block.cache_info().hits
        rows = 0
        for n in (1, 2, 3):
            for g in enumerate_limit_generators(n):
                arcs = list(g)
                algebra = EndoAlgebra.from_arcs(arcs, n)
                size = algebra.size
                nonzero = {
                    (a, b): tuple(m for m in degrees if algebra.dim(a, b, m))
                    for a, b in itertools.product(range(size), repeat=2)
                }
                for a, b, c in itertools.product(range(size), repeat=3):
                    lefts, rights = nonzero[(a, b)], nonzero[(b, c)]
                    block = endo._matrix_block(arcs[a], arcs[b], arcs[c], lefts, rights)
                    expected = tuple(
                        tuple(_product_oracle(algebra, (a, b, m), (b, c, m2)) for m2 in rights)
                        for m in lefts
                    )
                    assert block == expected, (warm, g, a, b, c)
                    # Equal blocks, and equal rows, are one object.
                    assert shared.setdefault(block, block) is block
                    assert all(shared.setdefault(row, row) is row for row in block)
                    for m, row in zip(lefts, expected):
                        body = endo._typed_block.__wrapped__
                        assert body(arcs[a], arcs[b], arcs[c], (m,), rights) == (row,)
                    rows += len(lefts)
        assert rows > 0
        # Some blocks were shared: across generators when cold, all when warm;
        # and, cold, between distinct triples of arcs of one order type.
        assert endo._matrix_block.cache_info().hits > hits
        assert warm or endo._typed_block.cache_info().hits > typed_hits


def test_blocks_keep_their_values_on_the_order_type():
    # Every ordered triple of summands with n <= 4 (12,502 of them, so every
    # summand triple of every generator among them), at window 6: the block
    # body on the triple's order type equals the body on the arcs
    # themselves, and so do the triple's two entries; the order type is the
    # triple itself exactly when its endpoints touch every segment.  The
    # negative control puts each endpoint on a segment of its own, so that
    # arcs sharing a point no longer do, and differs on 2, 21 and 100
    # triples at n = 2, 3 and 4.
    body = endo._typed_block.__wrapped__
    forgetful, compressed = collections.Counter(), collections.Counter()
    for n in (1, 2, 3, 4):
        for arcs, lefts, rights in summand_triples(n):
            typed = geometry.order_type(arcs)
            segs = {p.seg for x in arcs for p in x.endpoints()}
            assert (typed is arcs) == (len(segs) == n)
            compressed[n] += typed is not arcs
            direct = body(*arcs, lefts, rights)
            assert body(*typed, lefts, rights) == direct, arcs
            entries = [endo.classify_entry(*pair) for pair in (arcs[:2], arcs[1:])]
            assert [endo.classify_entry(*pair) for pair in (typed[:2], typed[1:])] == entries, arcs
            forgetful[n] += body(*own_segments(arcs), lefts, rights) != direct
    assert compressed == {1: 0, 2: 2, 3: 372, 4: 6_166}
    assert forgetful == {1: 0, 2: 2, 3: 21, 4: 100}
    # One witness: x and v share Pt(0, 0), which the control tells apart.
    ends = ((acc(0, 2), pt(0, 0, 2)), (acc(0, 2), acc(1, 2)), (pt(0, 0, 2), acc(1, 2)))
    x, y, v = (Arc(2, *pair) for pair in ends)
    window = tuple(range(-6, 7))
    assert body(x, y, v, window, window) != body(*own_segments((x, y, v)), window, window)


def test_verify_does_not_depend_on_what_the_memos_hold():
    # Every 7th n = 4 generator verified from cold memos, then again after
    # the memos were filled by all generators in reverse order.
    gens = [list(g) for g in enumerate_limit_generators(4)]
    cold = []
    for arcs in gens[::7]:
        _clear_memos()
        cold.append(verify_path_algebra_iso(arcs, 4, window=6))
    for arcs in reversed(gens):
        verify_path_algebra_iso(arcs, 4, window=6)
    assert [verify_path_algebra_iso(arcs, 4, window=6) for arcs in gens[::7]] == cold
    assert all(report.passed and report.checked > 0 for report in cold)


def test_endo_memos_are_bounded():
    # The memos ``_clear_memos`` clears are every memo of the package, and
    # all but the reference fan keep MEMO_SIZE entries.
    for name, memo in _MEMOS.items():
        if name != FAN_MEMO:
            assert memo.cache_info().maxsize == MEMO_SIZE == homs.MEMO_SIZE, name
    assert _MEMOS[FAN_MEMO].cache_info().maxsize == FAN_MEMO_SIZE
    assert set(_MEMOS.values()) >= {
        endo._matrix_block,
        endo._typed_block,
        endo._shared,
        endo._landing,
        endo.classify_entry,
        endo._marked_segments,
        geometry._suspended,
        geometry.crosses_under_some_shift,
        geometry.json_fragment,
        dissections.chord_of_arc,
        dissections.chord_to_arc,
        homs.default_apex,
        homs.ext1_dim,
        homs.hom_alignment,
        homs.morphism_direction,
        generators._is_pre_generator_tree,
        quivers._typed_ends,
        signs._cone_summand,
    }


def test_algebra_entries_follow_classify_entry():
    # Every n <= 4 generator in both summand orders: the entries of
    # ``from_arcs`` equal ``classify_entry`` cell by cell, first with the
    # entry memos cleared before each algebra, then with all of them warm.
    orders = [
        (n, arcs)
        for n in (1, 2, 3, 4)
        for g in enumerate_limit_generators(n)
        for arcs in (list(g), order_for_cone_blocks(list(g)))
    ]
    algebras = 0
    for warm in (False, True):
        for n, arcs in orders:
            if not warm:
                for memo in (classify_entry, endo._marked_segments, homs.ext1_dim):
                    memo.cache_clear()
            entries = EndoAlgebra.from_arcs(arcs, n).entries
            size = len(arcs)
            expected = tuple(
                tuple(classify_entry.__wrapped__(arcs[i], arcs[j]) for j in range(size))
                for i in range(size)
            )
            assert entries == expected, (warm, arcs)
            algebras += 1
    assert algebras == 2 * 2 * (1 + 4 + 36 + 416)
    assert classify_entry.cache_info().hits > 0


def test_entry_memos_match_their_bodies():
    # Every ordered pair of summands of the n <= 4 generators (the diagonal
    # included), and every summand, as the shared objects and as fresh
    # equal copies, which are the shared objects, asked twice so that the
    # second answer comes from the cache.
    hits = [memo.cache_info().hits for memo in (classify_entry, endo._marked_segments)]
    for n in (1, 2, 3, 4):
        for g in enumerate_limit_generators(n):
            for x in g:
                fresh_x = Arc(n, x.a, x.b)
                assert fresh_x is x
                want = endo._marked_segments.__wrapped__(x)
                for _ in range(2):
                    assert endo._marked_segments(x) == want == endo._marked_segments(fresh_x)
                for y in g:
                    want = classify_entry.__wrapped__(x, y)
                    for _ in range(2):
                        assert classify_entry(x, y) == want == classify_entry(fresh_x, Arc(n, y.a, y.b))
    assert classify_entry.cache_info().hits > hits[0]
    assert endo._marked_segments.cache_info().hits > hits[1]


def test_entry_memo_never_keeps_a_refusal():
    n = 3
    long_arc = Arc(n, pt(1, 0, n), pt(2, 0, n))
    short = Arc(n, pt(0, 0, n), pt(0, 2, n))
    for arcs in ([short], [long_arc, short]):
        for _ in range(2):
            misses = classify_entry.cache_info().misses
            with pytest.raises(EndoError, match="short"):
                EndoAlgebra.from_arcs(arcs)
            # The refused diagonal cell is asked afresh each time.
            assert classify_entry.cache_info().misses > misses


def test_verify_reports_canonical_words_off_a_corrupted_sharp_set():
    # With the complementary sharp set, a canonical word can park a degree +1
    # loop at a vertex that is now sharp; each such class is a "word"
    # witness after the dimension witnesses, and the check does not raise.
    with_words = 0
    for g in enumerate_limit_generators(3):
        arcs = list(g)
        algebra = EndoAlgebra.from_arcs(arcs, 3)
        honest = piano_of_generator(arcs, 3)
        p = piano_from_keyboard(
            KeyboardQuiver(
                honest.keyboard.gentle,
                frozenset(range(honest.num_vertices)) - honest.keyboard.sharp,
            )
        )
        dimension, words = [], []
        for a, b, m in itertools.product(range(len(arcs)), range(len(arcs)), range(-3, 4)):
            lhs, rhs = algebra.dim(a, b, m), graded_dim(p, a, b, m)
            if lhs != rhs:
                dimension.append((a, b, m))
            elif lhs:
                try:
                    normal_form(p, canonical_word(p, a, b, m), base=a)
                except QuiverError:
                    words.append((a, b, m))
        report = verify_path_algebra_iso(arcs, 3, window=3, piano=p, max_mismatches=10**6)
        assert not report.passed
        found = [m for m in report.witnesses if m.kind in ("dimension", "word")]
        assert report.witnesses[: len(found)] == tuple(found)
        assert [m.location for m in found] == dimension + words, g
        assert all(m.kind == "word" for m in found[len(dimension) :])
        # Classes without a word take part in no product.
        assert report == _reference_iso(arcs, 3, 3, piano=p, max_mismatches=10**6)
        with_words += bool(words)
    assert with_words == 24


def _replaced_entry(algebra: EndoAlgebra, a: int, b: int, kind: RingKind) -> EndoAlgebra:
    """The algebra with entry (a, b) of another ring kind and nothing else changed."""
    entries = [list(row) for row in algebra.entries]
    entries[a][b] = kind
    return EndoAlgebra(algebra.n, algebra.arcs, tuple(map(tuple, entries)))


def test_dimension_rows_off_a_flipped_sharp_vertex_or_entry_match_the_reference_loop():
    # The dimension pass compares one row per pair and walks only a pair
    # whose rows differ.  A piano rebuilt with one sharp vertex flipped, an
    # algebra with one entry's ring kind replaced, and both at once (two
    # pairs differ) must each give the witnesses, their order and the cut
    # at every cap of the per-cell reference loop.
    n, window = 3, 3
    kinds = list(RingKind)
    variants = 0
    for g in enumerate_limit_generators(n)[::9]:
        arcs = list(g)
        algebra, honest = EndoAlgebra.from_arcs(arcs, n), piano_of_generator(arcs, n)
        size = len(arcs)
        for v in range(size):
            sharp = honest.sharp ^ {v}
            flipped = piano_from_keyboard(KeyboardQuiver(honest.keyboard.gentle, sharp))
            # An entry next to v, on the diagonal for even v and off it for
            # odd v, turned into one of the three other ring kinds.
            a, b = (v + 1) % size, (v + 1 + v % 2) % size
            shift = 1 + v % 3
            kind = kinds[(kinds.index(algebra.entry(a, b)) + shift) % len(kinds)]
            replaced = _replaced_entry(algebra, a, b, kind)
            for p, alg, pairs in (
                (flipped, algebra, {(v, v)}),
                (honest, replaced, {(a, b)}),
                (flipped, replaced, {(v, v), (a, b)}),
            ):
                full = _reference_iso(arcs, n, window, p, 10**6, alg)
                dims = [m for m in full.witnesses if m.kind == "dimension"]
                assert {m.location[:2] for m in dims} == pairs
                for cap in sorted({1, 2, max(len(dims) - 1, 1), len(dims), len(dims) + 1, 10**6}):
                    expected = _reference_iso(arcs, n, window, p, cap, alg)
                    assert expected.witnesses == full.witnesses[:cap]
                    found = verify_path_algebra_iso(
                        arcs, n, window=window, piano=p, algebra=alg, max_mismatches=cap
                    )
                    assert found == expected, (g, v, cap)
                variants += 1
    assert variants == 3 * 5 * 4
    # At window 0 a row has one cell: each entry turned zero, or a zero one
    # turned Laurent, is one witness.
    arcs = list(enumerate_limit_generators(n)[0])
    algebra = EndoAlgebra.from_arcs(arcs, n)
    for a, b in itertools.product(range(len(arcs)), repeat=2):
        kind = RingKind.LAURENT if algebra.entry(a, b) == RingKind.ZERO else RingKind.ZERO
        replaced = _replaced_entry(algebra, a, b, kind)
        expected = _reference_iso(arcs, n, 0, None, 20, replaced)
        assert [m.location for m in expected.witnesses if m.kind == "dimension"] == [(a, b, 0)]
        assert verify_path_algebra_iso(arcs, n, window=0, algebra=replaced) == expected


def test_matrix_rows_match_the_oracle_off_generators():
    # Two-summand algebras at n = 2 that are no generator have products of
    # nonzero factors whose total Hom space is zero; there the row's zero
    # test decides, and the rows must still equal the oracle.
    n = 2
    ends = [acc(i, n) for i in range(n)] + [pt(i, p, n) for i in range(n) for p in (0, 2)]
    arcs = [Arc(n, a, b) for a, b in itertools.combinations(ends, 2)]
    degrees = range(-4, 5)
    zero_hom = 0
    for pair in itertools.combinations(arcs, 2):
        try:
            algebra = EndoAlgebra.from_arcs(list(pair), n)
        except EndoError:
            continue
        nonzero = {
            (a, b): tuple(m for m in degrees if algebra.dim(a, b, m))
            for a, b in itertools.product(range(2), repeat=2)
        }
        for a, b, c in itertools.product(range(2), repeat=3):
            rights = nonzero[(b, c)]
            for m in nonzero[(a, b)]:
                (row,) = endo._typed_block.__wrapped__(pair[a], pair[b], pair[c], (m,), rights)
                expected = tuple(_product_oracle(algebra, (a, b, m), (b, c, m2)) for m2 in rights)
                assert row == expected, (pair, a, b, c, m)
                zero_hom += sum(hom_dim(pair[a], pair[c], m + m2) == 0 for m2 in rights)
    assert zero_hom > 0

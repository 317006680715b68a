import dataclasses
import itertools
from collections import defaultdict
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pianocat import endo, signs
from pianocat.endo import EndoAlgebra, RingKind, chi_multiply, piano_of_generator
from pianocat.generators import enumerate_limit_generators, fan_generator, fan_summands
from pianocat.geometry import Arc, BoundaryPoint as BP, suspend
from pianocat.homs import (
    Direction,
    HomError,
    compose_directions,
    cone_presentation,
    default_apex,
    hom_dim,
    morphism_direction,
)
from pianocat.signs import (
    DEFAULT_CHOICES,
    CheckFailure,
    CheckReport,
    SignError,
    both_signed_matrices,
    check_beta_delta,
    cone_data,
    order_for_cone_blocks,
    phi_block,
    sign_graph,
    signed_matrix,
    verify_phi_homomorphism,
)


def worked_example_arcs():
    # Four accumulation points, apex Acc(3): five summands outside the
    # fan closure, then two inside.
    n = 4
    return [
        Arc(n, BP(0), BP(3, 0)),
        Arc(n, BP(0), BP(2)),
        Arc(n, BP(0), BP(0, 0)),
        Arc(n, BP(2), BP(1, 0)),
        Arc(n, BP(1), BP(2)),
        Arc(n, BP(3), BP(2)),
        Arc(n, BP(3), BP(2, 0)),
    ]


def ordered_generators(ns, n4_stride=7):
    """Every generator of the sizes ns, and every n4_stride-th at n = 4, in cone-block order."""
    gens = [g for n in ns for g in enumerate_limit_generators(n)]
    if n4_stride is not None:
        gens += enumerate_limit_generators(4)[::n4_stride]
    return [order_for_cone_blocks(list(g)) for g in gens]


def graph_of(arcs):
    """The sign graph of the summands, over their algebra and piano in this order."""
    return sign_graph(EndoAlgebra.from_arcs(arcs), piano_of_generator(arcs))


def keyboard_edges(arcs):
    """The keyboard edges of the sign graph, each once as (low, high) with its direction."""
    graph = graph_of(arcs)
    return {(v, w): d for v, nbrs in graph.adjacency.items() for w, d in nbrs if v < w}


def test_cone_data_split_index():
    arcs = worked_example_arcs()
    cones = cone_data(arcs)
    assert cones.m == 5
    assert all(s.q is not None for s in cones.summands[:5])
    assert all(s.q is None for s in cones.summands[5:])


def test_cone_data_requires_block_order():
    arcs = worked_example_arcs()
    with pytest.raises(SignError, match="order"):
        cone_data([arcs[5]] + arcs[:5] + [arcs[6]])


def test_keyboard_edge_directions():
    arcs = worked_example_arcs()
    arrows = sorted((e.src, e.tgt) for e in piano_of_generator(arcs).arrows)
    assert arrows == [(1, 0), (1, 4), (2, 1), (4, 3), (5, 1), (5, 6)]
    edges = keyboard_edges(arcs)
    assert edges[(0, 1)] == Direction.BACKWARD  # the single backward arrow 1 -> 0
    forwards = [k for k, d in edges.items() if d == Direction.FORWARD]
    assert sorted(forwards) == [(1, 2), (1, 4), (1, 5), (3, 4), (5, 6)]


def test_signed_matrix_reproduces_worked_example():
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))  # the choice written beta_5
    assert m.m == 5
    assert m.beta == (1, -1, -1, -1, -1)
    assert m.delta == (-1, 1, 1, 1, 1, 1, 1)
    assert m.diagonal() == (1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1)
    assert check_beta_delta(m, arcs).passed


def test_two_choices_are_entrywise_opposite_on_choices():
    arcs = worked_example_arcs()
    m1, m2 = both_signed_matrices(arcs)
    # Flipping the initial slot flips the chosen slot at every vertex.
    for j in range(m1.m):
        assert m1.beta[j] == -m2.beta[j]
    for j in range(len(arcs)):
        marked1 = m1.delta[j] == -1 or (j < m1.m and m1.beta[j] == -1)
        marked2 = m2.delta[j] == -1 or (j < m2.m and m2.beta[j] == -1)
        # A vertex inside the fan closure is marked by at most one choice.
        if j >= m1.m:
            assert not (marked1 and marked2)


def test_fan_matrix_trivial_block():
    arcs = fan_summands(3)
    m_beta, m_delta = both_signed_matrices(arcs)
    assert m_beta.m == 0 and m_beta.beta == ()
    # All edges are forward, so the slot choice is constant over the tree.
    assert m_beta.delta == (1, 1, 1, 1, 1)
    assert m_delta.delta == (-1, -1, -1, -1, -1)
    edges = keyboard_edges(arcs)
    assert len(edges) == 4 and set(edges.values()) == {Direction.FORWARD}


def test_beta_delta_detects_flipped_sign():
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    corrupted = dataclasses.replace(
        m, delta=tuple(-d if j == 2 else d for j, d in enumerate(m.delta))
    )
    assert corrupted.graph is m.graph
    report = check_beta_delta(corrupted, arcs)
    assert not report.passed
    assert any("delta" in f.identity or "beta" in f.identity for f in report.failures)


def test_beta_delta_detects_backward_fan_morphism():
    # Between two fan summands the advance stops before the apex, so every
    # morphism there is forward; no generator with n <= 3 has a backward one.
    for arcs in ordered_generators((1, 2, 3), n4_stride=None):
        graph = graph_of(arcs)
        fan_pairs = [d for (j, l), d in graph.table.items() if j >= graph.m and l >= graph.m]
        assert set(fan_pairs) <= {Direction.FORWARD}
    # Relabelling the worked example's fan morphism 5 -> 6 as backward.
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    assert m.graph.table[(5, 6)] == Direction.FORWARD
    graph = dataclasses.replace(m.graph, table=m.graph.table | {(5, 6): Direction.BACKWARD})
    report = check_beta_delta(dataclasses.replace(m, graph=graph), arcs)
    assert [(f.identity, f.witness) for f in report.failures] == [("fan backward", (5, 6))]


def test_phi_blocks():
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    cones = cone_data(arcs)
    fwd = phi_block(m, cones, 1, 4, 1, Direction.FORWARD)
    assert fwd == ((m.beta[1], 0), (0, m.delta[1]))
    fwd_even = phi_block(m, cones, 1, 4, 2, Direction.FORWARD)
    assert fwd_even == ((1, 0), (0, 1))
    bwd = phi_block(m, cones, 1, 0, 0, Direction.BACKWARD)
    assert bwd == ((0, 1), (0, 0))
    # Components through an absent cone top are masked away.
    masked = phi_block(m, cones, 5, 1, 1, Direction.FORWARD)
    assert masked == ((0, 0), (0, m.delta[5]))


def test_phi_homomorphism_worked_example_and_fans():
    arcs = worked_example_arcs()
    m1, m2 = both_signed_matrices(arcs)
    assert m1.graph.algebra is m2.graph.algebra  # shared by both sign choices
    for m in (m1, m2):
        report = verify_phi_homomorphism(arcs, m, window=4)
        assert report.passed, report.to_json()
    for n in (1, 2, 3):
        fan = fan_summands(n)
        for m in both_signed_matrices(fan):
            assert verify_phi_homomorphism(fan, m, window=4).passed


def test_phi_detects_sign_violation():
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    corrupted = dataclasses.replace(m, beta=tuple(-b for b in m.beta))
    # Now beta_j * delta_j = +1 at flipped vertices: the differential or the
    # multiplicativity identities must fail with a located witness.
    r1 = check_beta_delta(corrupted, arcs)
    r2 = verify_phi_homomorphism(arcs, corrupted, window=2)
    assert not (r1.passed and r2.passed)
    witnesses = r1.failures + r2.failures
    assert witnesses and witnesses[0].witness
    # A graph over a freshly built algebra yields the same report; an
    # algebra of reordered summands does not pair with this piano.
    rebuilt = dataclasses.replace(corrupted, graph=graph_of(arcs))
    assert verify_phi_homomorphism(arcs, rebuilt, window=2) == r2
    with pytest.raises(SignError, match="piano"):
        sign_graph(EndoAlgebra.from_arcs(arcs[::-1]), piano_of_generator(arcs))


def test_all_small_generators_pass():
    for n in (1, 2):
        for g in enumerate_limit_generators(n):
            arcs = order_for_cone_blocks(list(g))
            for m in both_signed_matrices(arcs):
                assert check_beta_delta(m, arcs).passed
                assert verify_phi_homomorphism(arcs, m, window=3).passed


def test_signed_matrix_rejects_non_generator():
    n = 3
    with pytest.raises(SignError):
        signed_matrix([Arc(n, BP(0), BP(1))], ("delta", 0))


def test_both_signed_matrices_match_single_choices():
    # One shared sign graph gives the same matrices as two separate builds.
    for arcs in ordered_generators((1, 2, 3)):
        assert both_signed_matrices(arcs) == [
            signed_matrix(arcs, ("beta", 0)),
            signed_matrix(arcs, ("delta", 0)),
        ]


def pairwise_table(arcs):
    """Test oracle: the direction of every nonzero degree-0 morphism between
    distinct summands, row-major, from hom_dim and morphism_direction."""
    size = len(arcs)
    return {
        (j, l): morphism_direction(arcs[j], arcs[l], 0)
        for j in range(size)
        for l in range(size)
        if j != l and hom_dim(arcs[j], arcs[l], 0) == 1
    }


def test_degree_zero_table_matches_pairwise_loop():
    # The table read off the algebra's nonzero off-diagonal entries against
    # the pairwise hom_dim / morphism_direction loop, items and order.
    for arcs in ordered_generators((1, 2, 3)):
        assert list(graph_of(arcs).table.items()) == list(pairwise_table(arcs).items())


def test_signed_matrices_carry_their_sign_graph():
    arcs = worked_example_arcs()
    graph = graph_of(arcs)
    assert graph.arcs == tuple(arcs) and graph.n == 4
    assert graph.algebra == EndoAlgebra.from_arcs(arcs)
    assert graph.cones == cone_data(arcs) and graph.m == 5
    m = signed_matrix(arcs, ("beta", 4))
    assert m.graph == graph
    # The graph is neither compared nor printed.
    fan = fan_summands(4)
    other = dataclasses.replace(m, graph=graph_of(fan))
    assert m == other and repr(m) == repr(other)


def test_keyboard_arrow_missing_from_table_is_refused():
    # An algebra whose entry for the keyboard arrow 1 -> 0 is zero.
    arcs = worked_example_arcs()
    algebra = EndoAlgebra.from_arcs(arcs)
    entries = [list(row) for row in algebra.entries]
    entries[1][0] = dataclasses.replace(entries[1][0], kind=RingKind.ZERO)
    hollow = dataclasses.replace(algebra, entries=tuple(map(tuple, entries)))
    with pytest.raises(HomError, match="no nonzero degree 0 morphism"):
        sign_graph(hollow, piano_of_generator(arcs))


def test_sign_graph_refuses_a_piano_in_another_order():
    arcs = worked_example_arcs()
    algebra = EndoAlgebra.from_arcs(arcs)
    assert sign_graph(algebra, piano_of_generator(arcs)).arcs == tuple(arcs)
    swapped = arcs[:3] + [arcs[4], arcs[3]] + arcs[5:]
    with pytest.raises(SignError, match="piano"):
        sign_graph(algebra, piano_of_generator(swapped))
    with pytest.raises(SignError, match="piano"):
        sign_graph(algebra, piano_of_generator(fan_summands(4)))


def test_checks_read_the_table_of_their_own_graph(monkeypatch):
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    corrupted = dataclasses.replace(m, beta=tuple(-b for b in m.beta))
    matrices = (m, corrupted)
    expected = [
        (check_beta_delta(x, arcs), verify_phi_homomorphism(arcs, x, window=2)) for x in matrices
    ]
    assert not all(r.passed for r in expected[1])

    def refuse(*args, **kwargs):
        raise AssertionError("rebuilt for the summands of the graph")

    for name in ("cone_data", "morphism_direction"):
        monkeypatch.setattr(signs, name, refuse)
    monkeypatch.setattr(EndoAlgebra, "from_arcs", staticmethod(refuse))
    for x, (beta_delta, phi) in zip(matrices, expected):
        assert check_beta_delta(x, arcs) == beta_delta
        assert verify_phi_homomorphism(arcs, x, window=2) == phi


def test_graph_is_never_read_for_other_summands():
    # A matrix is checked only against the summands of its graph, in its order.
    for arcs in ordered_generators((2, 3), n4_stride=None) + [worked_example_arcs()]:
        for m in both_signed_matrices(arcs):
            assert check_beta_delta(m, list(m.graph.arcs)).passed
            for other in (arcs[::-1], arcs[1:] + arcs[:1]):
                with pytest.raises(SignError, match="other summands"):
                    check_beta_delta(m, other)


def test_phi_refuses_other_summands():
    arcs = worked_example_arcs()
    for m in both_signed_matrices(arcs):
        corrupted = dataclasses.replace(m, beta=tuple(-b for b in m.beta))
        for matrix in (m, corrupted):
            report = verify_phi_homomorphism(arcs, matrix, window=2)
            assert report.passed == (matrix is m)
            for other in (arcs[::-1], arcs[1:] + arcs[:1]):
                with pytest.raises(SignError, match="other summands"):
                    verify_phi_homomorphism(other, matrix, window=2)


def test_beta_delta_counts_checked_pairs():
    # The count of checked morphisms against an independent source: the
    # non-ZERO off-diagonal entries of the endomorphism algebra.
    for arcs in ordered_generators((2, 3), n4_stride=None):
        algebra = EndoAlgebra.from_arcs(arcs)
        expected = sum(
            1
            for j in range(len(arcs))
            for l in range(len(arcs))
            if j != l and algebra.entry(j, l).kind != RingKind.ZERO
        )
        for m in both_signed_matrices(arcs):
            report = check_beta_delta(m, arcs)
            assert report.pairs == expected > 0
            assert "pairs" not in report.to_json()


def test_phi_counts_examined_pairs():
    # The count of composable pairs of nonzero entries (j -> j2, j2 -> l)
    # against an independent source: per middle summand, the nonzero
    # entries into it times the nonzero entries out of it.
    for arcs in ordered_generators((2, 3), n4_stride=None):
        algebra = EndoAlgebra.from_arcs(arcs)
        size = len(arcs)
        nonzero = [
            [algebra.entry(j, l).kind != RingKind.ZERO for l in range(size)] for j in range(size)
        ]
        expected = sum(
            sum(nonzero[j][k] for j in range(size)) * sum(nonzero[k][l] for l in range(size))
            for k in range(size)
        )
        for m in both_signed_matrices(arcs):
            report = verify_phi_homomorphism(arcs, m, window=2)
            assert report.passed and report.pairs == expected > 0
            assert "pairs" not in report.to_json()


def _survival_off_degree_zero(arcs, window):
    """The cells (j, j2, l, i, i2) where a composite of basis elements survives
    differently from the one at degrees (0, 0), and the number of cells."""
    algebra = EndoAlgebra.from_arcs(arcs)
    degrees = range(-window, window + 1)
    pairs = itertools.product(range(algebra.size), repeat=2)
    live = {(j, l): [i for i in degrees if algebra.dim(j, l, i)] for j, l in pairs}
    cells, off = 0, []
    for j, j2, l in itertools.product(range(algebra.size), repeat=3):
        live1, live2 = live[j, j2], live[j2, l]
        if not (live1 and live2):
            continue
        at_zero = chi_multiply(algebra, (j, j2, 0), (j2, l, 0))
        for i, i2 in itertools.product(live1, live2):
            cells += 1
            if chi_multiply(algebra, (j, j2, i), (j2, l, i2)) != at_zero:
                off.append((j, j2, l, i, i2))
    return off, cells


def test_phi_survival_does_not_depend_on_the_degrees():
    # The premise of the phi check, which decides at degrees (0, 0) whether
    # a composite survives: on a limit generator the answer is the same at
    # every live (i, i2) of the window.
    cells = 0
    for arcs in ordered_generators((1, 2, 3)):
        off, checked = _survival_off_degree_zero(arcs, window=6)
        assert off == []
        cells += checked
    assert cells == 404_789
    # Negative control: a lone long arc is no generator, and there the basis
    # endomorphisms of some degree pairs compose to zero, the identities not.
    off, checked = _survival_off_degree_zero([Arc(2, BP(0, 0), BP(1, 0))], window=6)
    assert 0 < len(off) < checked


def test_phi_reads_its_shared_answers_right():
    # Survival: the block memo at degrees (0, 0), over the summand arcs,
    # against chi_multiply, asked with the shared summand objects and with
    # fresh equal copies, which are the shared objects.
    triples = 0
    for arcs in ordered_generators((1, 2, 3)):
        algebra = EndoAlgebra.from_arcs(arcs)
        fresh = [Arc.from_json(x.to_json(), x.n) for x in arcs]
        assert all(f is x for f, x in zip(fresh, arcs))
        size = algebra.size
        live = [[algebra.entry(j, l).kind != RingKind.ZERO for l in range(size)] for j in range(size)]
        for j, j2, l in itertools.product(range(size), repeat=3):
            if not (live[j][j2] and live[j2][l]):
                continue
            triples += 1
            want = chi_multiply(algebra, (j, j2, 0), (j2, l, 0))
            for xs in (arcs, fresh):
                assert endo._matrix_block(xs[j], xs[j2], xs[l], (0,), (0,))[0][0] == want
    assert triples == 3_011
    # Parities: the degrees of every nonzero ring kind meet parity 0 alone
    # at window 0 and both parities at every wider window, so the phi check
    # sets them from the window.
    for kind in RingKind:
        entry = endo.GradedEntry(kind)
        for w in range(7):
            met = {i & 1 for i in range(-w, w + 1) if entry.dim(i)}
            if kind == RingKind.ZERO:
                assert met == set()
            else:
                assert met == ({0} if w == 0 else {0, 1})


def test_cone_data_shares_the_fan_families():
    # cone_data presents every summand over the one reference fan of its n,
    # whose shift families cone_presentation reads; presenting each summand
    # on its own, uncached, gives the same cones.
    for arcs in ordered_generators((1, 2, 3), n4_stride=None):
        n = arcs[0].n
        fan, apex = fan_generator(n), default_apex(n)
        assert signs._fan(n) is signs._fan(n) == fan
        for x, summand in zip(arcs, cone_data(arcs).summands):
            if x.contains(apex):
                assert summand == signs.ConeSummand(None, x)
                continue
            assert (summand.q, summand.p) == cone_presentation.__wrapped__(x, fan)


def test_cone_summand_never_keeps_a_refusal(monkeypatch):
    # No summand has a cone the fan refuses, so a stand-in for
    # cone_presentation refuses one: each call asks it again and raises.
    x = suspend(Arc(3, BP(0), BP(1, 0)), 1000)  # a summand no other test asks
    asked = []

    def refuse(arc, fan):
        asked.append(arc)
        raise HomError(f"{arc} is not the cone of a single map between summand suspensions")

    monkeypatch.setattr(signs, "cone_presentation", refuse)
    for _ in range(2):
        with pytest.raises(HomError, match="not the cone"):
            signs._cone_summand(x)
        with pytest.raises(HomError, match="not the cone"):
            cone_data([x])
    assert asked == [x] * 4
    monkeypatch.undo()
    assert signs._cone_summand(x) == signs.ConeSummand(*cone_presentation.__wrapped__(x, fan_generator(3)))


def summed_identity_failures(arcs, m, window):
    """Test oracle: the summed matrix identity phi(x) phi(x') = phi(x x').

    For each degree pair (i, i2) both sides are (m + size)-square matrices,
    the left one summing the block products of every surviving composable
    pair of basis elements, the right one the blocks of their products, one
    per pair.  Returns the identities that fail with their degree pairs.
    """
    algebra = EndoAlgebra.from_arcs(arcs)
    cones = cone_data(arcs)
    size = len(arcs)
    directions = {
        (j, l): morphism_direction(arcs[j], arcs[l], 0)
        for j in range(size)
        for l in range(size)
        if algebra.entry(j, l).kind != RingKind.ZERO
    }
    failures = []
    degrees = range(-window, window + 1)
    for i in degrees:
        for i2 in degrees:
            lhs, rhs, coeffs = defaultdict(int), defaultdict(int), defaultdict(int)
            for (j, j2), dir1 in directions.items():
                if algebra.dim(j, j2, i) == 0:
                    continue
                for (j2b, l), dir2 in directions.items():
                    if j2b != j2 or algebra.dim(j2, l, i2) == 0:
                        continue
                    if chi_multiply(algebra, (j, j2, 0), (j2, l, 0)) == 0:
                        continue
                    coeffs[j, l] += 1
                    b1 = phi_block(m, cones, j, j2, i, dir1)
                    b2 = phi_block(m, cones, j2, l, i2, dir2)
                    if j < m.m and l < m.m:
                        lhs[j, l] += b1[0][0] * b2[0][0]
                    if j < m.m:
                        lhs[j, m.m + l] += b1[0][0] * b2[0][1] + b1[0][1] * b2[1][1]
                    lhs[m.m + j, m.m + l] += b1[1][1] * b2[1][1]
            for (j, l), c in coeffs.items():
                if (j, l) not in directions:
                    failures.append(("closure", i, i2))
                    continue
                block = phi_block(m, cones, j, l, i + i2, directions[(j, l)])
                if j < m.m and l < m.m:
                    rhs[j, l] += c * block[0][0]
                if j < m.m:
                    rhs[j, m.m + l] += c * block[0][1]
                rhs[m.m + j, m.m + l] += c * block[1][1]
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                failures.append(("matrix identity", i, i2))
    return failures


@cache
def small_generators():
    return ordered_generators((1, 2, 3), n4_stride=None)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_one_pass_check_implies_summed_identity(data):
    arcs = data.draw(st.sampled_from(small_generators()))
    m = data.draw(st.sampled_from(both_signed_matrices(arcs)))
    window = data.draw(st.integers(2, 3))
    flip = st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs))
    beta_flips, delta_flips = data.draw(flip), data.draw(flip)
    corrupted = dataclasses.replace(
        m,
        beta=tuple(-b if f else b for b, f in zip(m.beta, beta_flips)),
        delta=tuple(-d if f else d for d, f in zip(m.delta, delta_flips)),
    )
    assert verify_phi_homomorphism(arcs, m, window=window).passed
    assert summed_identity_failures(arcs, m, window) == []
    if summed_identity_failures(arcs, corrupted, window):
        assert not verify_phi_homomorphism(arcs, corrupted, window=window).passed


def first_identity(report):
    kinds = {f.identity for f in report.failures}
    assert len(kinds) == 1, kinds
    return report.failures[0].identity


def test_each_phi_identity_has_a_negative_control():
    # The five witness kinds of verify_phi_homomorphism, each tripped alone.
    # The summed "matrix identity" kind no longer exists: part (b) checks
    # every block identity that the summed identity adds up.
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    assert verify_phi_homomorphism(arcs, m, window=2).passed

    # All signs +1: beta^i = (-1)^i delta^i fails at odd i, products hold.
    plus = dataclasses.replace(m, beta=(1,) * m.m, delta=(1,) * len(arcs))
    assert first_identity(verify_phi_homomorphism(arcs, plus, window=2)) == "differential"

    # Both signs of one cone summand flipped: the differential still
    # vanishes, but the signed blocks no longer multiply.
    flipped = dataclasses.replace(
        m, beta=(-m.beta[0],) + m.beta[1:], delta=(-m.delta[0],) + m.delta[1:]
    )
    report = verify_phi_homomorphism(arcs, flipped, window=2)
    assert first_identity(report) == "multiplicativity"
    assert summed_identity_failures(arcs, flipped, 2)  # the oracle agrees

    # A nonzero product landing in an entry the algebra says is zero.
    algebra = EndoAlgebra.from_arcs(arcs)
    entries = [list(row) for row in algebra.entries]
    entries[1][3] = dataclasses.replace(entries[1][3], kind=RingKind.ZERO)
    hollow = dataclasses.replace(algebra, entries=tuple(map(tuple, entries)))
    over_hollow = dataclasses.replace(m, graph=sign_graph(hollow, piano_of_generator(arcs)))
    report = verify_phi_homomorphism(arcs, over_hollow, window=2)
    assert first_identity(report) == "closure"

    def with_table(m, changes):
        graph = dataclasses.replace(m.graph, table=m.graph.table | changes)
        return dataclasses.replace(m, graph=graph)

    # Two backward morphisms that compose to a nonzero one.
    n = 2
    tree = [Arc(n, BP(0), BP(0, 0)), Arc(n, BP(0), BP(1, 0)), Arc(n, BP(0), BP(1))]
    m2 = signed_matrix(tree, ("beta", 0))
    assert m2.graph.table[(0, 2)] == Direction.BACKWARD
    both = with_table(m2, {(2, 1): Direction.BACKWARD})
    report = verify_phi_homomorphism(tree, both, window=2)
    assert first_identity(report) == "backward-backward"

    # A composite of forward morphisms whose entry is labelled backward.
    fan = fan_summands(2)
    m3 = signed_matrix(fan, ("delta", 0))
    assert set(m3.graph.table.values()) == {Direction.FORWARD}
    clash = with_table(m3, {(0, 1): Direction.BACKWARD})
    assert first_identity(verify_phi_homomorphism(fan, clash, window=2)) == "direction clash"


def _reference_phi_failures(m, window, graph, examined):
    """Test oracle: part (b) of the phi check as a per-cell loop.

    Fetches the signed blocks of every (i, i2) cell through a memo keyed on
    (j, l, parity, direction) and multiplies them in the cell.
    """
    degrees = range(-window, window + 1)
    for j in range(m.m):
        for i in degrees:
            if signs._sign_power(m.beta[j], i) != (-1) ** i * signs._sign_power(m.delta[j], i):
                yield CheckFailure("differential", (j, i))

    algebra = graph.algebra
    size = algebra.size
    directions = {}
    by_source = [[] for _ in range(size)]
    for j in range(size):
        for l in range(size):
            if algebra.entry(j, l).kind == RingKind.ZERO:
                continue
            direction = Direction.FORWARD if j == l else graph.table[(j, l)]
            directions[(j, l)] = direction
            by_source[j].append((l, direction, [i for i in degrees if algebra.dim(j, l, i)]))

    blocks = {}

    def block(j, l, degree, direction):
        key = (j, l, degree & 1, direction)
        b = blocks.get(key)
        if b is None:
            b = blocks[key] = signs.phi_block(m, graph.cones, j, l, degree, direction)
        return b

    for j in range(size):
        for j2, dir1, live1 in by_source[j]:
            for l, dir2, live2 in by_source[j2]:
                if not (live1 and live2):
                    continue
                examined[0] += 1
                if not chi_multiply(algebra, (j, j2, 0), (j2, l, 0)):
                    continue
                comp_dir = compose_directions(dir1, dir2)
                if comp_dir is None:
                    identity = "backward-backward"
                elif (j, l) not in directions:
                    identity = "closure"
                elif directions[(j, l)] != comp_dir:
                    identity = "direction clash"
                else:
                    identity = None
                if identity is not None:
                    for i in live1:
                        for i2 in live2:
                            yield CheckFailure(identity, (j, j2, l, i, i2))
                    continue
                for i in live1:
                    lhs1 = block(j, j2, i, dir1)
                    for i2 in live2:
                        lhs2 = block(j2, l, i2, dir2)
                        prod = (
                            (
                                lhs1[0][0] * lhs2[0][0],
                                lhs1[0][0] * lhs2[0][1] + lhs1[0][1] * lhs2[1][1],
                            ),
                            (0, lhs1[1][1] * lhs2[1][1]),
                        )
                        rhs = block(j, l, i + i2, comp_dir)
                        if prod != rhs:
                            yield CheckFailure("multiplicativity", (j, j2, l, i, i2, prod, rhs))


def reference_phi(arcs, m, window, max_failures=20):
    """The report of ``verify_phi_homomorphism`` from the per-cell loop."""
    assert m.graph.arcs == tuple(arcs)
    examined = [0]
    failures = _reference_phi_failures(m, window, m.graph, examined)
    return CheckReport(tuple(itertools.islice(failures, max_failures)), examined[0])


@pytest.mark.parametrize(
    "ns, n4_stride, windows", [((1, 2, 3), None, (2, 4, 6)), ((), 7, (6,))], ids=["n1-n3", "n4"]
)
def test_phi_check_matches_the_per_cell_loop(ns, n4_stride, windows):
    arcs_list = ordered_generators(ns, n4_stride)
    assert len(arcs_list) == (41 if ns else 60)
    for arcs in arcs_list:
        matrices = both_signed_matrices(arcs)
        assert [x.initial_choice for x in matrices] == list(DEFAULT_CHOICES)
        for m in matrices:
            for window in windows:
                report = verify_phi_homomorphism(arcs, m, window=window)
                assert report.passed and report.pairs > 0
                assert report == reference_phi(arcs, m, window)


def test_phi_check_matches_the_per_cell_loop_on_corrupted_matrices():
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    corrupted = {
        "plus": dataclasses.replace(m, beta=(1,) * m.m, delta=(1,) * len(arcs)),
        "flipped": dataclasses.replace(
            m, beta=(-m.beta[0],) + m.beta[1:], delta=(-m.delta[0],) + m.delta[1:]
        ),
        "reversed": dataclasses.replace(m, beta=tuple(-b for b in m.beta)),
    }
    uncapped = 10**6
    for name, bad in corrupted.items():
        for window in (2, 4):
            full = verify_phi_homomorphism(arcs, bad, window=window, max_failures=uncapped)
            assert full == reference_phi(arcs, bad, window, uncapped)
            assert 4 < len(full.failures) < uncapped, name
            for cap in (1, 4):
                report = verify_phi_homomorphism(arcs, bad, window=window, max_failures=cap)
                assert report == reference_phi(arcs, bad, window, cap)
                # The cut happens: the first cap witnesses of the full list.
                assert report.failures == full.failures[:cap]


def test_phi_refuses_a_cap_below_one_and_a_negative_window():
    # A cap of 0 turned a failing check into a pass with no witness, and a
    # negative window checks no pair, so both are refused; at cap 1 the
    # negated delta still fails, and window 0 still examines pairs.
    arcs = order_for_cone_blocks(list(enumerate_limit_generators(3)[0]))
    m = both_signed_matrices(arcs)[0]
    bad = dataclasses.replace(m, delta=(-m.delta[0],) + m.delta[1:])
    report = verify_phi_homomorphism(arcs, bad, window=4, max_failures=1)
    assert not report.passed and len(report.failures) == 1
    for cap in (0, -1):
        with pytest.raises(SignError, match="max_failures"):
            verify_phi_homomorphism(arcs, bad, window=4, max_failures=cap)
    with pytest.raises(SignError, match="window"):
        verify_phi_homomorphism(arcs, m, window=-1)
    report = verify_phi_homomorphism(arcs, m, window=0)
    assert report.passed and report.pairs > 0


def test_phi_check_compares_every_cell(monkeypatch):
    # Every block given a nonzero lower-left corner, which no product of two
    # blocks has: each cell the check compares fails, so the witnesses count
    # the cells, 90,990 over both matrices of every n = 3 generator.
    real = signs.phi_block

    def marked(*args):
        (y, w), (_, z) = real(*args)
        return (y, w), (1, z)

    monkeypatch.setattr(signs, "phi_block", marked)
    cells = 0
    for arcs in ordered_generators((3,), n4_stride=None):
        for m in both_signed_matrices(arcs):
            report = verify_phi_homomorphism(arcs, m, window=4, max_failures=10**6)
            assert report == reference_phi(arcs, m, 4, 10**6)
            assert {f.identity for f in report.failures} <= {"multiplicativity"}
            cells += len(report.failures)
    assert cells == 90_990


def test_phi_check_walks_a_triple_whose_parities_split(monkeypatch):
    # Only the odd-degree blocks of one forward entry are negated, so in a
    # triple through it some parity pairs pass and others fail: the check
    # must walk that triple's cells and keep the per-cell witnesses, their
    # order and the cut at every cap.
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    target = next(jl for jl, d in m.graph.table.items() if d == Direction.FORWARD)
    real = signs.phi_block

    def odd_negated(m, cones, j, l, degree, direction):
        b = real(m, cones, j, l, degree, direction)
        if (j, l) != target or degree % 2 == 0:
            return b
        return tuple(tuple(-c for c in row) for row in b)

    monkeypatch.setattr(signs, "phi_block", odd_negated)
    algebra = m.graph.algebra
    uncapped = 10**6
    for window in (2, 4):
        full = verify_phi_homomorphism(arcs, m, window=window, max_failures=uncapped)
        assert full == reference_phi(arcs, m, window, uncapped)
        assert {f.identity for f in full.failures} == {"multiplicativity"}
        assert all(f.witness[3] % 2 or f.witness[4] % 2 for f in full.failures)
        # Every failing triple also has cells that pass: its even ones.
        failing = defaultdict(int)
        for f in full.failures:
            failing[f.witness[:3]] += 1
        assert failing
        for j, j2, l in failing:
            cells = sum(algebra.dim(j, j2, i) for i in range(-window, window + 1)) * sum(
                algebra.dim(j2, l, i) for i in range(-window, window + 1)
            )
            assert 0 < failing[(j, j2, l)] < cells
        for cap in (1, 4):
            report = verify_phi_homomorphism(arcs, m, window=window, max_failures=cap)
            assert report == reference_phi(arcs, m, window, cap)
            assert report.failures == full.failures[:cap]

import pytest

from pianocat.endo import EndoAlgebra
from pianocat.generators import enumerate_limit_generators, fan_summands
from pianocat.geometry import Arc, BoundaryPoint as BP
from pianocat.homs import Direction
from pianocat.signs import (
    SignError,
    SignedMatrix,
    both_signed_matrices,
    check_beta_delta,
    cone_data,
    keyboard_edges_with_direction,
    order_for_cone_blocks,
    phi_block,
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
    edges = keyboard_edges_with_direction(worked_example_arcs())
    table = {(s, t): d for s, t, d in edges}
    assert table[(1, 0)] == Direction.BACKWARD  # the single backward arrow
    forwards = [k for k, d in table.items() if d == Direction.FORWARD]
    assert sorted(forwards) == [(1, 4), (2, 1), (4, 3), (5, 1), (5, 6)]


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
    edges = keyboard_edges_with_direction(arcs)
    assert all(d == Direction.FORWARD for _, _, d in edges)


def test_beta_delta_detects_flipped_sign():
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    corrupted = SignedMatrix(
        m.n,
        m.m,
        m.beta,
        tuple(-d if j == 2 else d for j, d in enumerate(m.delta)),
        m.initial_choice,
    )
    report = check_beta_delta(corrupted, arcs)
    assert not report.passed
    assert any("delta" in f.identity or "beta" in f.identity for f in report.failures)


def test_phi_blocks():
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    cones = cone_data(arcs)
    fwd = phi_block(m, cones, 1, 4, 1, Direction.FORWARD)
    assert fwd.block == ((m.beta[1], 0), (0, m.delta[1]))
    fwd_even = phi_block(m, cones, 1, 4, 2, Direction.FORWARD)
    assert fwd_even.block == ((1, 0), (0, 1))
    bwd = phi_block(m, cones, 1, 0, 0, Direction.BACKWARD)
    assert bwd.block == ((0, 1), (0, 0))
    # Components through an absent cone top are masked away.
    masked = phi_block(m, cones, 5, 1, 1, Direction.FORWARD)
    assert masked.block[0][0] == 0


def test_phi_homomorphism_worked_example_and_fans():
    arcs = worked_example_arcs()
    algebra = EndoAlgebra.from_arcs(arcs)  # shared by both sign choices
    for m in both_signed_matrices(arcs):
        report = verify_phi_homomorphism(arcs, m, window=4, algebra=algebra)
        assert report.passed, report.to_json()
    for n in (1, 2, 3):
        fan = fan_summands(n)
        for m in both_signed_matrices(fan):
            assert verify_phi_homomorphism(fan, m, window=4).passed


def test_phi_detects_sign_violation():
    arcs = worked_example_arcs()
    m = signed_matrix(arcs, ("beta", 4))
    corrupted = SignedMatrix(
        m.n, m.m, tuple(-b for b in m.beta), m.delta, m.initial_choice
    )
    # Now beta_j * delta_j = +1 at flipped vertices: the differential or the
    # multiplicativity identities must fail with a located witness.
    r1 = check_beta_delta(corrupted, arcs)
    r2 = verify_phi_homomorphism(arcs, corrupted, window=2)
    assert not (r1.passed and r2.passed)
    witnesses = r1.failures + r2.failures
    assert witnesses and witnesses[0].witness
    # A given algebra yields the same report; one of reordered summands is refused.
    shared = verify_phi_homomorphism(arcs, corrupted, window=2, algebra=EndoAlgebra.from_arcs(arcs))
    assert shared == r2
    with pytest.raises(SignError, match="algebra"):
        verify_phi_homomorphism(arcs, m, algebra=EndoAlgebra.from_arcs(arcs[::-1]))


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
    gens = [g for n in (1, 2, 3) for g in enumerate_limit_generators(n)]
    gens += enumerate_limit_generators(4)[::7]
    for g in gens:
        arcs = order_for_cone_blocks(list(g))
        assert both_signed_matrices(arcs) == [
            signed_matrix(arcs, ("beta", 0)),
            signed_matrix(arcs, ("delta", 0)),
        ]

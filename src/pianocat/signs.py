"""Signed diagonal matrices of limit generators and the two-row sign calculus.

Each summand of a limit generator is presented as the cone of a map between
suspended fan arcs (trivially, when it already is one).  A sign choice is
propagated over the keyboard tree, flipping across backward arrows; the
resulting diagonal of signs makes the block assignment of homogeneous
morphisms into a degree-zero algebra map, which is verified here degree by
degree on a finite window.  The sign graph is built over the generator's
endomorphism algebra and carries it: the directions of its degree-0 table
are those of the algebra's nonzero off-diagonal entries.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

from .dissections import DissectionError, chord_of_arc
from .endo import EndoAlgebra, EndoError, RingKind, chi_multiply, piano_of_generator
from .generators import fan_summands, is_limit_generator
from .geometry import Arc, ArcSet, BoundaryPoint, arc_set
from .homs import (
    Direction,
    HomError,
    compose_directions,
    cone_presentation,
    default_apex,
    morphism_direction,
    shift_families,
)
from .quivers import PianoQuiver


class SignError(ValueError):
    pass


@dataclass(frozen=True)
class ConeSummand:
    q: Arc | None  # None for a summand of the fan, which is its own cone
    p: Arc


@dataclass(frozen=True)
class ConeData:
    """Cone presentations of the summands, those with a nonzero first term first."""

    summands: tuple[ConeSummand, ...]
    m: int  # number of summands outside the reference suspension closure


@lru_cache(maxsize=64)
def _fan(n: int, apex: BoundaryPoint) -> tuple[ArcSet, frozenset[tuple]]:
    """The fan at the apex and its ``shift_families``, built once per (n, apex)."""
    fan = arc_set(n, fan_summands(n, apex))
    return fan, shift_families(fan)


def cone_data(arcs: list[Arc], apex: BoundaryPoint | None = None) -> ConeData:
    """Cone presentations over the fan at the apex; summand order is preserved.

    Requires the summands outside the suspension closure of the fan to come
    first, matching the block layout of the signed matrix.
    """
    n = arcs[0].n
    if apex is None:
        apex = default_apex(n)
    fan, families = _fan(n, apex)
    entries: list[ConeSummand] = []
    for x in arcs:
        if x.contains(apex):
            entries.append(ConeSummand(None, x))
            continue
        q, p = cone_presentation(x, fan, families)
        entries.append(ConeSummand(q, p))
    m = sum(1 for e in entries if e.q is not None)
    if any(e.q is None for e in entries[:m]):
        raise SignError("summand order must list the non-fan summands before the fan ones")
    return ConeData(tuple(entries), m)


def order_for_cone_blocks(
    arcs: list[Arc], apex: BoundaryPoint | None = None
) -> list[Arc]:
    """Stable reorder putting the summands outside the fan closure first."""
    if apex is None:
        apex = default_apex(arcs[0].n)
    return sorted(arcs, key=lambda x: x.contains(apex))


@dataclass(frozen=True)
class SignedMatrix:
    """Diagonal of signs: a length-m block for the cone tops, then one per summand."""

    n: int
    m: int
    beta: tuple[int, ...]
    delta: tuple[int, ...]
    initial_choice: tuple[str, int]
    # The sign graph the matrix was propagated over; the checks read its
    # algebra, degree-0 table and cone data.
    graph: SignGraph = field(compare=False, repr=False)

    def diagonal(self) -> tuple[int, ...]:
        return self.beta + self.delta

    def beta_of(self, j: int) -> int | None:
        return self.beta[j] if j < self.m else None


@dataclass(frozen=True)
class SignGraph:
    """The keyboard tree of a limit generator, each edge with its direction
    class, over the generator's endomorphism algebra, with the degree-0
    table and cone presentations of its summands."""

    algebra: EndoAlgebra
    apex: BoundaryPoint
    table: dict[tuple[int, int], Direction]
    cones: ConeData
    adjacency: dict[int, list[tuple[int, Direction]]]

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return self.algebra.arcs

    @property
    def m(self) -> int:
        """The split index of the cone presentations."""
        return self.cones.m


def sign_graph(
    algebra: EndoAlgebra, piano: PianoQuiver, apex: BoundaryPoint | None = None
) -> SignGraph:
    """The graph a sign choice propagates over; see ``propagate_choice``.

    ``algebra`` and ``piano`` belong to one limit generator with the summands
    in one order (``EndoAlgebra.from_arcs``, ``endo.piano_of_generator``).
    A nonzero entry between distinct summands is Laurent, so the degree-0
    table holds the direction of each, row-major; each keyboard arrow reads
    its direction from that table.
    """
    arcs, n = algebra.arcs, algebra.n
    if apex is None:
        apex = default_apex(n)
    if not is_limit_generator(arc_set(n, arcs)):
        raise SignError("not a limit generator")
    if piano.keyboard.gentle.labels != tuple(chord_of_arc(x) for x in arcs):
        raise SignError("the piano's vertices are not these summands in this order")
    cones = cone_data(list(arcs), apex)
    size = algebra.size
    entries, zero = algebra.entries, RingKind.ZERO
    table = {
        (j, l): morphism_direction(x, y, 0, apex)
        for j, x in enumerate(arcs)
        for l, y in enumerate(arcs)
        if j != l and entries[j][l].kind != zero
    }
    adjacency: dict[int, list[tuple[int, Direction]]] = {v: [] for v in range(size)}
    for e in piano.arrows:
        direction = table.get((e.src, e.tgt))
        if direction is None:
            raise HomError(f"no nonzero degree 0 morphism {arcs[e.src]} -> {arcs[e.tgt]}")
        adjacency[e.src].append((e.tgt, direction))
        adjacency[e.tgt].append((e.src, direction))
    return SignGraph(algebra, apex, table, cones, adjacency)


def _own_graph(m: SignedMatrix, arcs: list[Arc], apex: BoundaryPoint | None) -> SignGraph:
    """The sign graph of ``m``, refused unless built for these summands and apex."""
    graph = m.graph
    if graph.arcs != tuple(arcs) or apex not in (None, graph.apex):
        raise SignError("the signed matrix was built for other summands or another apex")
    return graph


def propagate_choice(graph: SignGraph, initial_choice: tuple[str, int]) -> SignedMatrix:
    """Propagate a sign choice over the keyboard tree of a limit generator.

    ``initial_choice`` is ("beta", j) with j below the split index, or
    ("delta", j); forward arrows copy the chosen slot to the neighbour,
    backward arrows flip it.  Chosen entries get -1, all others +1; choosing
    the empty slot of a summand inside the suspension closure flips nothing
    there.
    """
    size = len(graph.adjacency)
    slot_name, root = initial_choice
    if slot_name not in ("beta", "delta"):
        raise SignError("initial choice must pick a beta or delta slot")
    if not (0 <= root < size):
        raise SignError("initial choice outside the summand range")
    # A beta choice at a fan summand picks its empty slot: the propagation
    # is unchanged, that vertex just never receives a -1.
    slots: dict[int, str] = {root: slot_name}
    stack = [root]
    while stack:
        v = stack.pop()
        for w, direction in graph.adjacency[v]:
            if w in slots:
                continue
            if direction == Direction.FORWARD:
                slots[w] = slots[v]
            else:
                slots[w] = "delta" if slots[v] == "beta" else "beta"
            stack.append(w)
    if len(slots) != size:
        raise SignError("keyboard graph is not connected")
    beta = tuple(-1 if slots[j] == "beta" else 1 for j in range(graph.m))
    delta = tuple(-1 if slots[j] == "delta" else 1 for j in range(size))
    return SignedMatrix(graph.n, graph.m, beta, delta, initial_choice, graph)


# The two essentially different sign choices: a slot or the flipped slot at vertex 0.
DEFAULT_CHOICES: tuple[tuple[str, int], ...] = (("beta", 0), ("delta", 0))


def _sign_graph_of(arcs: list[Arc], apex: BoundaryPoint | None) -> SignGraph:
    """The sign graph of bare summands, over a piano and an algebra built for them."""
    n = arcs[0].n
    try:
        piano = piano_of_generator(arcs, n)
        algebra = EndoAlgebra.from_arcs(arcs, n)
    except (DissectionError, EndoError) as exc:  # summands of no limit generator
        raise SignError("not a limit generator") from exc
    return sign_graph(algebra, piano, apex)


def signed_matrix(
    arcs: list[Arc],
    initial_choice: tuple[str, int],
    apex: BoundaryPoint | None = None,
) -> SignedMatrix:
    """The signed matrix of one initial choice; see ``propagate_choice``."""
    return propagate_choice(_sign_graph_of(arcs, apex), initial_choice)


def both_signed_matrices(
    arcs: list[Arc], apex: BoundaryPoint | None = None
) -> list[SignedMatrix]:
    """The signed matrices of the two ``DEFAULT_CHOICES``, over one sign graph."""
    graph = _sign_graph_of(arcs, apex)
    return [propagate_choice(graph, choice) for choice in DEFAULT_CHOICES]


@dataclass(frozen=True)
class CheckFailure:
    identity: str
    witness: tuple

    def to_json(self) -> dict:
        return {"identity": self.identity, "witness": [repr(x) for x in self.witness]}


@dataclass(frozen=True)
class CheckReport:
    failures: tuple[CheckFailure, ...]
    # What the check walked: for beta-delta the nonzero degree-0 morphisms
    # between distinct summands, for phi the composable pairs of entries.
    pairs: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"passed": self.passed, "failures": [f.to_json() for f in self.failures]}


def check_beta_delta(
    m: SignedMatrix, arcs: list[Arc], apex: BoundaryPoint | None = None
) -> CheckReport:
    """Sign coherence along every nonzero morphism between distinct summands.

    Forward morphisms must preserve both rows of signs, backward ones must
    swap them; additionally the two signs at a cone summand multiply to -1.
    Between two fan summands every morphism is forward: the anticlockwise
    advance from one free endpoint to the other stops before the apex.
    The degree-0 table is the one of the matrix's sign graph; ``arcs`` and
    ``apex``, if given, must be the ones that graph was built for.
    """
    table = _own_graph(m, arcs, apex).table
    failures: list[CheckFailure] = []
    for j in range(m.m):
        if m.beta[j] * m.delta[j] != -1:
            failures.append(CheckFailure("beta*delta=-1", (j,)))
    for (j, l), direction in table.items():
        bj, bl = m.beta_of(j), m.beta_of(l)
        dj, dl = m.delta[j], m.delta[l]
        if direction == Direction.FORWARD:
            if bj is not None and bl is not None and bj != bl:
                failures.append(CheckFailure("forward beta", (j, l)))
            if dj != dl:
                failures.append(CheckFailure("forward delta", (j, l)))
        else:
            if j >= m.m and l >= m.m:
                failures.append(CheckFailure("fan backward", (j, l)))
            if bj is not None and bj != dl:
                failures.append(CheckFailure("backward beta/delta", (j, l)))
            if bl is not None and dj != bl:
                failures.append(CheckFailure("backward delta/beta", (j, l)))
    return CheckReport(tuple(failures), len(table))


@dataclass(frozen=True)
class BlockMorphism:
    """2x2 scalar block of one homogeneous morphism between cone presentations."""

    source: int
    target: int
    degree: int
    direction: Direction
    block: tuple[tuple[int, int], tuple[int, int]]


def _sign_power(sign: int, degree: int) -> int:
    return sign if degree % 2 else 1


def phi_block(
    m: SignedMatrix,
    cones: ConeData,
    j: int,
    l: int,
    degree: int,
    direction: Direction,
) -> BlockMorphism:
    """Signed 2x2 block of the degree-``degree`` basis morphism from j to l.

    Forward morphisms sit on the diagonal with the two signed powers,
    backward ones occupy the upper-right corner; components through a zero
    cone top are omitted.
    """
    has_qj = cones.summands[j].q is not None
    has_ql = cones.summands[l].q is not None
    y = w = z = 0
    if direction == Direction.FORWARD:
        if has_qj and has_ql:
            y = _sign_power(m.beta[j], degree)
        z = _sign_power(m.delta[j], degree)
    else:
        if has_qj:
            w = _sign_power(m.beta[j], degree)
    return BlockMorphism(j, l, degree, direction, ((y, w), (0, z)))


def verify_phi_homomorphism(
    arcs: list[Arc],
    m: SignedMatrix,
    window: int = 4,
    apex: BoundaryPoint | None = None,
    max_failures: int = 20,
) -> CheckReport:
    """Verify that the signed block assignment is a degree-zero algebra map.

    Part (a): at every cone summand the sign identity beta^i = (-1)^i delta^i
    holds for all |i| <= window, which makes the induced differential vanish.
    Part (b), one pass over every composable pair of homogeneous basis
    elements with degrees in the window and a nonzero product: two backward
    morphisms never compose, the product lands in a nonzero entry whose
    direction is the composite's, and the product of the two signed blocks
    equals the signed block of the product.  The matrix identity
    phi(x) phi(x') = phi(x x') summed over each degree pair adds up exactly
    these block identities, so it holds whenever part (b) does.
    The algebra, cone data and directions come from the matrix's sign graph,
    built for ``arcs`` and ``apex`` (if given).  At most ``max_failures``
    witnesses are reported, in the order they are found; ``pairs`` counts
    the composable pairs of nonzero entries (j -> j2, j2 -> l) that part (b)
    examined.  Refuses (``SignError``) a negative window and a cap below
    one: neither can check anything.
    """
    if window < 0:
        raise SignError(f"window must be at least 0, got {window}")
    if max_failures < 1:
        raise SignError(f"max_failures must be at least 1, got {max_failures}")
    graph = _own_graph(m, arcs, apex)
    examined = [0]  # incremented by part (b), which may be cut short
    failures = tuple(islice(_phi_failures(m, window, graph, examined), max_failures))
    return CheckReport(failures, examined[0])


def _phi_failures(
    m: SignedMatrix, window: int, graph: SignGraph, examined: list[int]
) -> Iterator[CheckFailure]:
    """The failures of ``verify_phi_homomorphism``, lazily and in order."""
    degrees = range(-window, window + 1)
    for j in range(m.m):
        for i in degrees:
            if _sign_power(m.beta[j], i) != (-1) ** i * _sign_power(m.delta[j], i):
                yield CheckFailure("differential", (j, i))

    # The nonzero entries, grouped by source, each with its direction, the
    # degrees of the window where it has a basis element, and its signed
    # blocks at even and odd degrees: a block depends on its degree only
    # through the parity.
    algebra = graph.algebra
    size = algebra.size
    entries: dict[tuple[int, int], tuple[Direction, tuple]] = {}
    by_source: list[list[tuple[int, Direction, list[int], tuple]]] = [[] for _ in range(size)]
    for j in range(size):
        for l in range(size):
            if algebra.entry(j, l).kind == RingKind.ZERO:
                continue
            # The degree-0 basis element of a diagonal entry is the identity.
            direction = Direction.FORWARD if j == l else graph.table[(j, l)]
            blocks = tuple(phi_block(m, graph.cones, j, l, p, direction).block for p in (0, 1))
            entries[(j, l)] = direction, blocks
            live = [i for i in degrees if algebra.dim(j, l, i)]
            by_source[j].append((l, direction, live, blocks))

    for j in range(size):
        for j2, dir1, live1, lhs1 in by_source[j]:
            for l, dir2, live2, lhs2 in by_source[j2]:
                if not (live1 and live2):
                    continue
                examined[0] += 1
                # In a limit generator the marked endpoints of distinct
                # summands sit in distinct segments, so whether a composite
                # of basis elements survives does not depend on the degrees.
                # Vanishing composites carry no sign constraint.
                if not chi_multiply(algebra, (j, j2, 0), (j2, l, 0)):
                    continue
                comp_dir = compose_directions(dir1, dir2)
                entry = entries.get((j, l))
                if comp_dir is None:
                    identity = "backward-backward"
                elif entry is None:
                    identity = "closure"
                elif entry[0] != comp_dir:
                    identity = "direction clash"
                else:
                    identity = None
                if identity is not None:
                    for i in live1:
                        for i2 in live2:
                            yield CheckFailure(identity, (j, j2, l, i, i2))
                    continue
                # The four products of the parity blocks of the two factors;
                # each cell compares the product of its two parities with
                # the block of the product at the parity of their sum.
                rhs = entry[1]
                prods = [
                    [
                        ((a00 * b00, a00 * b01 + a01 * b11), (0, a11 * b11))
                        for (b00, b01), (_, b11) in lhs2
                    ]
                    for (a00, a01), (_, a11) in lhs1
                ]
                for i in live1:
                    row = prods[i & 1]
                    for i2 in live2:
                        prod, want = row[i2 & 1], rhs[(i + i2) & 1]
                        if prod != want:
                            yield CheckFailure("multiplicativity", (j, j2, l, i, i2, prod, want))

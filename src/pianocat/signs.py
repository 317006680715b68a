"""Signed diagonal matrices of limit generators and the two-row sign calculus.

How a sign choice propagates over the keyboard tree, and what the two
checks compare, is set out in README.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

from .dissections import DissectionError
from .endo import EndoAlgebra, EndoError, GradedEntry, RingKind, _matrix_block
from .endo import is_piano_of, piano_of_generator
from .endo import chi_multiply  # noqa: F401  unused here; perfbench's tracer asserts this binding
from .generators import fan_summands, is_limit_generator
from .geometry import MEMO_SIZE, Arc, ArcSet, arc_set
from .homs import (
    Direction,
    HomError,
    compose_directions,
    cone_presentation,
    default_apex,
    morphism_direction,
)
from .quivers import PianoQuiver


class SignError(ValueError):
    pass


# Read on hot paths and compared by identity, as ``geometry`` reads ``ArcKind``.
_FORWARD = Direction.FORWARD


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
def _fan(n: int) -> ArcSet:
    """The reference fan, at ``default_apex(n)``, built once per n."""
    return arc_set(n, fan_summands(n))


@lru_cache(maxsize=MEMO_SIZE)
def _cone_summand(x: Arc) -> ConeSummand:
    """The cone presentation of one summand over the reference fan."""
    if x.contains(default_apex(x.n)):
        return ConeSummand(None, x)
    return ConeSummand(*cone_presentation(x, _fan(x.n)))


def cone_data(arcs: list[Arc]) -> ConeData:
    """Cone presentations over the reference fan; summand order is preserved.

    Requires the summands outside the suspension closure of the fan to come
    first, matching the block layout of the signed matrix.
    """
    entries = tuple(map(_cone_summand, arcs))
    m = sum(1 for e in entries if e.q is not None)
    if any(e.q is None for e in entries[:m]):
        raise SignError("summand order must list the non-fan summands before the fan ones")
    return ConeData(entries, m)


def order_for_cone_blocks(arcs: list[Arc]) -> list[Arc]:
    """Stable reorder putting the summands outside the fan closure first."""
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


@dataclass(frozen=True)
class SignGraph:
    """The keyboard tree of a limit generator, each edge with its direction
    class, over the generator's endomorphism algebra, with the degree-0
    table and cone presentations of its summands."""

    algebra: EndoAlgebra
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


def sign_graph(algebra: EndoAlgebra, piano: PianoQuiver) -> SignGraph:
    """The graph a sign choice propagates over; see ``propagate_choice``.

    ``algebra`` and ``piano`` belong to one limit generator with the summands
    in one order (``EndoAlgebra.from_arcs``, ``endo.piano_of_generator``).
    A nonzero entry between distinct summands is Laurent, so the degree-0
    table holds the direction of each, row-major; each keyboard arrow reads
    its direction from that table.
    """
    arcs, n = algebra.arcs, algebra.n
    if not is_limit_generator(arc_set(n, arcs)):
        raise SignError("not a limit generator")
    if not is_piano_of(piano, arcs):
        raise SignError("the piano's vertices are not these summands in this order")
    cones = cone_data(list(arcs))
    zero = RingKind.ZERO
    table = {
        (j, l): morphism_direction(x, y, 0)
        for j, (x, row) in enumerate(zip(arcs, algebra.entries))
        for l, (y, entry) in enumerate(zip(arcs, row))
        if j != l and entry.kind is not zero
    }
    adjacency: dict[int, list[tuple[int, Direction]]] = {v: [] for v in range(algebra.size)}
    for e in piano.arrows:
        direction = table.get((e.src, e.tgt))
        if direction is None:
            raise HomError(f"no nonzero degree 0 morphism {arcs[e.src]} -> {arcs[e.tgt]}")
        adjacency[e.src].append((e.tgt, direction))
        adjacency[e.tgt].append((e.src, direction))
    return SignGraph(algebra, table, cones, adjacency)


def _own_graph(m: SignedMatrix, arcs: list[Arc]) -> SignGraph:
    """The sign graph of ``m``, refused unless built for these summands."""
    if m.graph.arcs != tuple(arcs):
        raise SignError("the signed matrix was built for other summands")
    return m.graph


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
            if direction is _FORWARD:
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


def _sign_graph_of(arcs: list[Arc]) -> SignGraph:
    """The sign graph of bare summands, over a piano and an algebra built for them."""
    n = arcs[0].n
    try:
        piano = piano_of_generator(arcs, n)
        algebra = EndoAlgebra.from_arcs(arcs, n)
    except (DissectionError, EndoError) as exc:  # summands of no limit generator
        raise SignError("not a limit generator") from exc
    return sign_graph(algebra, piano)


def signed_matrix(arcs: list[Arc], initial_choice: tuple[str, int]) -> SignedMatrix:
    """The signed matrix of one initial choice; see ``propagate_choice``."""
    return propagate_choice(_sign_graph_of(arcs), initial_choice)


def both_signed_matrices(arcs: list[Arc]) -> list[SignedMatrix]:
    """The signed matrices of the two ``DEFAULT_CHOICES``, over one sign graph."""
    graph = _sign_graph_of(arcs)
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


def check_beta_delta(m: SignedMatrix, arcs: list[Arc]) -> CheckReport:
    """Sign coherence along every nonzero morphism between distinct summands.

    Forward morphisms must preserve both rows of signs, backward ones must
    swap them; additionally the two signs at a cone summand multiply to -1.
    Between two fan summands every morphism is forward: the anticlockwise
    advance from one free endpoint to the other stops before the apex.
    The degree-0 table is the one of the matrix's sign graph; ``arcs`` must
    be the summands that graph was built for.
    """
    table = _own_graph(m, arcs).table
    failures: list[CheckFailure] = []
    for j in range(m.m):
        if m.beta[j] * m.delta[j] != -1:
            failures.append(CheckFailure("beta*delta=-1", (j,)))
    # The beta row, with no slot (None) at the summands past the split index.
    beta, delta = m.beta + (None,) * (len(m.delta) - m.m), m.delta
    for (j, l), direction in table.items():
        bj, bl, dj, dl = beta[j], beta[l], delta[j], delta[l]
        if direction is _FORWARD:
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


def _sign_power(sign: int, degree: int) -> int:
    return sign if degree % 2 else 1


def phi_block(
    m: SignedMatrix,
    cones: ConeData,
    j: int,
    l: int,
    degree: int,
    direction: Direction,
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Signed 2x2 block of the degree-``degree`` basis morphism from j to l.

    Forward morphisms sit on the diagonal with the two signed powers,
    backward ones occupy the upper-right corner; components through a zero
    cone top are omitted.
    """
    has_qj = cones.summands[j].q is not None
    has_ql = cones.summands[l].q is not None
    y = w = z = 0
    if direction is _FORWARD:
        if has_qj and has_ql:
            y = _sign_power(m.beta[j], degree)
        z = _sign_power(m.delta[j], degree)
    else:
        if has_qj:
            w = _sign_power(m.beta[j], degree)
    return (y, w), (0, z)


def verify_phi_homomorphism(
    arcs: list[Arc],
    m: SignedMatrix,
    window: int = 4,
    max_failures: int = 20,
) -> CheckReport:
    """Verify that the signed block assignment is a degree-zero algebra map.

    Part (a): at every cone summand the sign identity beta^i = (-1)^i delta^i
    holds for all |i| <= window, which makes the induced differential vanish.
    Part (b), one pass over every composable pair of homogeneous basis
    elements with degrees in the window and a nonzero product: two backward
    morphisms never compose, the product lands in a nonzero entry whose
    direction is the composite's, and the product of the two signed blocks
    equals the signed block of the product.  Blocks depend on their degrees
    only through the parities, so each composable triple of summands
    compares the parity pairs its factors' live degrees meet, and its
    ``(i, i2)`` cells are walked only when one of those comparisons fails;
    the witnesses are those of a per-cell loop.  The matrix identity
    phi(x) phi(x') = phi(x x') summed over each degree pair adds up exactly
    these block identities, so it holds whenever part (b) does.
    The algebra, cone data and directions come from the matrix's sign graph,
    built for ``arcs``.  At most ``max_failures`` witnesses are reported, in
    the order they are found; ``pairs`` counts the composable pairs of
    nonzero entries (j -> j2, j2 -> l) that part (b) examined.  Refuses (``SignError``) a negative window and a cap below
    one: neither can check anything.
    """
    if window < 0:
        raise SignError(f"window must be at least 0, got {window}")
    if max_failures < 1:
        raise SignError(f"max_failures must be at least 1, got {max_failures}")
    graph = _own_graph(m, arcs)
    examined = [0]  # incremented by part (b), which may be cut short
    failures = tuple(islice(_phi_failures(m, window, graph, examined), max_failures))
    return CheckReport(failures, examined[0])


def _cells(e1: GradedEntry, e2: GradedEntry, degrees: range) -> Iterator[tuple[int, int]]:
    """The degree pairs (i, i2) where e1 has a basis element in degree i and
    e2 one in degree i2, i first."""
    live2 = [i2 for i2 in degrees if e2.dim(i2)]
    return ((i, i2) for i in degrees if e1.dim(i) for i2 in live2)


def _phi_failures(
    m: SignedMatrix, window: int, graph: SignGraph, examined: list[int]
) -> Iterator[CheckFailure]:
    """The failures of ``verify_phi_homomorphism``, lazily and in order.

    Each composable triple (j, j2, l) reads whether it survives from the
    process-wide block memo ``endo._matrix_block`` at degrees (0, 0).  Every
    nonzero entry has basis elements in degrees 0 and -1, so the degrees of
    a window meet parity 0 alone at window 0 and both parities beyond it;
    the degrees themselves are read only when a triple's cells are walked.
    """
    degrees = range(-window, window + 1)
    for j in range(m.m):
        for i in degrees:
            if _sign_power(m.beta[j], i) != (-1) ** i * _sign_power(m.delta[j], i):
                yield CheckFailure("differential", (j, i))

    # The nonzero entries, grouped by source, each with its direction and
    # its signed blocks at even and odd degrees: a block depends on its
    # degree only through the parity.
    parities = (0,) if window == 0 else (0, 1)
    algebra = graph.algebra
    arcs, size = algebra.arcs, algebra.size
    entries: dict[tuple[int, int], tuple[Direction, tuple]] = {}
    by_source: list[list[tuple]] = [[] for _ in range(size)]
    for j in range(size):
        for l in range(size):
            graded = algebra.entry(j, l)
            if graded.kind == RingKind.ZERO:
                continue
            # The degree-0 basis element of a diagonal entry is the identity.
            direction = _FORWARD if j == l else graph.table[(j, l)]
            blocks = tuple(phi_block(m, graph.cones, j, l, p, direction) for p in (0, 1))
            entries[(j, l)] = direction, blocks
            by_source[j].append((l, direction, graded, blocks))

    for j in range(size):
        x = arcs[j]
        for j2, dir1, graded1, lhs1 in by_source[j]:
            y = arcs[j2]
            for l, dir2, graded2, lhs2 in by_source[j2]:
                examined[0] += 1
                # In a limit generator the marked endpoints of distinct
                # summands sit in distinct segments, so whether a composite
                # of basis elements survives does not depend on the degrees
                # (tests/test_signs.py::test_phi_survival_does_not_depend_on_the_degrees).
                # Vanishing composites carry no sign constraint.
                if not _matrix_block(x, y, arcs[l], (0,), (0,))[0][0]:
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
                    for i, i2 in _cells(graded1, graded2, degrees):
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
                if all(prods[p][p2] == rhs[p ^ p2] for p in parities for p2 in parities):
                    continue
                for i, i2 in _cells(graded1, graded2, degrees):
                    prod, want = prods[i & 1][i2 & 1], rhs[(i + i2) & 1]
                    if prod != want:
                        yield CheckFailure("multiplicativity", (j, j2, l, i, i2, prod, want))

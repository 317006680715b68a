"""Limit pre-generators, limit generators, fan generators, and linear-order checks.

A limit pre-generator is a non-crossing spanning tree of double limit arcs on
the accumulation points; a limit generator adds one limit arc per open
segment, everything pairwise non-crossing under all suspensions.  Limit arcs
are always normalised so their marked endpoint sits at position 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (
    ARC_KEY,
    Arc,
    ArcKind,
    ArcSet,
    BoundaryPoint,
    arc_set,
    cross,
    crosses_under_some_shift,
    is_connected,
    suspend,
)
from .dissections import dissection_from_generator, rotation_class_representatives
from .homs import factors_through, hom_dim


class GeneratorError(ValueError):
    pass

ENUMERATION_CAP = 6


@dataclass(frozen=True)
class LimitGeneratorDecomposition:
    pre_generator: ArcSet
    limit_part: ArcSet
    segment_assignment: dict[int, Arc]


def _limit_regime(a: ArcSet) -> bool:
    return all(x.kind in (ArcKind.LIMIT, ArcKind.DOUBLE_LIMIT) for x in a)


def _pairwise_shift_noncrossing(arcs: list[Arc]) -> bool:
    for i, x in enumerate(arcs):
        for y in arcs[i + 1 :]:
            if crosses_under_some_shift(x, y):
                return False
    return True


def is_homologically_connected(a: ArcSet) -> bool:
    """Connectivity of the endpoint-sharing graph of a shift-non-crossing limit family.

    Two arcs are adjacent when they share an accumulation-point endpoint; the
    predicate is only defined in this regime, where connectivity through
    irreducible maps reduces to shared endpoints.
    """
    arcs = list(a)
    if not _limit_regime(a) or not _pairwise_shift_noncrossing(arcs):
        raise GeneratorError("unsupported arc configuration")
    edges = [
        (i, j)
        for i, x in enumerate(arcs)
        for j in range(i + 1, len(arcs))
        if x.shared_accumulation(arcs[j]) is not None
    ]
    return is_connected(len(arcs), edges)


def is_limit_pre_generator(a: ArcSet) -> bool:
    """Double limit arcs forming a non-crossing spanning tree on the accumulation points."""
    if a.n == 1:
        return len(a) == 0
    arcs = list(a)
    if len(arcs) != a.n - 1:
        return False
    if any(x.kind != ArcKind.DOUBLE_LIMIT for x in arcs):
        return False
    for i, x in enumerate(arcs):
        for y in arcs[i + 1 :]:
            if cross(x, y):
                return False
    # n-1 edges on n vertices form a spanning tree iff they are connected.
    return is_connected(a.n, [(x.a.seg, x.b.seg) for x in arcs])


def decompose(a: ArcSet) -> LimitGeneratorDecomposition:
    """Split a limit generator into its tree part and its one-arc-per-segment part."""
    if not is_limit_generator(a):
        raise GeneratorError("not a limit generator")
    doubles = [x for x in a if x.kind == ArcKind.DOUBLE_LIMIT]
    limits = [x for x in a if x.kind == ArcKind.LIMIT]
    assignment: dict[int, Arc] = {}
    for x in limits:
        free = x.a if x.a.is_marked else x.b
        assignment[free.seg] = x
    return LimitGeneratorDecomposition(
        arc_set(a.n, doubles), arc_set(a.n, limits), assignment
    )


def is_limit_generator(a: ArcSet) -> bool:
    """Pre-generator tree plus one limit arc per segment, nothing crossing under shifts."""
    arcs = list(a)
    if not _limit_regime(a):
        return False
    doubles = [x for x in arcs if x.kind == ArcKind.DOUBLE_LIMIT]
    limits = [x for x in arcs if x.kind == ArcKind.LIMIT]
    if not is_limit_pre_generator(arc_set(a.n, doubles)):
        return False
    if len(limits) != a.n:
        return False
    free_segments = []
    for x in limits:
        free = x.a if x.a.is_marked else x.b
        free_segments.append(free.seg)
    if sorted(free_segments) != list(range(a.n)):
        return False
    return _pairwise_shift_noncrossing(arcs)


def fan_summands(n: int, apex: BoundaryPoint | None = None) -> list[Arc]:
    """The 2n-1 fan arcs at the apex (default Acc(n-1)), in radial (anticlockwise) order."""
    if apex is None:
        apex = BoundaryPoint(n - 1)
    out: list[Arc] = [Arc(n, apex, BoundaryPoint(apex.seg, 0))]
    for k in range(1, n):
        j = (apex.seg + k) % n
        out.append(Arc(n, apex, BoundaryPoint(j)))
        out.append(Arc(n, apex, BoundaryPoint(j, 0)))
    return out


def fan_generator(n: int) -> ArcSet:
    return arc_set(n, fan_summands(n))


def enumerate_pre_generators(n: int) -> list[ArcSet]:
    """All limit pre-generators: non-crossing spanning trees on the accumulation points."""
    if n > ENUMERATION_CAP:
        raise GeneratorError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if n == 1:
        return [arc_set(1, [])]
    candidates = [
        Arc(n, BoundaryPoint(i), BoundaryPoint(j))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    out: list[ArcSet] = []

    def extend(start: int, chosen: list[Arc]) -> None:
        if len(chosen) == n - 1:
            cand = arc_set(n, chosen)
            if is_limit_pre_generator(cand):
                out.append(cand)
            return
        for idx in range(start, len(candidates)):
            c = candidates[idx]
            if all(not cross(c, other) for other in chosen):
                extend(idx + 1, chosen + [c])

    extend(0, [])
    return out


def enumerate_limit_generators(n: int, up_to_equivalence: bool = False) -> list[ArcSet]:
    """All limit generators with limit arcs normalised to position 0.

    With ``up_to_equivalence`` one representative per orbit of the rotation
    group of order n is kept (reflections are not quotiented).
    """
    if n > ENUMERATION_CAP:
        raise GeneratorError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    candidates = [
        [Arc(n, BoundaryPoint(i), BoundaryPoint(seg, 0)) for i in range(n)]
        for seg in range(n)
    ]
    out: list[ArcSet] = []
    for pre in enumerate_pre_generators(n):
        tree = list(pre)

        def extend(seg: int, chosen: list[Arc]) -> None:
            if seg == n:
                out.append(arc_set(n, tree + chosen))
                return
            for cand in candidates[seg]:
                if all(
                    not crosses_under_some_shift(cand, other)
                    for other in tree + chosen
                ):
                    extend(seg + 1, chosen + [cand])

        extend(0, [])
    out.sort(key=ArcSet.dumps)
    if not up_to_equivalence:
        return out
    # Rotating a generator rotates its dissection image, so the rotation
    # classes of the two agree.
    return rotation_class_representatives(out, map(dissection_from_generator, out))


@dataclass(frozen=True)
class LinearGeneratorReport:
    total_order: tuple[bool, tuple | None]
    shift_increases: tuple[bool, tuple | None]
    no_strictly_between: tuple[bool, tuple | None]
    factorisation: tuple[bool, tuple | None]

    @property
    def passed(self) -> bool:
        return all(
            flag
            for flag, _ in (
                self.total_order,
                self.shift_increases,
                self.no_strictly_between,
                self.factorisation,
            )
        )


def check_linear_generator(e: ArcSet, window: int = 6) -> LinearGeneratorReport:
    """Check the four linear-generator axioms on a suspension window.

    The additive hull is sampled as all suspensions of the summands with
    shift at most ``window``; the order is P >= Q iff the degree-zero space
    from P to Q is nonzero.
    """
    objects = sorted(
        {suspend(x, k) for x in e for k in range(-window, window + 1)},
        key=ARC_KEY,
    )
    leq: dict[tuple[int, int], bool] = {}
    for i, p in enumerate(objects):
        for j, q in enumerate(objects):
            leq[(i, j)] = hom_dim(p, q, 0) == 1  # q <= p witnessed by a map p -> q

    # Axiom 1: comparable, antisymmetric, transitive.
    order_ok: tuple[bool, tuple | None] = (True, None)
    m = len(objects)
    for i in range(m):
        for j in range(i + 1, m):
            down, up = leq[(i, j)], leq[(j, i)]
            if down == up:
                order_ok = (False, (objects[i], objects[j]))
                break
        if not order_ok[0]:
            break
    if order_ok[0]:
        below = {i: {j for j in range(m) if j != i and leq[(i, j)]} for i in range(m)}
        for i in range(m):
            for j in below[i]:
                if not below[j] <= below[i] | {i}:
                    order_ok = (False, (objects[i], objects[j]))
                    break
            if not order_ok[0]:
                break

    shift_ok: tuple[bool, tuple | None] = (True, None)
    for p in objects:
        if hom_dim(suspend(p, 1), p, 0) != 1:
            shift_ok = (False, (p,))
            break

    between_ok: tuple[bool, tuple | None] = (True, None)
    for p in objects:
        p1 = suspend(p, 1)
        for q in objects:
            if q == p or q == p1:
                continue
            if hom_dim(q, p, 0) == 1 and hom_dim(p1, q, 0) == 1:
                between_ok = (False, (p, q))
                break
        if not between_ok[0]:
            break

    factor_ok: tuple[bool, tuple | None] = (True, None)
    if order_ok[0]:
        for i in range(m):
            for j in range(m):
                if i == j or not leq[(i, j)]:
                    continue
                for k in range(m):
                    if k in (i, j) or not leq[(j, k)]:
                        continue
                    # objects[k] <= objects[j] <= objects[i]
                    if not factors_through(objects[i], objects[j], objects[k]):
                        factor_ok = (False, (objects[i], objects[j], objects[k]))
                        break
                if not factor_ok[0]:
                    break
            if not factor_ok[0]:
                break

    return LinearGeneratorReport(order_ok, shift_ok, between_ok, factor_ok)

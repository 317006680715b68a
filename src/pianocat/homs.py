"""Graded Hom spaces between arcs, morphism directions, and two-term triangles.

Every Hom space between indecomposables is 0 or 1 dimensional.  The degree-i
space from X to Y is nonzero exactly when the pair (X, Y[i-1]) satisfies one
of: the arcs cross; they share a single accumulation point and the target is
reached from the source by an anticlockwise rotation about it; they are one
and the same double limit arc.

``ext1_dim``, ``hom_alignment``, ``morphism_direction`` and
``cone_presentation`` depend on their arguments alone, and arcs, arc sets
and boundary points are frozen, so each is memoised for the whole process
in an LRU cache of ``MEMO_SIZE`` entries (defined in ``geometry``): every
generator of a sweep reuses the answers for the arc pairs it shares with
the others.  A refusal raises and is not cached, so it raises again on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .geometry import (
    Arc,
    ArcKind,
    ArcSet,
    BoundaryPoint,
    GeometryError,
    MEMO_SIZE,
    cross,
    cyclic_less,
    in_closed_interval,
    suspend,
)


class HomError(ValueError):
    pass


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def default_apex(n: int) -> BoundaryPoint:
    """Reference accumulation point, the apex of the standard fan."""
    return BoundaryPoint((n - 1) % n)


@lru_cache(maxsize=MEMO_SIZE)
def ext1_dim(x: Arc, y: Arc) -> int:
    """Dimension of the space of degree-one extensions of y by x (0 or 1)."""
    if x.n != y.n:
        raise HomError("arcs live on circles with different n")
    if x.a._key == y.a._key and x.b._key == y.b._key:  # x == y
        return 1 if x.kind == ArcKind.DOUBLE_LIMIT else 0
    if cross(x, y):
        return 1
    shared = x.shared_accumulation(y)
    if shared is not None:
        x_free = x.other_endpoint(shared)
        y_free = y.other_endpoint(shared)
        # x and y differ, so the free endpoints differ.
        if cyclic_less(x_free, y_free, shared):
            return 1
    return 0


def hom_dim(x: Arc, y: Arc, i: int) -> int:
    """Dimension of the degree-i morphism space from x to y (0 or 1)."""
    return ext1_dim(x, suspend(y, i - 1))


@dataclass(frozen=True)
class HomDegreeTable:
    """Degree-by-degree Hom dimensions between two arcs on [-window, window]."""

    source: Arc
    target: Arc
    window: int
    dims: dict[int, int]

    @staticmethod
    def build(source: Arc, target: Arc, window: int) -> "HomDegreeTable":
        dims = {i: hom_dim(source, target, i) for i in range(-window, window + 1)}
        return HomDegreeTable(source, target, window, dims)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "window": [-self.window, self.window],
            "dims": {str(i): self.dims[i] for i in sorted(self.dims)},
        }

    def to_csv_rows(self) -> list[list]:
        return [["degree", "dim"]] + [[i, self.dims[i]] for i in sorted(self.dims)]


@lru_cache(maxsize=MEMO_SIZE)
def hom_alignment(
    x: Arc, y: Arc
) -> tuple[tuple[BoundaryPoint, BoundaryPoint], tuple[BoundaryPoint, BoundaryPoint]] | None:
    """Endpoint labelling under which y is an anticlockwise advance of x.

    Returns ((x1, x2), (y1, y2)) with y1 in the half-open interval [x1, x2)
    and y2 in [x2, x1), or None when no such labelling exists.  A nonzero
    degree-zero morphism x -> y admits exactly one alignment up to swapping
    both pairs simultaneously.
    """

    def in_half_open(p: BoundaryPoint, start: BoundaryPoint, end: BoundaryPoint) -> bool:
        if p == start:
            return True
        if p == end:
            return False
        return cyclic_less(start, p, end)

    x1, x2 = x.endpoints()
    for xs in ((x1, x2), (x2, x1)):
        for ys in (y.endpoints(), y.endpoints()[::-1]):
            if in_half_open(ys[0], xs[0], xs[1]) and in_half_open(ys[1], xs[1], xs[0]):
                return xs, ys
    return None


@lru_cache(maxsize=MEMO_SIZE)
def morphism_direction(
    x: Arc, y: Arc, degree: int = 0, apex: BoundaryPoint | None = None
) -> Direction:
    """Classify the nonzero degree-``degree`` morphism from x to y.

    Each endpoint of x advances anticlockwise onto an endpoint of the shifted
    target; the morphism is backward when one of the two advance sweeps picks
    up the reference apex (sweep excludes its start, includes its end), and
    forward otherwise.
    """
    if apex is None:
        apex = default_apex(x.n)
    if hom_dim(x, y, degree) != 1:
        raise HomError(f"no nonzero degree {degree} morphism {x} -> {y}")
    target = suspend(y, degree)
    aligned = hom_alignment(x, target)
    if aligned is None:
        raise HomError(f"no endpoint alignment for {x} -> {target}")
    (x1, x2), (y1, y2) = aligned
    for start, end in ((x1, y1), (x2, y2)):
        if start == end:
            continue
        if apex == end:
            return Direction.BACKWARD
        if apex != start and cyclic_less(start, apex, end):
            return Direction.BACKWARD
    return Direction.FORWARD


def factors_through(y: Arc, w: Arc, z: Arc) -> bool:
    """Whether the nonzero degree-zero morphism y -> z factors through w.

    Both endpoints of w must sit inside the closed anticlockwise advance
    intervals of the aligned endpoints of y and z.
    """
    if y == z or hom_dim(y, z, 0) != 1:
        raise HomError("no morphism to factor")
    aligned = hom_alignment(y, z)
    if aligned is None:
        raise HomError("no morphism to factor")
    return within_alignment(w, aligned)


def within_alignment(
    w: Arc,
    aligned: tuple[tuple[BoundaryPoint, BoundaryPoint], tuple[BoundaryPoint, BoundaryPoint]],
) -> bool:
    """Whether w sits between the two arcs of an alignment (see ``hom_alignment``).

    With ``aligned = ((y1, y2), (z1, z2))`` the endpoints of w must lie in
    the closed anticlockwise intervals [y1, z1] and [y2, z2], in one of the
    two labellings of w.
    """
    (y1, y2), (z1, z2) = aligned
    wa, wb = w.endpoints()
    for w1, w2 in ((wa, wb), (wb, wa)):
        if in_closed_interval(w1, y1, z1) and in_closed_interval(w2, y2, z2):
            return True
    return False


def compose_directions(first: Direction, second: Direction) -> Direction | None:
    """Direction of a composite already known to be nonzero, first then second.

    Forward after forward stays forward; a single backward factor makes the
    composite backward.  Two backward factors always compose to zero, so
    they give None.  Otherwise the rule does not decide whether the
    composite vanishes: one backward factor may still compose to zero.
    """
    if first != second:
        return Direction.BACKWARD
    return Direction.FORWARD if first == Direction.FORWARD else None


@dataclass(frozen=True)
class Triangle:
    """A distinguished triangle source -> middle -> target -> source[1].

    Middle summands that would degenerate to invalid arcs are omitted.
    """

    source: Arc
    middles: tuple[Arc, ...]
    target: Arc


def _try_arc(n: int, a: BoundaryPoint, b: BoundaryPoint) -> Arc | None:
    try:
        return Arc(n, a, b)
    except GeometryError:
        return None


def extension_triangles(x: Arc, y: Arc) -> list[Triangle]:
    """The triangles induced by a crossing pair or a shared-accumulation pair.

    A crossing pair gives two triangles with two-summand middles; a pair
    sharing one accumulation point gives the single triangle whose middle
    joins the free endpoints, oriented so every map is nonzero.
    """
    n = x.n
    shared = x.shared_accumulation(y) if x != y else None
    if shared is not None:
        u = x.other_endpoint(shared)
        v = y.other_endpoint(shared)
        if not cyclic_less(shared, u, v):
            u, v = v, u
        middle = _try_arc(n, u, v)
        middles = (middle,) if middle is not None else ()
        return [Triangle(Arc(n, shared, v), middles, Arc(n, shared, u))]
    if cross(x, y):
        x0, x1 = x.endpoints()
        y0, y1 = y.endpoints()
        if not cyclic_less(y0, x0, y1):
            y0, y1 = y1, y0
        # Now y0 < x0 < y1 < x1 anticlockwise.
        a = _try_arc(n, y1, x1)
        b = _try_arc(n, y0, x0)
        c = _try_arc(n, y0, x1)
        d = _try_arc(n, x0, y1)
        return [
            Triangle(x, tuple(m for m in (a, b) if m is not None), y),
            Triangle(y, tuple(m for m in (c, d) if m is not None), x),
        ]
    raise HomError("no extension triangle")


def _shift_family(x: Arc) -> tuple:
    """Identify an arc up to suspension: marked positions are forgotten.

    The endpoints are read in key order, the order the arc stores them in.
    """
    return tuple(("acc", p.seg) if p.pos is None else ("seg", p.seg) for p in (x.a, x.b))


def shift_families(gens: ArcSet) -> frozenset[tuple]:
    """The summands of gens up to suspension, as ``cone_presentation`` reads them."""
    return frozenset(_shift_family(g) for g in gens)


@lru_cache(maxsize=MEMO_SIZE)
def cone_presentation(
    x: Arc, gens: ArcSet, families: frozenset[tuple] | None = None
) -> tuple[Arc | None, Arc]:
    """Present x as the cone of a map between suspended summands of gens.

    Returns (q, p) with x isomorphic to cone(q -> p); q is None when x is
    already a suspension of a summand.  Works whenever one shared-endpoint
    triangle suffices, in particular for every arc against a fan.
    ``families``, when given, is ``shift_families(gens)``, so that a caller
    presenting many arcs over the same summands computes it once.
    """
    if families is None:
        families = shift_families(gens)
    if _shift_family(x) in families:
        return None, x
    e1, e2 = x.endpoints()
    for c_seg in range(x.n):
        c = BoundaryPoint(c_seg)
        if x.contains(c):
            continue
        legs = []
        for e in (e1, e2):
            leg = _try_arc(x.n, c, e)
            if leg is None or _shift_family(leg) not in families:
                legs = []
                break
            legs.append(leg)
        if not legs:
            continue
        u, v = e1, e2
        if not cyclic_less(c, u, v):
            u, v = v, u
        p = Arc(x.n, c, v)
        q = suspend(Arc(x.n, c, u), -1)
        return q, p
    raise HomError(f"{x} is not the cone of a single map between summand suspensions")

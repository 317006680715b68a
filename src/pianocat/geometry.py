"""Exact symbolic model of the marked circle with n accumulation points.

The boundary carries n accumulation points Acc(0..n-1) in anticlockwise
order; between Acc(i) and Acc(i+1) sits a copy of the integers, the marked
points Pt(i, p).  All predicates are exact (no floating point): points are
compared through a lexicographic key that linearises one full anticlockwise
turn starting at Acc(0).  Each point computes its key once, at construction,
and the order predicates compare the stored keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator


class GeometryError(ValueError):
    pass


class ArcKind(Enum):
    SHORT = "short"
    LONG = "long"
    LIMIT = "limit"
    DOUBLE_LIMIT = "double_limit"


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point: Pt(seg, pos) when pos is an int, Acc(seg) when pos is None.

    Within segment ``seg`` the order is Acc(seg) < Pt(seg, p) < Pt(seg, q) <
    Acc(seg + 1) for p < q.  Two marked points of one segment at adjacent
    positions are neighbours; an accumulation point has none.
    """

    seg: int
    pos: int | None = None
    # ``key()``, stored; the key is injective, so equal keys mean equal points.
    _key: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.seg < 0:
            raise GeometryError(f"segment index must be reduced mod n, got {self.seg}")
        # Linear order of one anticlockwise turn starting at Acc(0).
        key = (self.seg, 0, 0) if self.pos is None else (self.seg, 1, self.pos)
        object.__setattr__(self, "_key", key)

    @property
    def is_accumulation(self) -> bool:
        return self.pos is None

    @property
    def is_marked(self) -> bool:
        return self.pos is not None

    def key(self) -> tuple[int, int, int]:
        return self._key

    def shifted(self, k: int) -> "BoundaryPoint":
        """Apply the suspension k times: marked points move p -> p - k."""
        if self.pos is None:
            return self
        return BoundaryPoint(self.seg, self.pos - k)

    def to_json(self) -> dict:
        if self.pos is None:
            return {"acc": self.seg}
        return {"pt": [self.seg, self.pos]}

    @staticmethod
    def from_json(obj: object) -> "BoundaryPoint":
        try:
            if "acc" in obj:
                return BoundaryPoint(int(obj["acc"]))
            i, p = obj["pt"]
            return BoundaryPoint(int(i), int(p))
        except TypeError as exc:
            raise GeometryError(
                f'a boundary point is {{"acc": i}} or {{"pt": [i, p]}}, got {obj!r}'
            ) from exc

    def __repr__(self) -> str:
        if self.pos is None:
            return f"Acc({self.seg})"
        return f"Pt({self.seg},{self.pos})"


def acc(i: int, n: int) -> BoundaryPoint:
    """The accumulation point with index i reduced mod n."""
    if n < 1:
        raise GeometryError("need n >= 1")
    return BoundaryPoint(i % n)


def pt(i: int, p: int, n: int) -> BoundaryPoint:
    """The marked point at position p of segment i (reduced mod n)."""
    if n < 1:
        raise GeometryError("need n >= 1")
    return BoundaryPoint(i % n, p)


def cyclic_less(x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint) -> bool:
    """True iff travelling anticlockwise from x reaches y strictly before z."""
    kx, ky, kz = x._key, y._key, z._key
    if kx == ky or ky == kz or kx == kz:
        raise GeometryError("degenerate triple")
    return (kx < ky < kz) or (ky < kz < kx) or (kz < kx < ky)


def in_open_interval(p: BoundaryPoint, start: BoundaryPoint, end: BoundaryPoint) -> bool:
    """Membership in the open anticlockwise interval (start, end)."""
    kp, ks, ke = p._key, start._key, end._key
    if kp == ks or kp == ke or ks == ke:
        return False
    return (ks < kp < ke) or (kp < ke < ks) or (ke < ks < kp)


def in_closed_interval(p: BoundaryPoint, start: BoundaryPoint, end: BoundaryPoint) -> bool:
    """Membership in the closed anticlockwise interval [start, end]."""
    kp, ks, ke = p._key, start._key, end._key
    if kp == ks or kp == ke:
        return True
    if ks == ke:
        return False
    return (ks < kp < ke) or (kp < ke < ks) or (ke < ks < kp)


@dataclass(frozen=True)
class Arc:
    """An unordered pair of non-neighbouring boundary points on the n-marked circle.

    Endpoints are stored canonically ordered by their key, so equal arcs
    compare and hash equal.  The kind is derived from the endpoints alone.
    """

    n: int
    a: BoundaryPoint
    b: BoundaryPoint

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GeometryError("need n >= 1")
        for e in (self.a, self.b):
            if e.seg >= self.n:
                raise GeometryError(f"endpoint {e} outside 0..{self.n - 1}")
        a, b = self.a, self.b
        if a._key == b._key:
            raise GeometryError("arc endpoints must be distinct")
        # Only marked points at adjacent positions of one segment are neighbours.
        if a.seg == b.seg and a.pos is not None and b.pos is not None and abs(a.pos - b.pos) == 1:
            raise GeometryError(f"arc endpoints {a},{b} are neighbours")
        if a._key > b._key:
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    @property
    def kind(self) -> ArcKind:
        acc_count = self.a.is_accumulation + self.b.is_accumulation
        if acc_count == 2:
            return ArcKind.DOUBLE_LIMIT
        if acc_count == 1:
            return ArcKind.LIMIT
        if self.a.seg == self.b.seg:
            return ArcKind.SHORT
        return ArcKind.LONG

    def endpoints(self) -> tuple[BoundaryPoint, BoundaryPoint]:
        return (self.a, self.b)

    def contains(self, p: BoundaryPoint) -> bool:
        return p == self.a or p == self.b

    def other_endpoint(self, p: BoundaryPoint) -> BoundaryPoint:
        if p == self.a:
            return self.b
        if p == self.b:
            return self.a
        raise GeometryError(f"{p} is not an endpoint of {self}")

    def shared_accumulation(self, other: "Arc") -> BoundaryPoint | None:
        """The unique shared accumulation-point endpoint, if there is exactly one."""
        common = [p for p in self.endpoints() if other.contains(p) and p.is_accumulation]
        if len(common) == 1:
            return common[0]
        return None

    def sort_key(self) -> tuple:
        return (self.a._key, self.b._key)

    def to_json(self) -> list:
        return [self.a.to_json(), self.b.to_json()]

    @staticmethod
    def from_json(obj: object, n: int) -> "Arc":
        if not isinstance(obj, list) or len(obj) != 2:
            raise GeometryError(f"an arc is a pair of boundary points, got {obj!r}")
        return Arc(n, BoundaryPoint.from_json(obj[0]), BoundaryPoint.from_json(obj[1]))

    def __repr__(self) -> str:
        return f"Arc({self.a!r},{self.b!r})"


def suspend(x: Arc, k: int) -> Arc:
    """The k-fold suspension: marked endpoints move to p - k, accumulation points stay."""
    return Arc(x.n, x.a.shifted(k), x.b.shifted(k))


def cross(x: Arc, y: Arc) -> bool:
    """True iff the endpoint pairs strictly interleave on the circle.

    Arcs sharing an endpoint never cross.
    """
    if x.n != y.n:
        raise GeometryError("arcs live on circles with different n")
    xa, xb, ya, yb = x.a._key, x.b._key, y.a._key, y.b._key
    if ya == xa or ya == xb or yb == xa or yb == xb:
        return False
    # The endpoints of an arc differ, so each open-interval test is a cyclic order.
    return ((xa < ya < xb) or (ya < xb < xa) or (xb < xa < ya)) != (
        (xa < yb < xb) or (yb < xb < xa) or (xb < xa < yb)
    )


def coarse_position(p: BoundaryPoint) -> int:
    """Collapse a point to the 2n-cycle: Acc(i) -> 2i, Pt(i, *) -> 2i + 1."""
    if p.is_accumulation:
        return 2 * p.seg
    return 2 * p.seg + 1


def crosses_under_some_shift(x: Arc, y: Arc) -> bool:
    """Whether suspend(x, s) and suspend(y, t) cross for some shifts s, t.

    Only meaningful for (double) limit arcs, where the crossing pattern is
    determined by segment-level data: strict interleaving of the collapsed
    endpoint pairs, or two limit arcs whose free endpoints share a segment
    while their accumulation endpoints differ.
    """
    if x.kind not in (ArcKind.LIMIT, ArcKind.DOUBLE_LIMIT):
        raise GeometryError(f"unsupported arc configuration: {x}")
    if y.kind not in (ArcKind.LIMIT, ArcKind.DOUBLE_LIMIT):
        raise GeometryError(f"unsupported arc configuration: {y}")
    m = 2 * x.n
    xa, xb = coarse_position(x.a), coarse_position(x.b)
    ya, yb = coarse_position(y.a), coarse_position(y.b)
    if x.kind == ArcKind.LIMIT and y.kind == ArcKind.LIMIT:
        # Free endpoints in one segment: some relative shift interleaves them
        # unless the accumulation endpoints coincide (shared endpoint).
        x_free = x.a if x.a.is_marked else x.b
        y_free = y.a if y.a.is_marked else y.b
        if x_free.seg == y_free.seg and x.other_endpoint(x_free) != y.other_endpoint(y_free):
            return True
    if {xa, xb} & {ya, yb}:
        return False

    def strictly_inside(q: int, s: int, e: int) -> bool:
        return (q - s) % m < (e - s) % m and q != s

    return strictly_inside(ya, xa, xb) != strictly_inside(yb, xa, xb)


@dataclass(frozen=True)
class ArcSet:
    """A finite set of distinct arcs over one marked circle, kept in canonical order."""

    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        for x in self.arcs:
            if x.n != self.n:
                raise GeometryError("arc and arc set disagree on n")
        ordered = tuple(sorted(set(self.arcs), key=Arc.sort_key))
        if len(ordered) != len(self.arcs):
            raise GeometryError("duplicate arcs in arc set")
        object.__setattr__(self, "arcs", ordered)

    def __iter__(self) -> Iterator[Arc]:
        return iter(self.arcs)

    def __len__(self) -> int:
        return len(self.arcs)

    def __contains__(self, x: Arc) -> bool:
        return x in self.arcs

    def to_json(self) -> dict:
        return {"n": self.n, "arcs": [x.to_json() for x in self.arcs]}

    @staticmethod
    def from_json(obj: object) -> "ArcSet":
        if not isinstance(obj, dict):
            raise GeometryError(f"an arc set is a JSON object, got {obj!r}")
        try:
            n = int(obj["n"])
            return ArcSet(n, tuple(Arc.from_json(a, n) for a in obj["arcs"]))
        except TypeError as exc:
            raise GeometryError(f"malformed arc set: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def arc_set(n: int, arcs: Iterable[Arc]) -> ArcSet:
    return ArcSet(n, tuple(arcs))


def orbit_segments(a: ArcSet) -> set[int]:
    """Segments swept by the suspension orbit: those holding a marked endpoint."""
    return {p.seg for x in a for p in x.endpoints() if p.is_marked}


def complete_orbit(a: ArcSet) -> bool:
    return orbit_segments(a) == set(range(a.n))


def rotate_point(p: BoundaryPoint, r: int, n: int) -> BoundaryPoint:
    return BoundaryPoint((p.seg + r) % n, p.pos)


def rotate_arc(x: Arc, r: int) -> Arc:
    """Rotate all segment indices by r, the disc's orientation-preserving symmetry."""
    return Arc(x.n, rotate_point(x.a, r, x.n), rotate_point(x.b, r, x.n))


def is_connected(num_vertices: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the undirected graph on vertices 0..num_vertices-1 is connected."""
    if num_vertices <= 1:
        return True
    adj: dict[int, set[int]] = {v: set() for v in range(num_vertices)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == num_vertices

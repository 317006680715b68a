"""Exact symbolic model of the marked circle with n accumulation points.

The boundary carries n accumulation points Acc(0..n-1) in anticlockwise
order; between Acc(i) and Acc(i+1) sits a copy of the integers, the marked
points Pt(i, p).  All predicates are exact (no floating point): points are
compared through a lexicographic key that linearises one full anticlockwise
turn starting at Acc(0).  Each point computes its key once, at construction,
and the order predicates compare the stored keys.  README lists the memos.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator


# Entries of each process-wide memo.  A sweep at n <= 5 stays well inside it;
# beyond it the least recently used answers are recomputed when asked again.
MEMO_SIZE = 1 << 14


class GeometryError(ValueError):
    pass


class ArcKind(Enum):
    SHORT = "short"
    LONG = "long"
    LIMIT = "limit"
    DOUBLE_LIMIT = "double_limit"


# The members as module globals, read on hot paths: reading a member off
# its enum class costs about ten times as much.
_SHORT, _LONG, _LIMIT, _DOUBLE_LIMIT = (
    ArcKind.SHORT, ArcKind.LONG, ArcKind.LIMIT, ArcKind.DOUBLE_LIMIT
)


def json_int(value: object, error: type[ValueError] = GeometryError) -> int:
    """A number read from JSON input, which must be an integer and not a bool."""
    if type(value) is not int:
        raise error(f"expected an integer, got {value!r}")
    return value


def json_object(obj: object, what: str, keys: set, error: type = GeometryError) -> dict:
    """An object read from JSON input, which may hold no key but ``keys``."""
    if not isinstance(obj, dict):
        raise error(f"{what} is a JSON object, got {obj!r}")
    if not obj.keys() <= keys:
        raise error(f"{what} takes the keys {sorted(keys)}, got {sorted(obj.keys() - keys)}")
    return obj


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
        keys = obj.keys() if isinstance(obj, dict) else None
        if keys == {"acc"}:
            return BoundaryPoint(json_int(obj["acc"]))
        pt = obj["pt"] if keys == {"pt"} else None
        if not (isinstance(pt, list) and len(pt) == 2):
            raise GeometryError(
                f'a boundary point is {{"acc": i}} or {{"pt": [i, p]}}, got {obj!r}'
            )
        return BoundaryPoint(json_int(pt[0]), json_int(pt[1]))

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


def within_row(w: tuple, row: Iterable[tuple | None]) -> tuple[int, ...]:
    """The closed-interval rule on point keys (``BoundaryPoint.key``) across a
    row of alignments: for each ``aligned = ((y1, y2), (z1, z2))``, 1 when
    the keys of ``w``, in one of their two orders, lie in the closed
    anticlockwise intervals [y1, z1] and [y2, z2] (one that ends before it
    starts in key order wraps past Acc(0)), else 0; 0 for a None alignment."""
    wa, wb = w
    orders = ((wa, wb), (wb, wa))
    out = []
    for aligned in row:
        hit = 0
        if aligned is not None:
            (y1, y2), (z1, z2) = aligned
            for w1, w2 in orders:
                if (y1 <= w1 <= z1 if y1 <= z1 else w1 >= y1 or w1 <= z1) and (
                    y2 <= w2 <= z2 if y2 <= z2 else w2 >= y2 or w2 <= z2
                ):
                    hit = 1
                    break
        out.append(hit)
    return tuple(out)


def within_keys(w: tuple, aligned: tuple) -> bool:
    """The one-cell case of ``within_row``.  A point p is in [s, e] when
    ``within_keys((p, p), ((s, s), (e, e)))``."""
    return within_row(w, (aligned,)) == (1,)


# Every arc made so far, by n and its endpoint keys in key order.
_ARCS: dict[tuple, "Arc"] = {}
ARC_KEY = attrgetter("key")  # ``Arc.sort_key``, read in C


@dataclass(frozen=True, eq=False, init=False)
class Arc:
    """An unordered pair of non-neighbouring boundary points on the n-marked circle.

    Arcs are interned: the first ``Arc(n, a, b)`` of a value validates it,
    and every later call, with the endpoints in either order, returns that
    same object; a refused value is never stored, so it raises on every
    call.  So identity is equality, and an arc hashes and compares by
    identity.  The endpoints are stored in key order, and the kind and the
    sort key (the two endpoint keys, ``ARC_KEY``) are derived from them once.
    """

    n: int
    a: BoundaryPoint
    b: BoundaryPoint
    kind: ArcKind = field(init=False, repr=False)
    key: tuple = field(init=False, repr=False)

    def __new__(cls, n: int, a: BoundaryPoint, b: BoundaryPoint) -> "Arc":
        ka, kb = a._key, b._key
        key = (n, ka, kb) if ka < kb else (n, kb, ka)
        x = _ARCS.get(key)
        if x is not None:
            return x
        if n < 1:
            raise GeometryError("need n >= 1")
        for e in (a, b):
            if e.seg >= n:
                raise GeometryError(f"endpoint {e} outside 0..{n - 1}")
        if ka == kb:
            raise GeometryError("arc endpoints must be distinct")
        # Only marked points at adjacent positions of one segment are neighbours.
        if a.seg == b.seg and a.pos is not None and b.pos is not None and abs(a.pos - b.pos) == 1:
            raise GeometryError(f"arc endpoints {a},{b} are neighbours")
        if ka > kb:
            a, b = b, a
        if a.pos is None:
            kind = _DOUBLE_LIMIT if b.pos is None else _LIMIT
        elif b.pos is None:
            kind = _LIMIT
        else:
            kind = _SHORT if a.seg == b.seg else _LONG
        x = _ARCS[key] = object.__new__(cls)
        for name, value in (("n", n), ("a", a), ("b", b), ("kind", kind), ("key", key[1:])):
            object.__setattr__(x, name, value)
        return x

    def __reduce__(self) -> tuple:
        # A copy or an unpickled arc is the interned one.
        return (Arc, (self.n, self.a, self.b))

    def endpoints(self) -> tuple[BoundaryPoint, BoundaryPoint]:
        return (self.a, self.b)

    def contains(self, p: BoundaryPoint) -> bool:
        k = p._key
        return k == self.a._key or k == self.b._key

    def other_endpoint(self, p: BoundaryPoint) -> BoundaryPoint:
        k = p._key
        if k == self.a._key:
            return self.b
        if k == self.b._key:
            return self.a
        raise GeometryError(f"{p} is not an endpoint of {self}")

    def shared_accumulation(self, other: "Arc") -> BoundaryPoint | None:
        """The unique shared accumulation-point endpoint, if there is exactly one."""
        ka, kb = other.a._key, other.b._key
        a, b = self.a, self.b
        in_a = a.pos is None and (a._key == ka or a._key == kb)
        in_b = b.pos is None and (b._key == ka or b._key == kb)
        if in_a == in_b:
            return None
        return a if in_a else b

    def sort_key(self) -> tuple:
        return self.key

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
    """The k-fold suspension: marked endpoints move to p - k, accumulation points stay.

    ``suspend(x, 0)`` is x itself; other shifts are memoised (``_suspended``).
    """
    return x if k == 0 else _suspended(x, k)


@lru_cache(maxsize=MEMO_SIZE)
def _suspended(x: Arc, k: int) -> Arc:
    """The body of ``suspend`` for k != 0."""
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


@lru_cache(maxsize=MEMO_SIZE)
def crosses_under_some_shift(x: Arc, y: Arc) -> bool:
    """Whether suspend(x, s) and suspend(y, t) cross for some shifts s, t.

    Only meaningful for (double) limit arcs, where the crossing pattern is
    determined by segment-level data: strict interleaving of the collapsed
    endpoint pairs, or two limit arcs whose free endpoints share a segment
    while their accumulation endpoints differ.
    """
    if x.kind is not _LIMIT and x.kind is not _DOUBLE_LIMIT:
        raise GeometryError(f"unsupported arc configuration: {x}")
    if y.kind is not _LIMIT and y.kind is not _DOUBLE_LIMIT:
        raise GeometryError(f"unsupported arc configuration: {y}")
    if x.kind is _LIMIT and y.kind is _LIMIT:
        # Free endpoints in one segment: some relative shift interleaves them
        # unless the accumulation endpoints coincide (shared endpoint).
        x_acc, x_free = (x.a, x.b) if x.b.pos is not None else (x.b, x.a)
        y_acc, y_free = (y.a, y.b) if y.b.pos is not None else (y.b, y.a)
        if x_free.seg == y_free.seg and x_acc.seg != y_acc.seg:
            return True
    # The endpoints collapsed to the 2n-cycle: Acc(i) -> 2i, Pt(i, *) -> 2i + 1.
    xa, xb = 2 * x.a.seg + (x.a.pos is not None), 2 * x.b.seg + (x.b.pos is not None)
    ya, yb = 2 * y.a.seg + (y.a.pos is not None), 2 * y.b.seg + (y.b.pos is not None)
    if xa == ya or xa == yb or xb == ya or xb == yb:
        return False
    # Neither of y's endpoints is one of x's: each is strictly inside the
    # anticlockwise run from xa to xb or strictly outside it.
    m = 2 * x.n
    span = (xb - xa) % m
    return ((ya - xa) % m < span) != ((yb - xa) % m < span)


@dataclass(frozen=True)
class ArcSet:
    """A finite set of distinct arcs over one marked circle, kept in canonical order."""

    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GeometryError("need n >= 1")
        for x in self.arcs:
            if x.n != self.n:
                raise GeometryError("arc and arc set disagree on n")
        ordered = tuple(sorted(self.arcs, key=ARC_KEY))
        if len(set(ordered)) != len(ordered):
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
        n = json_int(json_object(obj, "an arc set", {"n", "arcs"})["n"])
        return ArcSet(n, tuple(Arc.from_json(a, n) for a in obj["arcs"]))

    def dumps(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True)``, joined from ``json_fragment``s."""
        return f'{{"arcs": [{", ".join(map(json_fragment, self.arcs))}], "n": {self.n}}}'


@lru_cache(maxsize=MEMO_SIZE)
def json_fragment(atom: object) -> str:
    """``json.dumps(atom.to_json(), sort_keys=True)`` of an interned arc or chord."""
    return json.dumps(atom.to_json(), sort_keys=True)


def arc_set(n: int, arcs: Iterable[Arc]) -> ArcSet:
    return ArcSet(n, tuple(arcs))


def rotate_arc(x: Arc, r: int) -> Arc:
    """Rotate all segment indices by r, the disc's orientation-preserving symmetry."""
    a, b = (BoundaryPoint((p.seg + r) % x.n, p.pos) for p in x.endpoints())
    return Arc(x.n, a, b)


def order_type(arcs: tuple[Arc, ...]) -> tuple[Arc, ...]:
    """The arcs rebuilt on the m-circle of the m segments their endpoints
    touch, relabelled 0..m-1 in order; the arcs themselves when m == n.

    This keeps every value read of a triple of summands.  ``suspend`` moves a
    marked point inside its own segment, so it commutes with the relabelling.
    ``ext1_dim``, ``hom_alignment``, ``alignment_keys`` and ``within_row``
    read the endpoints of the arcs and of their suspensions only through the
    order of their keys (so do ``cross`` and ``cyclic_less``), which are
    accumulation points, which coincide (shared accumulation points, ``w is
    x``) and which share a segment (arc kinds, neighbours), and read n only
    to compare it.  An increasing relabelling of segments keeps all of these
    at every position; a rotation would not keep the key order.
    """
    segs = sorted({k[0] for x in arcs for k in x.key})
    m = len(segs)
    if m == arcs[0].n:
        return arcs
    rank = {seg: i for i, seg in enumerate(segs)}
    typed = []
    for x in arcs:
        # The relabelled endpoint keys, still in key order, find an arc made
        # before; only a new arc builds its points.
        (sa, ta, pa), (sb, tb, pb) = x.key
        y = _ARCS.get((m, (rank[sa], ta, pa), (rank[sb], tb, pb)))
        if y is None:
            y = Arc(m, *(BoundaryPoint(rank[p.seg], p.pos) for p in (x.a, x.b)))
        typed.append(y)
    return tuple(typed)


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

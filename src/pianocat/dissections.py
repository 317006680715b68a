"""The marked disc with 2n alternating boundary points and its chord dissections.

Positions, colours and crossing are as README's data formats set out; how
admissibility reads the chords (``_nesting``, ``_side_counts``) is in README.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import TypeVar

from .geometry import (
    MEMO_SIZE,
    Arc,
    ArcKind,
    ArcSet,
    BoundaryPoint,
    GeometryError,
    is_connected,
    json_fragment,
    json_int,
    json_object,
)


class DissectionError(ValueError):
    pass


T = TypeVar("T")


# Every chord made so far, by its endpoints in increasing order; and those
# endpoints read in C, the sort key of a dissection's chords.
_CHORDS: dict[tuple[int, int], "ChordArc"] = {}
_ENDPOINTS = attrgetter("p", "q")


@dataclass(frozen=True, eq=False, init=False)
class ChordArc:
    """A chord between two boundary positions; red-red or red-green.

    Interned as ``geometry.Arc`` is, so it hashes and compares by identity.
    The endpoints are stored with p < q, and the colour once."""

    p: int
    q: int
    is_red_arc: bool = field(init=False, repr=False)

    def __new__(cls, p: int, q: int) -> "ChordArc":
        key = (p, q) if p < q else (q, p)
        c = _CHORDS.get(key)
        if c is not None:
            return c
        if p == q:
            raise DissectionError("chord endpoints must be distinct")
        if p % 2 == 1 and q % 2 == 1:
            raise DissectionError("green-green chords are not part of any dissection here")
        c = _CHORDS[key] = object.__new__(cls)
        vars(c).update(p=key[0], q=key[1], is_red_arc=p % 2 == 0 and q % 2 == 0)
        return c

    def __reduce__(self) -> tuple:
        # A copy or an unpickled chord is the interned one.
        return (ChordArc, (self.p, self.q))

    @property
    def is_binding(self) -> bool:
        return not self.is_red_arc

    def endpoints(self) -> tuple[int, int]:
        return (self.p, self.q)

    def green_endpoint(self) -> int:
        if not self.is_binding:
            raise DissectionError("red arc has no green endpoint")
        return self.p if self.p % 2 == 1 else self.q

    def to_json(self) -> list[int]:
        return [self.p, self.q]


def chords_cross(c1: ChordArc, c2: ChordArc) -> bool:
    """Strict interleaving of endpoint pairs on the boundary cycle.

    Both chords have their endpoints on the cycle, stored sorted (p < q), so
    they interleave when exactly one endpoint of c2 lies strictly between
    those of c1 and no endpoint is shared.
    """
    a, b, c, d = c1.p, c1.q, c2.p, c2.q
    if a == c or a == d or b == c or b == d:
        return False
    return (a < c < b) != (a < d < b)


# The faces of a non-crossing chord collection, each as its boundary
# positions in increasing order and the unit boundary arcs it owns.
Face = tuple[list[int], list[tuple[int, int]]]


def _nesting(chords: Sequence[ChordArc]) -> list[int] | None:
    """The innermost chord enclosing each chord, or None when two chords cross.

    Read as position intervals [p, q], non-crossing chords are nested or
    disjoint (sharing an endpoint at most).  One sweep in order of p, longer
    chords first, keeps the chain of intervals still open; a chord that ends
    beyond the innermost open interval it starts in crosses it.  Entry i is
    the index of the enclosing chord, or -1 at the top level.
    """
    order = sorted(range(len(chords)), key=lambda i: (chords[i].p, -chords[i].q))
    parent = [-1] * len(chords)
    open_: list[int] = []
    for i in order:
        p, q = chords[i].p, chords[i].q
        while open_ and chords[open_[-1]].q <= p:
            open_.pop()
        if open_:
            if q > chords[open_[-1]].q:
                return None
            parent[i] = open_[-1]
        open_.append(i)
    return parent


def _faces(size: int, chords: Sequence[ChordArc], parent: list[int]) -> list[Face]:
    """The faces of pairwise non-crossing distinct chords with their ``_nesting``.

    Face i < len(chords) is the inner face of chord i: its endpoints and the
    positions between them that no chord it directly encloses passes over.
    The last face is the outer one, which owns the side (size - 1, 0).  Each
    face is walked once, stepping along unit sides and jumping along the
    chords it directly encloses, in order of their first endpoint.
    """
    m = len(chords)
    inside: list[list[int]] = [[] for _ in range(m + 1)]
    for i in sorted(range(m), key=lambda i: chords[i].p):
        inside[parent[i] if parent[i] >= 0 else m].append(i)
    faces: list[Face] = []
    for f in range(m + 1):
        x, end = (chords[f].p, chords[f].q) if f < m else (0, size - 1)
        points, sides = [x], []
        for k in inside[f]:
            a = chords[k].p
            while x < a:
                sides.append((x, x + 1))
                x += 1
                points.append(x)
            x = chords[k].q
            points.append(x)
        while x < end:
            sides.append((x, x + 1))
            x += 1
            points.append(x)
        if f == m:
            sides.append((size - 1, 0))
        faces.append((points, sides))
    return faces


@dataclass(frozen=True)
class DissectionSet:
    """Red arcs plus binding arcs on the marked disc with n green points."""

    n: int
    red: tuple[ChordArc, ...]
    binding: tuple[ChordArc, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DissectionError("need n >= 1")
        red = tuple(sorted(self.red, key=_ENDPOINTS))
        binding = tuple(sorted(self.binding, key=_ENDPOINTS))
        if len(set(red)) != len(red) or len(set(binding)) != len(binding):
            raise DissectionError("duplicate chords")
        for c in red:
            if not c.is_red_arc:
                raise DissectionError(f"{c} is not a red arc")
        for c in binding:
            if c.is_red_arc:
                raise DissectionError(f"{c} is not a binding arc")
        size = 2 * self.n
        for c in red + binding:
            if not (0 <= c.p < size and 0 <= c.q < size):
                raise DissectionError(f"{c} outside the disc with {size} positions")
        object.__setattr__(self, "red", red)
        object.__setattr__(self, "binding", binding)

    def all_chords(self) -> tuple[ChordArc, ...]:
        return self.red + self.binding

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "red": [c.to_json() for c in self.red],
            "binding": [c.to_json() for c in self.binding],
        }

    @staticmethod
    def from_json(obj: object) -> "DissectionSet":
        json_object(obj, "a dissection", {"n", "red", "binding"}, DissectionError)
        return DissectionSet(
            json_int(obj["n"], DissectionError),
            tuple(_chord_from_json(c) for c in obj.get("red", [])),
            tuple(_chord_from_json(c) for c in obj.get("binding", [])),
        )

    def dumps(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True)``, joined from ``json_fragment``s."""
        binding, red = (", ".join(map(json_fragment, cs)) for cs in (self.binding, self.red))
        return f'{{"binding": [{binding}], "n": {self.n}, "red": [{red}]}}'


def _chord_from_json(obj: object) -> ChordArc:
    if not isinstance(obj, list) or len(obj) != 2:
        raise DissectionError(f"a chord is a pair of positions, got {obj!r}")
    return ChordArc(json_int(obj[0], DissectionError), json_int(obj[1], DissectionError))


def admissible_arc_count(
    red_points: int, punctures: int = 0, boundary_components: int = 1, genus: int = 0
) -> int:
    """Number of arcs in any admissible dissection of a general marked surface.

    For the unpunctured disc this is one less than the number of red points;
    other surfaces are supported only through this counting formula.
    """
    return red_points + punctures + boundary_components + 2 * genus - 2


def extended_arc_count(
    marked_points: int,
    punctures: int = 0,
    green_punctures: int = 0,
    boundary_components: int = 1,
    genus: int = 0,
) -> int:
    """Arc count of an extended admissible dissection of a general surface."""
    return marked_points + punctures + green_punctures + boundary_components + 2 * genus - 2


def is_admissible_dissection(d: DissectionSet) -> bool:
    """Red arcs only, pairwise non-crossing, n-1 of them, one green per face."""
    if d.binding:
        raise DissectionError("admissibility applies to the red part alone")
    if len(d.red) != d.n - 1:
        return False
    parent = _nesting(d.red)
    return parent is not None and all(
        sum(p & 1 for p in points) == 1 for points, _ in _faces(2 * d.n, d.red, parent)
    )


def _side_counts(size: int, chords: Sequence[ChordArc], parent: list[int]) -> list[int]:
    """How many unit sides each face of ``_faces`` owns: a chord's span q - p
    less the spans of the chords it directly encloses, which the walk jumps;
    for the outer face, last, the whole cycle less the top-level spans."""
    counts = [c.q - c.p for c in chords] + [size]
    for c, f in zip(chords, parent):  # parent -1 is the outer face
        counts[f] -= c.q - c.p
    return counts


def is_extended_admissible(d: DissectionSet) -> bool:
    """n - 1 red arcs and one binding arc per green point, all pairwise
    non-crossing, with exactly one boundary side on each face they cut out.

    This is an admissible red part plus its binding arcs.  A face of the red
    arcs alone holding g green points also holds their g binding arcs, which
    cut it into g + 1 faces; each unit side has one green endpoint, so the
    red face owns 2g sides.  One side per face thus means g + 1 = 2g, that
    is g = 1 in every red face: red admissibility.  The sides are counted
    from the chord spans (``_side_counts``), not walked.
    """
    if len(d.red) != d.n - 1 or len(d.binding) != d.n:
        return False
    if len({c.green_endpoint() for c in d.binding}) != d.n:
        return False
    chords = d.all_chords()
    parent = _nesting(chords)
    return parent is not None and all(s == 1 for s in _side_counts(2 * d.n, chords, parent))


def check_induces_admissible(d: DissectionSet) -> None:
    """Raise ``DissectionError`` unless ``d`` is extended admissible, the
    check of ``induced_admissible`` and ``quivers.keyboard_from_extended``."""
    if not is_extended_admissible(d):
        raise DissectionError("input is not an extended admissible dissection")


def induced_admissible(d: DissectionSet) -> DissectionSet:
    """Recolour an extended dissection into an admissible one on a larger disc.

    All 2n old points become red, and one new green point is placed on the
    single boundary side of each face cut out by the full dissection; old
    position p becomes 2p and the new green on side (p, p+1) becomes 2p + 1.
    The result is always admissible (tested on every extended dissection up
    to n = 5).  The map p -> 2p keeps the cyclic order of the positions, so
    ``quivers.keyboard_from_extended`` reads the same quiver off the
    extended dissection's own chords and builds no induced one.
    """
    check_induces_admissible(d)
    new_red = tuple(ChordArc(2 * c.p, 2 * c.q) for c in d.all_chords())
    return DissectionSet(2 * d.n, new_red, ())


def extendability_report(
    d: DissectionSet,
) -> tuple[bool, int | None, DissectionSet | None]:
    """Decide whether an admissible dissection is induced by an extended one.

    Checks that the red points come in an even count and that one of the two
    alternating red classes has exactly one incident arc per point; on
    success rebuilds and returns the extended dissection.  Failures return
    (False, failing_condition, None).
    """
    if not is_admissible_dissection(DissectionSet(d.n, d.red, ())):
        raise DissectionError("input is not an admissible dissection")
    n_red = d.n
    if n_red % 2 == 1 or n_red == 0:
        return False, 1, None
    incidence = {k: 0 for k in range(n_red)}
    for c in d.red:
        incidence[c.p // 2] += 1
        incidence[c.q // 2] += 1
    chosen_class = None
    for cls in (0, 1):
        if all(incidence[k] == 1 for k in range(cls, n_red, 2)):
            chosen_class = cls
            break
    if chosen_class is None:
        return False, 2, None
    start = 1 if chosen_class == 0 else 0  # begin relabelling at a kept red point
    red, binding = [], []
    for c in d.red:
        chord = ChordArc((c.p // 2 - start) % n_red, (c.q // 2 - start) % n_red)
        (binding if chord.is_binding else red).append(chord)
    rebuilt = DissectionSet(n_red // 2, tuple(red), tuple(binding))
    if not is_extended_admissible(rebuilt):
        return False, 2, None
    return True, None, rebuilt


@lru_cache(maxsize=MEMO_SIZE)
def chord_of_arc(x: Arc) -> ChordArc:
    """Image of one (double) limit arc on the marked disc.

    Accumulation point i goes to red position 2i and the whole segment i to
    green position 2i + 1, so double limit arcs become red arcs and limit
    arcs become binding arcs; the anticlockwise order is preserved.
    """
    if x.kind == ArcKind.DOUBLE_LIMIT:
        return ChordArc(2 * x.a.seg, 2 * x.b.seg)
    if x.kind == ArcKind.LIMIT:
        a_pt = x.a if x.a.is_accumulation else x.b
        return ChordArc(2 * a_pt.seg, 2 * x.other_endpoint(a_pt).seg + 1)
    raise DissectionError(f"{x} is not a (double) limit arc")


def dissection_from_generator(arcs: list[Arc] | ArcSet, n: int | None = None) -> DissectionSet:
    """Image of a set of (double) limit arcs on the marked disc; see ``chord_of_arc``.
    Refuses (``DissectionError``) an ``n`` other than the summands'."""
    items = list(arcs)
    own = arcs.n if isinstance(arcs, ArcSet) else items[0].n if items else n
    if own is None:
        raise DissectionError("cannot infer n from an empty arc list")
    if n is not None and n != own:
        raise DissectionError(f"n={n} disagrees with the summands' n={own}")
    n = own
    chords = [chord_of_arc(x) for x in items]
    return DissectionSet(
        n,
        tuple(c for c in chords if c.is_red_arc),
        tuple(c for c in chords if not c.is_red_arc),
    )


@lru_cache(maxsize=MEMO_SIZE)
def chord_to_arc(c: ChordArc, n: int) -> Arc:
    """Preimage of a chord, with marked endpoints normalised to position 0."""
    def point(position: int) -> BoundaryPoint:
        if position % 2 == 0:
            return BoundaryPoint(position // 2)
        return BoundaryPoint((position - 1) // 2, 0)

    try:
        return Arc(n, point(c.p), point(c.q))
    except GeometryError as exc:
        raise DissectionError(f"chord {c} has no arc preimage: {exc}") from exc


def generator_from_dissection(d: DissectionSet) -> list[Arc]:
    """Preimage arcs of an extended admissible dissection, red arcs first."""
    return [chord_to_arc(c, d.n) for c in d.all_chords()]


def rotate_dissection(d: DissectionSet, r: int) -> DissectionSet:
    """Rotate every position by 2r, the colour-preserving disc symmetry."""
    size = 2 * d.n

    def rot(c: ChordArc) -> ChordArc:
        return ChordArc((c.p + 2 * r) % size, (c.q + 2 * r) % size)

    return DissectionSet(d.n, tuple(rot(c) for c in d.red), tuple(rot(c) for c in d.binding))


def canonical_dissection_key(d: DissectionSet) -> str:
    return min(rotate_dissection(d, r).dumps() for r in range(d.n))


def rotation_class_representatives(
    items: Sequence[T], images: Iterable[DissectionSet]
) -> list[T]:
    """The first item of each rotation class, the classes read off the items'
    dissection images: the i-th image is that of the i-th item."""
    seen: set[str] = set()
    reps: list[T] = []
    for item, d in zip(items, images):
        key = canonical_dissection_key(d)
        if key not in seen:
            seen.add(key)
            reps.append(item)
    return reps


def enumerate_admissible_dissections(n: int) -> list[DissectionSet]:
    """All admissible red dissections: non-crossing spanning trees on the red points."""
    if n == 1:
        return [DissectionSet(1, (), ())]
    candidates = [
        ChordArc(2 * i, 2 * j) for i in range(n) for j in range(i + 1, n)
    ]
    out: list[DissectionSet] = []

    def extend(start: int, chosen: list[ChordArc]) -> None:
        if len(chosen) == n - 1:
            # n - 1 edges on n red points span iff they are connected.
            if is_connected(n, [(c.p // 2, c.q // 2) for c in chosen]):
                out.append(DissectionSet(n, tuple(chosen), ()))
            return
        for idx in range(start, len(candidates)):
            c = candidates[idx]
            if all(not chords_cross(c, other) for other in chosen):
                extend(idx + 1, chosen + [c])

    extend(0, [])
    return out


def enumerate_extended_dissections(n: int) -> list[DissectionSet]:
    """All extended admissible dissections, by independent face-local choices.

    Each face of an admissible red dissection holds exactly one green point,
    and a binding arc drawn inside that face can reach any red point on the
    face boundary without crossing anything, so the choices multiply freely.
    """
    out: list[DissectionSet] = []
    for base in enumerate_admissible_dissections(n):
        face_options: list[list[ChordArc]] = []
        for face, _ in _faces(2 * n, base.red, _nesting(base.red)):
            g = next(p for p in face if p % 2 == 1)  # the face's one green point
            face_options.append([ChordArc(g, r) for r in face if r % 2 == 0])
        for combo in itertools.product(*face_options):
            out.append(DissectionSet(n, base.red, tuple(combo)))
    return out

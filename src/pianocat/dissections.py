"""The marked disc with 2n alternating boundary points and its chord dissections.

Positions 0..2n-1 run anticlockwise; even positions are the hollow (red)
points, odd positions the filled (green) points.  Chords are straight
position pairs; crossing means strict interleaving, so chords sharing an
endpoint never cross.  Faces of a non-crossing chord collection are computed
by recursive splitting of the boundary cycle.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .geometry import Arc, ArcKind, ArcSet, BoundaryPoint, GeometryError, is_connected


class DissectionError(ValueError):
    pass


T = TypeVar("T")


@dataclass(frozen=True)
class MarkedDisc:
    """The disc with n red and n green boundary points, alternating."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DissectionError("need n >= 1")

    @property
    def size(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class ChordArc:
    """A chord between two boundary positions; red-red or red-green."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p == self.q:
            raise DissectionError("chord endpoints must be distinct")
        if self.p % 2 == 1 and self.q % 2 == 1:
            raise DissectionError("green-green chords are not part of any dissection here")
        if self.p > self.q:
            p, q = self.p, self.q
            object.__setattr__(self, "p", q)
            object.__setattr__(self, "q", p)

    @property
    def is_red_arc(self) -> bool:
        return self.p % 2 == 0 and self.q % 2 == 0

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


def chords_cross(c1: ChordArc, c2: ChordArc, size: int) -> bool:
    """Strict interleaving of endpoint pairs on the boundary cycle."""
    if set(c1.endpoints()) & set(c2.endpoints()):
        return False

    def inside(x: int, s: int, e: int) -> bool:
        return 0 < (x - s) % size < (e - s) % size

    a, b = c1.endpoints()
    return inside(c2.p, a, b) != inside(c2.q, a, b)


def faces_with_sides(
    size: int, chords: list[ChordArc]
) -> list[tuple[tuple[int, ...], frozenset[tuple[int, int]]]]:
    """Faces of the disc cut by pairwise non-crossing chords.

    Each face comes as its cyclically ordered boundary positions together
    with the unit boundary arcs (p, p+1 mod size) it owns; ownership matters
    because a chord between circle-adjacent positions cuts off a bigon whose
    two edges join the same position pair.
    """
    for c1, c2 in itertools.combinations(chords, 2):
        if chords_cross(c1, c2, size):
            raise DissectionError(f"chords {c1} and {c2} cross")

    def split(
        boundary: tuple[int, ...],
        sides: frozenset[tuple[int, int]],
        inner: list[ChordArc],
    ) -> list[tuple[tuple[int, ...], frozenset[tuple[int, int]]]]:
        if not inner:
            return [(boundary, sides)]
        chord, rest = inner[0], inner[1:]
        ia = boundary.index(chord.p)
        ib = boundary.index(chord.q)
        if ia > ib:
            ia, ib = ib, ia
        side1 = boundary[ia : ib + 1]
        side2 = boundary[ib:] + boundary[: ia + 1]
        walk1 = set(boundary[ia:ib])  # start points of unit arcs inside side1
        sides1 = frozenset(s for s in sides if s[0] in walk1)
        sides2 = sides - sides1
        set1, set2 = set(side1), set(side2)
        in1, in2 = [], []
        for c in rest:
            if set(c.endpoints()) <= set1:
                in1.append(c)
            elif set(c.endpoints()) <= set2:
                in2.append(c)
            else:
                raise DissectionError("chord escapes both sides of a split")
        return split(side1, sides1, in1) + split(side2, sides2, in2)

    all_sides = frozenset((p, (p + 1) % size) for p in range(size))
    return split(tuple(range(size)), all_sides, list(chords))


def faces_of_chords(size: int, chords: list[ChordArc]) -> list[tuple[int, ...]]:
    """Boundary positions of each face; see ``faces_with_sides``."""
    return [face for face, _ in faces_with_sides(size, chords)]


@dataclass(frozen=True)
class DissectionSet:
    """Red arcs plus binding arcs on the marked disc with n green points."""

    n: int
    red: tuple[ChordArc, ...]
    binding: tuple[ChordArc, ...]

    def __post_init__(self) -> None:
        red = tuple(sorted(set(self.red), key=ChordArc.endpoints))
        binding = tuple(sorted(set(self.binding), key=ChordArc.endpoints))
        if len(red) != len(self.red) or len(binding) != len(self.binding):
            raise DissectionError("duplicate chords")
        for c in red:
            if not c.is_red_arc:
                raise DissectionError(f"{c} is not a red arc")
        for c in binding:
            if not c.is_binding:
                raise DissectionError(f"{c} is not a binding arc")
        size = 2 * self.n
        for c in red + binding:
            if not (0 <= c.p < size and 0 <= c.q < size):
                raise DissectionError(f"{c} outside the disc with {size} positions")
        object.__setattr__(self, "red", red)
        object.__setattr__(self, "binding", binding)

    @property
    def disc(self) -> MarkedDisc:
        return MarkedDisc(self.n)

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
        if not isinstance(obj, dict):
            raise DissectionError(f"a dissection is a JSON object, got {obj!r}")
        try:
            return DissectionSet(
                int(obj["n"]),
                tuple(_chord_from_json(c) for c in obj.get("red", [])),
                tuple(_chord_from_json(c) for c in obj.get("binding", [])),
            )
        except TypeError as exc:
            raise DissectionError(f"malformed dissection: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _chord_from_json(obj: object) -> ChordArc:
    if not isinstance(obj, list) or len(obj) != 2:
        raise DissectionError(f"a chord is a pair of positions, got {obj!r}")
    return ChordArc(int(obj[0]), int(obj[1]))


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


def _pairwise_noncrossing(chords: tuple[ChordArc, ...], size: int) -> bool:
    return all(
        not chords_cross(c1, c2, size) for c1, c2 in itertools.combinations(chords, 2)
    )


def is_admissible_dissection(d: DissectionSet) -> bool:
    """Red arcs only, pairwise non-crossing, n-1 of them, one green per face."""
    if d.binding:
        raise DissectionError("admissibility applies to the red part alone")
    size = d.disc.size
    if not _pairwise_noncrossing(d.red, size):
        return False
    if len(d.red) != d.n - 1:
        return False
    for face in faces_of_chords(size, list(d.red)):
        if sum(1 for p in face if p % 2 == 1) != 1:
            return False
    return True


def is_extended_admissible(d: DissectionSet) -> bool:
    """Admissible red part plus one binding arc per green point, all non-crossing."""
    size = d.disc.size
    if not is_admissible_dissection(DissectionSet(d.n, d.red, ())):
        return False
    if len(d.binding) != d.n:
        return False
    greens = [c.green_endpoint() for c in d.binding]
    if len(set(greens)) != d.n:
        return False
    return _pairwise_noncrossing(d.all_chords(), size)


def induced_admissible(d: DissectionSet) -> tuple[MarkedDisc, DissectionSet]:
    """Recolour an extended dissection into an admissible one on a larger disc.

    All 2n old points become red, and one new green point is placed on the
    single boundary side of each face cut out by the full dissection; old
    position p becomes 2p and the new green on side (p, p+1) becomes 2p + 1.
    """
    if not is_extended_admissible(d):
        raise DissectionError("input is not an extended admissible dissection")
    size = d.disc.size
    for _, sides in faces_with_sides(size, list(d.all_chords())):
        if len(sides) != 1:
            raise DissectionError("face without a unique boundary side")
    new_red = tuple(ChordArc(2 * c.p, 2 * c.q) for c in d.all_chords())
    return MarkedDisc(2 * d.n), DissectionSet(2 * d.n, new_red, ())


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

    def new_position(k: int) -> int:
        return (k - start) % n_red

    red, binding = [], []
    for c in d.red:
        chord = ChordArc(new_position(c.p // 2), new_position(c.q // 2))
        (binding if chord.is_binding else red).append(chord)
    rebuilt = DissectionSet(n_red // 2, tuple(red), tuple(binding))
    if not is_extended_admissible(rebuilt):
        return False, 2, None
    return True, None, rebuilt


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
    """Image of a set of (double) limit arcs on the marked disc; see ``chord_of_arc``."""
    items = list(arcs)
    if n is None:
        if isinstance(arcs, ArcSet):
            n = arcs.n
        elif items:
            n = items[0].n
        else:
            raise DissectionError("cannot infer n from an empty arc list")
    chords = [chord_of_arc(x) for x in items]
    return DissectionSet(
        n,
        tuple(c for c in chords if c.is_red_arc),
        tuple(c for c in chords if c.is_binding),
    )


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
    size = d.disc.size

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
    size = 2 * n
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
            if all(not chords_cross(c, other, size) for other in chosen):
                extend(idx + 1, chosen + [c])

    extend(0, [])
    return out


def enumerate_extended_dissections(n: int) -> list[DissectionSet]:
    """All extended admissible dissections, by independent face-local choices.

    Each face of an admissible red dissection holds exactly one green point,
    and a binding arc drawn inside that face can reach any red point on the
    face boundary without crossing anything, so the choices multiply freely.
    """
    size = 2 * n
    out: list[DissectionSet] = []
    for base in enumerate_admissible_dissections(n):
        faces = faces_of_chords(size, list(base.red))
        face_options: list[list[ChordArc]] = []
        for face in faces:
            greens = [p for p in face if p % 2 == 1]
            if len(greens) != 1:
                raise DissectionError("admissible dissection with a bad face")
            g = greens[0]
            reds = sorted({p for p in face if p % 2 == 0})
            face_options.append([ChordArc(g, r) for r in reds])
        for combo in itertools.product(*face_options):
            out.append(DissectionSet(n, base.red, tuple(combo)))
    return out

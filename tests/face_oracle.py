"""Reference faces of a chord collection, by recursive splitting of the boundary cycle.

The first chord splits the boundary cycle (0, ..., size - 1) into the part
from its endpoint met first to the other endpoint and the rest; every other
chord goes with the part holding both its endpoints, and each part is split
on in the same way.  ``dissections._faces`` must return exactly these faces
and sides, in any order.  ``extended_admissible`` is a reference for
``dissections.is_extended_admissible`` built on these faces and on
``chords_cross`` alone, and ``one_binding_per_green`` lists the candidates
it is compared on.
"""

from __future__ import annotations

import itertools

from pianocat.dissections import ChordArc, DissectionError, DissectionSet, chords_cross


def recursive_faces(
    size: int, chords: list[ChordArc]
) -> list[tuple[tuple[int, ...], frozenset[tuple[int, int]]]]:
    for c1, c2 in itertools.combinations(chords, 2):
        if chords_cross(c1, c2):
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


def extended_admissible(d: DissectionSet) -> bool:
    """n - 1 red chords, one binding chord per green point, no two chords
    crossing, and one green point in each face of the red chords alone."""
    if len(d.red) != d.n - 1:
        return False
    if sorted(c.green_endpoint() for c in d.binding) != list(range(1, 2 * d.n, 2)):
        return False
    if any(chords_cross(c1, c2) for c1, c2 in itertools.combinations(d.all_chords(), 2)):
        return False
    faces = recursive_faces(2 * d.n, list(d.red))
    return all(sum(p % 2 for p in boundary) == 1 for boundary, _ in faces)


def one_binding_per_green(n: int):
    """Every choice of n - 1 distinct red chords and, for each green point,
    one binding chord to any red point: (n(n - 1)/2 choose n - 1) * n**n."""
    red = [ChordArc(2 * i, 2 * j) for i in range(n) for j in range(i + 1, n)]
    per_green = [[ChordArc(2 * g + 1, 2 * r) for r in range(n)] for g in range(n)]
    for reds in itertools.combinations(red, n - 1):
        for binding in itertools.product(*per_green):
            yield DissectionSet(n, reds, binding)

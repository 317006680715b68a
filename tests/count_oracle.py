"""The number of extended admissible dissections, counted without enumerating them.

An admissible dissection of the disc with n red and n green points is a
non-crossing spanning tree on the red points; each of its n faces holds one
green point, that is one boundary gap between adjacent reds, and an
extended one adds one binding arc per face, from its green point to any of
the face's red points.  So the count is an interval recursion over the red
points 0..n-1 (after Flajolet-Noy, Discrete Math. 204, 1999):

- ``S(i, j)`` counts what lies under the tree chord (i, j): the face next to
  it is bounded by a chain i = v0 < ... < vk = j with exactly one gap step
  (v, v + 1), the other steps being tree chords, each with its own count;
  the face has k + 1 red points, so k + 1 binding choices.  ``S(i, i + 1)``
  is 2.
- The root face holds the green point between reds n - 1 and 0, so its
  chain runs from 0 to n - 1 by tree chords alone.

With every face weighted 1 instead, the count is that of the non-crossing
spanning trees, 1, 1, 3, 12, 55, 273 (OEIS A001764), the negative control.
"""

from __future__ import annotations

from functools import cache


def extended_dissection_count(n: int, weighted: bool = True) -> int:
    @cache
    def chains(v: int, j: int, gaps: int) -> tuple[int, int]:
        """Over the chains from v to j with ``gaps`` gap steps: the sum of the
        products of the chord counts, and that sum weighted by the number of
        points of each chain."""
        if v == j:
            return (1, 1) if gaps == 0 else (0, 0)
        plain = points = 0
        for w in range(v + 1, j + 1):
            steps = []
            if w == v + 1 and gaps:
                steps.append((1, gaps - 1))
            if gaps == 0 or w < j:  # else no gap is left for after the chord
                steps.append((under(v, w), gaps))
            for factor, left in steps:
                a, b = chains(w, j, left)
                plain += factor * a
                points += factor * (a + b)
        return plain, points

    @cache
    def under(i: int, j: int) -> int:
        return chains(i, j, 1)[weighted]

    return chains(0, n - 1, 0)[weighted]

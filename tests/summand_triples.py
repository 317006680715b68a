"""Summand triples with their block degrees, and a key that forgets too much.

``summand_triples`` lists the arguments of every matrix block the
path-algebra check could ask for at one n: each ordered triple of the
summands of the generators of n, with the degrees of the entries from the
first to the second and from the second to the third.  ``own_segments`` is
the negative control of ``geometry.order_type``.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from pianocat import endo
from pianocat.generators import enumerate_limit_generators
from pianocat.geometry import ARC_KEY, Arc, BoundaryPoint


def summand_triples(
    n: int, window: int = 6
) -> Iterator[tuple[tuple[Arc, Arc, Arc], tuple[int, ...], tuple[int, ...]]]:
    """Every ordered triple of summands of n, with the degrees in
    [-window, window] of its two entries (``endo.classify_entry``)."""
    summands = sorted({x for g in enumerate_limit_generators(n) for x in g}, key=ARC_KEY)
    degrees = {
        (x, y): tuple(m for m in range(-window, window + 1) if endo.classify_entry(x, y).dim(m))
        for x, y in itertools.product(summands, repeat=2)
    }
    for x, y, v in itertools.product(summands, repeat=3):
        yield (x, y, v), degrees[(x, y)], degrees[(y, v)]


def own_segments(arcs: tuple[Arc, ...]) -> tuple[Arc, ...]:
    """The arcs rebuilt with each of their endpoints, in key order, on a
    segment of its own: a monotone relabelling that forgets which endpoints
    share a segment, and so which arcs share a point."""
    ends = sorted((p.key(), k) for k, x in enumerate(arcs) for p in x.endpoints())
    seg = {end: i for i, end in enumerate(ends)}
    return tuple(
        Arc(len(ends), *(BoundaryPoint(seg[(p.key(), k)], p.pos) for p in x.endpoints()))
        for k, x in enumerate(arcs)
    )

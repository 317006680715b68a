"""Graded endomorphism algebra of a generator as a generalised matrix algebra.

Entries are one of four graded rings determined by arc geometry: polynomial
(one dimension in each non-positive degree), Laurent (one dimension
everywhere), the long-arc ring (one dimension everywhere except degree one),
or zero.  Products of distinguished basis elements have coefficients in
{0, 1}, computed from the factorisation calculus on arcs.  An
``EndoAlgebra`` is a plain frozen value: its order, summands and entries.

The entries and the matrix side of a product are memoised for the whole
process (``MEMO_SIZE``), the blocks in two levels: by arcs, then by order
type.  What each memo holds, and how ``verify_path_algebra_iso`` compares
this algebra with the piano's path algebra a row at a time, is in README.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from itertools import compress, repeat
from operator import and_, not_
from typing import Iterable, NamedTuple

from .dissections import chord_of_arc, dissection_from_generator
from .geometry import MEMO_SIZE, Arc, ArcKind, order_type, suspend, within_row
from .homs import alignment_keys, ext1_dim, hom_alignment, hom_dim
from .quivers import (
    PianoQuiver,
    QuiverError,
    class_ends,
    graded_row,
    normal_form,  # not called here: the benchmark's tracer test reads endo.normal_form
    piano_from_extended,
    product_row,
)


class EndoError(ValueError):
    pass


class RingKind(Enum):
    POLY = "k[x]"
    LAURENT = "k[x^pm1]"
    LONG = "long_arc_ring"
    ZERO = "0"


@dataclass(frozen=True)
class GradedEntry:
    """One graded entry: its ring kind and the induced degreewise dimensions."""

    kind: RingKind

    def dim(self, degree: int) -> int:
        if self.kind == RingKind.ZERO:
            return 0
        if self.kind == RingKind.LAURENT:
            return 1
        if self.kind == RingKind.POLY:
            return 1 if degree <= 0 else 0
        return 0 if degree == 1 else 1


# One shared entry per ring kind; entries compare by value.
_POLY, _LAURENT, _LONG, _ZERO = (
    GradedEntry(kind) for kind in (RingKind.POLY, RingKind.LAURENT, RingKind.LONG, RingKind.ZERO)
)


def classify_entry(arcs: list[Arc], i: int, j: int) -> GradedEntry:
    """Entry (i, j) of the generalised matrix algebra of the given summands.

    Assumes the suspension orbits of distinct summands are disjoint, which
    ``EndoAlgebra.from_arcs`` checks once for all of them.  Diagonal entries
    are fixed by arc kind; an off-diagonal one is Laurent when there is a
    degree-one extension (``homs.ext1_dim``), that is in the
    anticlockwise-rotation or crossing direction, and zero otherwise.
    """
    x = arcs[i]
    if i == j:
        if x.kind == ArcKind.LIMIT:
            return _POLY
        if x.kind == ArcKind.DOUBLE_LIMIT:
            return _LAURENT
        if x.kind == ArcKind.LONG:
            return _LONG
        raise EndoError("short arcs are never summands of a minimal generator")
    return _LAURENT if ext1_dim(x, arcs[j]) else _ZERO


class ProductTarget(NamedTuple):
    """Where a nonzero Hom from a summand x to a suspended summand y lands:
    the endpoint alignment of x with y suspended by the degree
    (``homs.hom_alignment``), None when that suspension is x itself."""

    aligned: tuple | None


def product_record(x: Arc, y: Arc, degree: int) -> ProductTarget | None:
    """The record of products from summand x to summand y in the given degree:
    None when ``hom_dim`` is zero there, else the memoised ``_landing``.
    ``hom_dim`` is asked outside the memo, for the tracer (README)."""
    if hom_dim(x, y, degree) == 0:
        return None
    return _landing(x, y, degree)


@lru_cache(maxsize=MEMO_SIZE)
def _landing(x: Arc, y: Arc, degree: int) -> ProductTarget | None:
    if hom_dim(x, y, degree) == 0:
        return None
    z = suspend(y, degree)
    return ProductTarget(None if z is x else hom_alignment(x, z))


@lru_cache(maxsize=MEMO_SIZE)
def _entry(x: Arc, y: Arc) -> GradedEntry:
    """The entry from summand x to summand y, the diagonal one when they are
    equal: ``classify_entry``'s rule, keyed by the arc pair.  Only for
    summands without repeats, which ``EndoAlgebra.from_arcs`` checks."""
    return classify_entry([x, y], 0, 0 if x == y else 1)


@lru_cache(maxsize=MEMO_SIZE)
def _marked_segments(x: Arc) -> frozenset[int]:
    """Segments swept by the suspension orbit of x: those of its marked endpoints."""
    return frozenset(p.seg for p in x.endpoints() if p.is_marked)


@dataclass(frozen=True)
class EndoAlgebra:
    """The generalised matrix algebra of an ordered tuple of summand arcs."""

    n: int
    arcs: tuple[Arc, ...]
    entries: tuple[tuple[GradedEntry, ...], ...]

    @staticmethod
    def from_arcs(arcs: list[Arc], n: int | None = None) -> "EndoAlgebra":
        """The algebra of the summands in this order; a sign graph is built over it.

        Refuses (``EndoError``) overlapping suspension orbits, then reads
        each cell from the ``_entry`` memo, which refuses a short summand.
        """
        items = list(arcs)
        if n is None:
            if not items:
                raise EndoError("need at least one summand")
            n = items[0].n
        # Disjoint suspension orbits: no summand is repeated, and no two
        # sweep the same segment (a segment counts once per summand).
        swept = [seg for x in items for seg in _marked_segments(x)]
        if len(set(swept)) != len(swept) or len(set(items)) != len(items):
            raise EndoError("orbits overlap")
        entries = tuple(tuple(map(_entry, repeat(x), items)) for x in items)
        return EndoAlgebra(n, tuple(items), entries)

    @property
    def size(self) -> int:
        return len(self.arcs)

    def entry(self, i: int, j: int) -> GradedEntry:
        return self.entries[i][j]

    def dim(self, i: int, j: int, degree: int) -> int:
        return self.entries[i][j].dim(degree)


def chi_multiply(a: EndoAlgebra, f: tuple[int, int, int], g: tuple[int, int, int]) -> int:
    """Coefficient (0 or 1) of the product of two distinguished basis elements.

    ``f = (i, j, p)`` is the basis element of degree p in entry (i, j) and
    ``g = (j, l, q)`` likewise; the product lands in entry (i, l) in degree
    p + q.  Nonzero exactly when the corresponding composite of arc
    morphisms is nonzero, which is decided by the factorisation calculus:
    the composite x -> w -> z factors the morphism x -> z through w.  This
    entry point checks that the operands compose and are nonzero, then
    applies the product rule; ``homs.factors_through`` decides the same
    question from scratch and is the test oracle.

    The rule: zero when the record (``product_record``) is; else nonzero
    when the middle arc w (summand j shifted by p) is x, the only survivor
    of a round trip, which splits off the middle object; else when w lies
    within the record's alignment (``geometry.within_row`` on a one-cell
    row), which every record that is no round trip has (tested on every
    summand pair up to n = 5) and which holds w == z at its ends.
    """
    i, j1, p = f
    j2, l, q = g
    if j1 != j2:
        raise EndoError("entries do not compose")
    if a.dim(i, j1, p) == 0 or a.dim(j1, l, q) == 0:
        raise EndoError("zero operand")
    x, y, v = a.arcs[i], a.arcs[j1], a.arcs[l]
    w = suspend(y, p)
    target = product_record(x, v, p + q)
    if target is None:
        return 0
    return 1 if w is x else within_row(w.sort_key(), (alignment_keys(target.aligned),))[0]


# Rows and blocks take very few distinct values (eight among the 2,855 rows
# and 239 blocks of one path-iso-n4 benchmark sample), so each value is kept
# as one object.
_shared = lru_cache(maxsize=MEMO_SIZE)(lambda value: value)


@lru_cache(maxsize=MEMO_SIZE)
def _matrix_block(
    x: Arc, y: Arc, v: Arc, left_degrees: tuple[int, ...], right_degrees: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The products (``chi_multiply``'s rule) of the classes from summand x
    to summand y in the degrees of ``left_degrees`` with the classes from y
    to summand v in the degrees of ``right_degrees``, one row per left class.
    On a miss, ``_typed_block`` decides it on the triple's order type, which
    keeps every value (``geometry.order_type``)."""
    return _typed_block(*order_type((x, y, v)), left_degrees, right_degrees)


@lru_cache(maxsize=MEMO_SIZE)
def _typed_block(
    x: Arc, y: Arc, v: Arc, left_degrees: tuple[int, ...], right_degrees: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """``_matrix_block``'s body: one ``_landing`` per total and one ``within_row`` per row."""
    if not (left_degrees and right_degrees):
        return _shared(((),) * len(left_degrees))
    low = min(left_degrees) + min(right_degrees)
    landings = [_landing(x, v, t) for t in range(low, max(left_degrees) + max(right_degrees) + 1)]
    aligned = [target and alignment_keys(target.aligned) for target in landings]
    offsets = [m2 - low for m2 in right_degrees]
    rows = []
    for m in left_degrees:
        w = suspend(y, m)
        if w is x:
            row = tuple(0 if landings[m + k] is None else 1 for k in offsets)
        else:
            row = within_row(w.sort_key(), [aligned[m + k] for k in offsets])
        rows.append(_shared(row))
    return _shared(tuple(rows))


@dataclass(frozen=True)
class IsoMismatch:
    kind: str
    location: tuple
    expected: object
    found: object


@dataclass(frozen=True)
class IsoReport:
    mismatches: tuple[IsoMismatch, ...]
    # Composable pairs of basis elements whose products were compared.
    products: int = 0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "mismatches": [
                {
                    "kind": m.kind,
                    "location": [repr(x) for x in m.location],
                    "expected": repr(m.expected),
                    "found": repr(m.found),
                }
                for m in self.mismatches
            ],
        }


def piano_of_generator(arcs: list[Arc], n: int | None = None) -> PianoQuiver:
    """Piano quiver of a limit generator, vertices in summand order."""
    d = dissection_from_generator(arcs, n)
    return piano_from_extended(d, vertex_order=[chord_of_arc(x) for x in arcs])


def is_piano_of(piano: PianoQuiver, arcs: Iterable[Arc]) -> bool:
    """Whether the piano's vertices are the chords of these summands in this order."""
    return piano.keyboard.gentle.labels == tuple(chord_of_arc(x) for x in arcs)


def _lands_in(
    block: tuple[tuple[bool, ...], ...],
    left_degrees: tuple[int, ...],
    right_degrees: tuple[int, ...],
    totals: set[int],
) -> bool:
    """Whether some nonzero cell of the block has its total degree in ``totals``."""
    return any(
        hit and m + m2 in totals
        for m, row in zip(left_degrees, block)
        for hit, m2 in zip(row, right_degrees)
    )


def verify_path_algebra_iso(
    arcs: list[Arc],
    n: int | None = None,
    window: int = 6,
    piano: PianoQuiver | None = None,
    max_mismatches: int = 20,
    algebra: EndoAlgebra | None = None,
) -> IsoReport:
    """Compare the matrix algebra of a limit generator with its path algebra.

    Checks degreewise dimensions on [-window, window] for every vertex pair,
    that the canonical word of every class both sides have is a word of the
    piano, and that products of canonical path words are nonzero exactly
    when the corresponding matrix products are, over all composable pairs
    of such classes, a row at a time (README).  ``piano`` and ``algebra``,
    when given, are those of ``arcs`` in this order, so that other checks
    can share them; either of another generator or order is refused
    (``EndoError``).  Refuses (``EndoError``) a negative window and a cap
    below one: neither can check anything.
    """
    if window < 0:
        raise EndoError(f"window must be at least 0, got {window}")
    if max_mismatches < 1:
        raise EndoError(f"max_mismatches must be at least 1, got {max_mismatches}")
    items = list(arcs)
    if n is None:
        n = items[0].n
    if algebra is None:
        algebra = EndoAlgebra.from_arcs(items, n)
    elif algebra.arcs != tuple(items):
        raise EndoError("the algebra is not the one of these summands in this order")
    if piano is None:
        piano = piano_of_generator(items, n)
    elif not is_piano_of(piano, items):
        raise EndoError("the piano's vertices are not these summands in this order")
    p, size = piano, len(items)
    mismatches: list[IsoMismatch] = []

    # The degrees of the nonzero classes of each pair, on both sides, read
    # off one dimension row per side (one per ring kind on the algebra's);
    # only a pair whose rows differ is walked.
    window_degrees = range(-window, window + 1)
    kind_rows: dict[GradedEntry, tuple[int, ...]] = {}
    both_sides: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in range(size):
        for b in range(size):
            entry = algebra.entries[a][b]
            lhs = kind_rows.get(entry)
            if lhs is None:
                lhs = kind_rows[entry] = tuple(entry.dim(m) for m in window_degrees)
            rhs = graded_row(p, a, b, window_degrees)
            if lhs != rhs:
                for m, left, right in zip(window_degrees, lhs, rhs):
                    if left != right:
                        mismatches.append(IsoMismatch("dimension", (a, b, m), left, right))
                        if len(mismatches) >= max_mismatches:
                            return IsoReport(tuple(mismatches))
            both_sides[(a, b)] = tuple(compress(window_degrees, map(and_, lhs, rhs)))

    # Each pair's class degrees, and the ends of their normal forms on the
    # left (zero or not, last arrow: the junction) and on the right (zero or
    # not, first arrow).  A canonical word that is no word of the piano (a
    # loop at a vertex the piano has no such loop at) is a witness, and its
    # class takes part in no product.
    degrees, junctions, starts = {}, {}, {}
    for (a, b), ms in both_sides.items():
        kept = []
        for m, ends in zip(ms, class_ends(p, a, b, ms) if ms else ()):
            if not isinstance(ends, QuiverError):
                kept.append((m, ends))
                continue
            mismatches.append(IsoMismatch("word", (a, b, m), "a word of the piano", str(ends)))
            if len(mismatches) >= max_mismatches:
                return IsoReport(tuple(mismatches))
        degrees[(a, b)] = tuple(m for m, _ in kept)
        junctions[(a, b)] = tuple((zero, last) for _, (zero, _, last, _) in kept)
        starts[(a, b)] = tuple((zero, first) for _, (zero, first, _, _) in kept)
    # A path row depends on the left class only through its junction, so
    # each row is built once per (junction, b, c) and read for every source.
    into = [set() for _ in range(size)]
    for (_, b), keys in junctions.items():
        into[b].update(keys)
    path_rows = {
        pair: {key: product_row(p, key, rights) for key in into[pair[0]]}
        for pair, rights in starts.items()
    }

    # Few pairs have distinct degree tuples, so each set of totals is formed once.
    sumset = cache(lambda ms, ms2: frozenset(m + m2 for m in ms for m2 in ms2))
    totals = range(-2 * window, 2 * window + 1)
    products = 0
    for a in range(size):
        # For each c, the totals where the piano has no class from a to c.
        off_piano = [
            set(compress(totals, map(not_, graded_row(p, a, c, totals)))) for c in range(size)
        ]
        x = items[a]
        for b in range(size):
            left_degrees = degrees[(a, b)]
            if not left_degrees:
                continue
            y = items[b]
            for c in range(size):
                right_degrees = degrees[(b, c)]
                if not right_degrees:
                    continue
                v = items[c]
                # The totals of this block where the piano has no class.
                off_c = off_piano[c] and off_piano[c] & sumset(left_degrees, right_degrees)
                rows = path_rows[(b, c)]
                path_block = tuple([rows[key] for key in junctions[(a, b)]])
                chi_block = _matrix_block(x, y, v, left_degrees, right_degrees)
                if path_block == chi_block and not (
                    off_c and _lands_in(path_block, left_degrees, right_degrees, off_c)
                ):
                    products += len(left_degrees) * len(right_degrees)
                    continue
                # Walk a block that disagrees, or has a nonzero path off the
                # piano, cell by cell, so that the witnesses, their order and
                # the count at a cap are those of a per-cell loop.
                for m, path_row, chi_row in zip(left_degrees, path_block, chi_block):
                    for m2, path_nonzero, chi in zip(right_degrees, path_row, chi_row):
                        products += 1
                        if path_nonzero and m + m2 in off_c:
                            mismatches.append(
                                IsoMismatch("rewriting", (a, b, c, m, m2), 0, 1)
                            )
                            if len(mismatches) >= max_mismatches:
                                return IsoReport(tuple(mismatches), products)
                        if path_nonzero != chi:
                            mismatches.append(
                                IsoMismatch(
                                    "multiplication",
                                    (a, b, c, m, m2),
                                    chi,
                                    int(path_nonzero),
                                )
                            )
                            if len(mismatches) >= max_mismatches:
                                return IsoReport(tuple(mismatches), products)
    return IsoReport(tuple(mismatches), products)

"""Graded endomorphism algebra of a generator as a generalised matrix algebra.

Entries are one of four graded rings determined by arc geometry: polynomial
(one dimension in each non-positive degree), Laurent (one dimension
everywhere), the long-arc ring (one dimension everywhere except degree one),
or zero.  Products of distinguished basis elements have coefficients in
{0, 1}, computed from the factorisation calculus on arcs.  An
``EndoAlgebra`` is a plain frozen value: its order, summands and entries.

The entries and the matrix side of a product are pure functions of arcs, so
they are memoised for the whole process and shared by every generator of a
sweep, in LRU caches of ``MEMO_SIZE`` entries (the bound of the ``homs``
memos):

- ``_entry(x, y)``: the entry from summand x to summand y, by
  ``classify_entry``'s rule; ``_marked_segments(x)``: the segments the
  suspension orbit of x sweeps.  ``EndoAlgebra.from_arcs`` reads both.
- ``_landing(x, y, degree)``: None when the Hom space from x to y in that
  degree is zero, otherwise where it lands (``ProductTarget``: the suspended
  target, whether it is x, and the endpoint alignment).  ``product_record``,
  which ``chi_multiply`` reads, asks ``hom_dim`` outside the memo first.
- ``_matrix_block(x, y, v, left_degrees, right_degrees)``: the products of
  every class from x to y of the left degrees with every class from y to v
  of the right degrees, one row per left class (``_matrix_row``, the row
  body, unmemoised).  Equal rows, and equal blocks, are one object
  (``_shared``), since they take few values.

Arcs are frozen and compare by value, so equal keys give equal answers on
any generator; the generators of one enumeration hold the same summand
objects, so their keys match by identity.  The flags the product rule
needs are read off the arcs: ``EndoAlgebra.from_arcs`` refuses
overlapping suspension orbits and repeated summands, so a suspension of y
is x only when y is x, and the middle and target summands are one exactly
when y == v.

``verify_path_algebra_iso`` compares this algebra with the piano's path
algebra a block at a time: every class from a to b times every class from
b to c.  Left classes in one junction group (zero or not, last arrow)
share one row of ``quivers.product_is_zero`` answers; the matrix block is
the memoised ``_matrix_block``.  Only a block whose two sides disagree, or
that puts a nonzero path off the piano, is walked cell by cell for
witnesses, so the witnesses and their order are those of a per-cell loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from typing import NamedTuple

from .dissections import chord_of_arc, dissection_from_generator
from .geometry import MEMO_SIZE, Arc, ArcKind, suspend
from .homs import ext1_dim, hom_alignment, hom_dim, within_alignment
from .quivers import (
    PathNormalForm,
    PianoQuiver,
    QuiverError,
    canonical_word,
    graded_dim,
    normal_form,
    piano_from_extended,
    product_is_zero,
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
    """Where a nonzero Hom from a summand x to a suspended summand y lands.

    ``z`` is y suspended by the degree.  ``aligned`` is the endpoint
    alignment of x with ``z`` (``homs.hom_alignment``); it is None, and
    never read, when ``z_is_source``.
    """

    z: Arc
    z_is_source: bool
    aligned: tuple | None


def product_record(x: Arc, y: Arc, degree: int) -> ProductTarget | None:
    """The record of products from summand x to summand y in the given degree.

    None when ``hom_dim`` is zero there; otherwise the memoised ``_landing``.
    ``hom_dim`` is asked here, outside the memo, so that every
    ``chi_multiply`` asks it, as ``perfbench``'s span test expects; the
    matrix rows read ``_landing`` alone.
    """
    if hom_dim(x, y, degree) == 0:
        return None
    return _landing(x, y, degree)


@lru_cache(maxsize=MEMO_SIZE)
def _landing(x: Arc, y: Arc, degree: int) -> ProductTarget | None:
    if hom_dim(x, y, degree) == 0:
        return None
    z = suspend(y, degree)
    if z == x:
        return ProductTarget(z, True, None)
    return ProductTarget(z, False, hom_alignment(x, z))


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
        entries = tuple(tuple(_entry(x, y) for y in items) for x in items)
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
    applies the product rule (``_chi_product``); ``homs.factors_through``
    decides the same question from scratch and is the test oracle.
    """
    i, j1, p = f
    j2, l, q = g
    if j1 != j2:
        raise EndoError("entries do not compose")
    if a.dim(i, j1, p) == 0 or a.dim(j1, l, q) == 0:
        raise EndoError("zero operand")
    x, y, v = a.arcs[i], a.arcs[j1], a.arcs[l]
    w = suspend(y, p)
    return _chi_product(product_record(x, v, p + q), w, w == x, y == v)


def _chi_product(
    target: ProductTarget | None, w: Arc, w_is_source: bool, w_in_target_orbit: bool
) -> int:
    """The product rule of ``chi_multiply``, without its operand checks.

    Decides the composite x -> w -> z, where x is summand i, w the middle
    summand shifted by the first factor's degree, and z summand l shifted
    by the total degree; ``target`` is the record (``product_record``) for
    (i, l, degree).  ``w_is_source`` says whether w is x, and
    ``w_in_target_orbit`` whether the middle summand is summand l, the
    only case in which w can be z, so only then are w and z compared.
    """
    if target is None:
        return 0
    z, z_is_source, aligned = target
    if z_is_source:
        # A round trip in total degree zero splits off the middle object,
        # so it vanishes unless the middle is the object itself.
        return 1 if w_is_source else 0
    if w_is_source or (w_in_target_orbit and w == z):
        return 1
    return 1 if aligned is not None and within_alignment(w, aligned) else 0


# Rows and blocks take very few distinct values (eight among the 2,855 rows
# and 239 blocks of one path-iso-n4 benchmark sample), so each value is kept
# as one object.
_shared = lru_cache(maxsize=MEMO_SIZE)(lambda value: value)


def _matrix_row(x: Arc, y: Arc, v: Arc, m: int, right_degrees: tuple[int, ...]) -> tuple[int, ...]:
    """The products of the class of degree m from summand x to summand y with
    the class from y to summand v in each degree of ``right_degrees``."""
    w = suspend(y, m)
    w_is_source, w_in_target_orbit = w == x, y == v
    return tuple(
        _chi_product(_landing(x, v, m + m2), w, w_is_source, w_in_target_orbit)
        for m2 in right_degrees
    )


@lru_cache(maxsize=MEMO_SIZE)
def _matrix_block(
    x: Arc, y: Arc, v: Arc, left_degrees: tuple[int, ...], right_degrees: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The matrix rows (``_matrix_row``) of the classes from summand x to
    summand y in the degrees of ``left_degrees``, against the classes from y
    to summand v in the degrees of ``right_degrees``."""
    return _shared(tuple(_shared(_matrix_row(x, y, v, m, right_degrees)) for m in left_degrees))


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
    of such classes.  ``piano`` and ``algebra``, when given, are those of
    ``arcs`` in this order, so that other checks can share them.

    Both factors of every pair are nonzero classes, so a path product is
    decided at the junction by ``quivers.product_is_zero`` on the two class
    forms, without building its normal form, and a matrix product by the
    product rule without the operand checks of ``chi_multiply``, a block at
    a time (see the module docstring).  Refuses (``EndoError``) a negative
    window and a cap below one: neither can check anything.
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
    p = piano if piano is not None else piano_of_generator(items, n)
    size = len(items)
    mismatches: list[IsoMismatch] = []

    # The degrees of the nonzero classes of each pair, on both sides.
    both_sides: dict[tuple[int, int], list[int]] = {}
    for a in range(size):
        for b in range(size):
            both = both_sides[(a, b)] = []
            entry = algebra.entries[a][b]
            for m in range(-window, window + 1):
                lhs = entry.dim(m)
                rhs = graded_dim(p, a, b, m)
                if lhs != rhs:
                    mismatches.append(
                        IsoMismatch("dimension", (a, b, m), lhs, rhs)
                    )
                    if len(mismatches) >= max_mismatches:
                        return IsoReport(tuple(mismatches))
                elif lhs:
                    both.append(m)

    # Each of those classes with the normal form of its canonical word.  A
    # canonical word that is no word of the piano (a loop at a vertex the
    # piano has no such loop at) is a witness, and its class takes part in
    # no product.
    classes: dict[tuple[int, int], list[tuple[int, PathNormalForm]]] = {}
    for (a, b), ms in both_sides.items():
        kept = classes[(a, b)] = []
        for m in ms:
            try:
                kept.append((m, normal_form(p, canonical_word(p, a, b, m), base=a)))
            except QuiverError as err:
                mismatches.append(
                    IsoMismatch("word", (a, b, m), "a word of the piano", str(err))
                )
                if len(mismatches) >= max_mismatches:
                    return IsoReport(tuple(mismatches))
    degrees = {pair: tuple(m for m, _ in kept) for pair, kept in classes.items()}
    # Left classes meet a right class at their junction (zero or not, last
    # arrow): one left form per junction, and each class's junction in order.
    junction_forms: dict[tuple[int, int], dict[tuple[bool, int | None], PathNormalForm]] = {}
    junctions: dict[tuple[int, int], tuple[tuple[bool, int | None], ...]] = {}
    for pair, kept in classes.items():
        keys = junctions[pair] = tuple((form.is_zero, form.last_arrow) for _, form in kept)
        junction_forms[pair] = {key: form for key, (_, form) in zip(keys, kept)}

    # Few pairs have distinct degree tuples, so each set of totals is formed once.
    sumset = cache(lambda ms, ms2: frozenset(m + m2 for m in ms for m2 in ms2))
    products = 0
    for a in range(size):
        # For each c, the totals of the products from a to c that the piano
        # has no nonzero class in.
        reach: list[set[int]] = [set() for _ in range(size)]
        for b in range(size):
            if degrees[(a, b)]:
                for c in range(size):
                    reach[c] |= sumset(degrees[(a, b)], degrees[(b, c)])
        off_piano = [{t for t in ts if not graded_dim(p, a, c, t)} for c, ts in enumerate(reach)]
        x = items[a]
        for b in range(size):
            left_degrees = degrees[(a, b)]
            if not left_degrees:
                continue
            y = items[b]
            for c in range(size):
                rights, right_degrees = classes[(b, c)], degrees[(b, c)]
                if not rights:
                    continue
                v = items[c]
                # The totals of this block where the piano has no class.
                off_c = off_piano[c].intersection(sumset(left_degrees, right_degrees))
                path_rows = {
                    key: tuple(not product_is_zero(p, left, right) for _, right in rights)
                    for key, left in junction_forms[(a, b)].items()
                }
                path_block = tuple(path_rows[key] for key in junctions[(a, b)])
                chi_block = _matrix_block(x, y, v, left_degrees, right_degrees)
                if path_block == chi_block and not (
                    off_c and _lands_in(path_block, left_degrees, right_degrees, off_c)
                ):
                    products += len(left_degrees) * len(rights)
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

"""Graded endomorphism algebra of a generator as a generalised matrix algebra.

Entries are one of four graded rings determined by arc geometry: polynomial
(one dimension in each non-positive degree), Laurent (one dimension
everywhere), the long-arc ring (one dimension everywhere except degree one),
or zero.  Products of distinguished basis elements have coefficients in
{0, 1}, computed from the factorisation calculus on arcs.  An
``EndoAlgebra`` caches its suspended summands and, for each (source,
target, degree), one ``ProductTarget`` record: None when the Hom space is
zero, otherwise the suspended target, whether it is the source summand and
the endpoint alignment.  A product then only tests where its middle arc
sits, and the point keys of ``geometry`` are computed once per point.

``verify_path_algebra_iso`` compares this algebra with the piano's path
algebra a row at a time: one class from a to b times every class from b to
c.  Left classes in one junction group (zero or not, last arrow) share one
row of ``quivers.product_is_zero`` answers; the matrix row applies the
product rule (``_chi_product``) cell by cell.  Only a row whose two sides
disagree, or that puts a nonzero path off the piano, is walked cell by cell
for witnesses, so the witnesses and their order are those of a per-cell loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache
from typing import NamedTuple

from .dissections import chord_of_arc, dissection_from_generator
from .geometry import Arc, ArcKind, suspend
from .homs import ext1_dim, hom_alignment, hom_dim, within_alignment
from .quivers import (
    PathNormalForm,
    PianoQuiver,
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
    """Where a nonzero Hom from summand i to a suspended summand l lands.

    ``z`` is summand l suspended by the degree.  ``aligned`` is the endpoint
    alignment of summand i with ``z`` (``homs.hom_alignment``); it is None,
    and never read, when ``z_is_source``.
    """

    z: Arc
    z_is_source: bool
    aligned: tuple | None


def _marked_segments(x: Arc) -> set[int]:
    """Segments swept by the suspension orbit of x: those of its marked endpoints."""
    return {p.seg for p in x.endpoints() if p.is_marked}


@dataclass(frozen=True)
class EndoAlgebra:
    """The generalised matrix algebra of an ordered tuple of summand arcs."""

    n: int
    arcs: tuple[Arc, ...]
    entries: tuple[tuple[GradedEntry, ...], ...]
    # Filled lazily by ``suspended`` and ``product_target``, so each
    # suspended summand is built and validated once per algebra, and each
    # target record found once.
    _suspensions: dict[tuple[int, int], Arc] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _targets: dict[tuple[int, int, int], ProductTarget | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def from_arcs(arcs: list[Arc], n: int | None = None) -> "EndoAlgebra":
        """The algebra of the summands in this order; a sign graph is built over it.

        Refuses (``EndoError``) a short summand and overlapping suspension orbits.
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
        size = len(items)
        entries = tuple(
            tuple(classify_entry(items, i, j) for j in range(size)) for i in range(size)
        )
        return EndoAlgebra(n, tuple(items), entries)

    @property
    def size(self) -> int:
        return len(self.arcs)

    def entry(self, i: int, j: int) -> GradedEntry:
        return self.entries[i][j]

    def dim(self, i: int, j: int, degree: int) -> int:
        return self.entries[i][j].dim(degree)

    def suspended(self, k: int, shift: int) -> Arc:
        """The ``shift``-fold suspension of summand k."""
        key = (k, shift)
        x = self._suspensions.get(key)
        if x is None:
            x = self._suspensions[key] = suspend(self.arcs[k], shift)
        return x

    def product_target(self, i: int, l: int, degree: int) -> ProductTarget | None:
        """The record of products from summand i to summand l in the given degree.

        None when ``hom_dim`` is zero there.  Suspension orbits of distinct
        summands are disjoint (``from_arcs``), so the suspended target can
        be the source summand only when ``l == i``.
        """
        key = (i, l, degree)
        try:
            return self._targets[key]
        except KeyError:
            pass
        x = self.arcs[i]
        if hom_dim(x, self.arcs[l], degree) == 0:
            target = None
        else:
            z = self.suspended(l, degree)
            if l == i and z == x:
                target = ProductTarget(z, True, None)
            else:
                target = ProductTarget(z, False, hom_alignment(x, z))
        self._targets[key] = target
        return target

    def dims_matrix(self, degree: int) -> list[list[int]]:
        return [[self.dim(i, j, degree) for j in range(self.size)] for i in range(self.size)]


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
    w, w_is_source = _middle(a, i, j1, p)
    return _chi_product(a.product_target(i, l, p + q), w, w_is_source, j1 == l)


def _middle(a: EndoAlgebra, i: int, j: int, p: int) -> tuple[Arc, bool]:
    """The middle object w of a product whose first factor is (i, j, p).

    w is summand j suspended by p; the flag says whether w is summand i,
    which it can be only when ``j == i``, since orbits are disjoint.
    """
    w = a.suspended(j, p)
    return w, j == i and w == a.arcs[i]


def _chi_product(
    target: ProductTarget | None, w: Arc, w_is_source: bool, w_in_target_orbit: bool
) -> int:
    """The product rule of ``chi_multiply``, without its operand checks.

    Decides the composite x -> w -> z, where x is summand i, w the middle
    summand shifted by the first factor's degree, and z summand l shifted
    by the total degree; ``target`` is the algebra's record for
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


def _class_record(
    p: PianoQuiver, algebra: EndoAlgebra, a: int, b: int, m: int
) -> tuple[int, PathNormalForm, Arc, bool]:
    """What the products of a nonzero class from a to b in degree m read.

    Its degree, the normal form of its canonical word, and the middle
    object (``_middle``) of the products it is the first factor of.
    """
    form = normal_form(p, canonical_word(p, a, b, m), base=a)
    return (m, form, *_middle(algebra, a, b, m))


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
    and that products of canonical path words are nonzero exactly when the
    corresponding matrix products are, over all composable pairs.
    ``piano`` and ``algebra``, when given, are those of ``arcs`` in this
    order, so that other checks can share them.

    Both factors of every pair are nonzero classes, so a path product is
    decided at the junction by ``quivers.product_is_zero`` on the two class
    forms, without building its normal form, and a matrix product by
    ``_chi_product`` on the algebra's target record, without the operand
    checks of ``chi_multiply``, a row at a time (see the module docstring).
    """
    items = list(arcs)
    if n is None:
        n = items[0].n
    if algebra is None:
        algebra = EndoAlgebra.from_arcs(items, n)
    elif algebra.arcs != tuple(items):
        raise EndoError("the algebra is not the one of these summands in this order")
    else:
        # The products below fill the caches for every degree of the window;
        # a copy with fresh caches keeps them from outliving this check.
        algebra = replace(algebra)
    p = piano if piano is not None else piano_of_generator(items, n)
    size = len(items)
    mismatches: list[IsoMismatch] = []

    # The degrees of the nonzero classes of each pair, on both sides.
    degrees: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in range(size):
        for b in range(size):
            both = []
            for m in range(-window, window + 1):
                lhs = algebra.dim(a, b, m)
                rhs = graded_dim(p, a, b, m)
                if lhs != rhs:
                    mismatches.append(
                        IsoMismatch("dimension", (a, b, m), lhs, rhs)
                    )
                    if len(mismatches) >= max_mismatches:
                        return IsoReport(tuple(mismatches))
                elif lhs:
                    both.append(m)
            degrees[(a, b)] = tuple(both)

    classes = {
        (a, b): [_class_record(p, algebra, a, b, m) for m in ms]
        for (a, b), ms in degrees.items()
    }
    # Few pairs have distinct degree tuples, so each set of totals is formed once.
    sumset = cache(lambda ms, ms2: frozenset(m + m2 for m in ms for m2 in ms2))
    products = 0
    for a in range(size):
        # For each c, the totals of the products from a to c, their target
        # records, and those the piano has no nonzero class in.
        reach: list[set[int]] = [set() for _ in range(size)]
        for b in range(size):
            for c in range(size):
                reach[c] |= sumset(degrees[(a, b)], degrees[(b, c)])
        targets = [{t: algebra.product_target(a, c, t) for t in ts} for c, ts in enumerate(reach)]
        off_piano = [{t for t in ts if not graded_dim(p, a, c, t)} for c, ts in enumerate(reach)]
        for b in range(size):
            lefts = classes[(a, b)]
            if not lefts:
                continue
            for c in range(size):
                rights, right_degrees = classes[(b, c)], degrees[(b, c)]
                if not rights:
                    continue
                targets_c, off_c, w_in_target_orbit = targets[c], off_piano[c], b == c
                path_rows: dict[tuple[bool, int | None], list[bool]] = {}
                for m, left, w, w_is_source in lefts:
                    key = (left.is_zero, left.last_arrow)
                    path_row = path_rows.get(key)
                    if path_row is None:
                        path_row = path_rows[key] = [
                            not product_is_zero(p, left, right) for _, right, _, _ in rights
                        ]
                    chi_row = [
                        _chi_product(targets_c[m + m2], w, w_is_source, w_in_target_orbit)
                        for m2 in right_degrees
                    ]
                    if path_row == chi_row and not (
                        off_c
                        and any(hit and m + m2 in off_c for hit, m2 in zip(path_row, right_degrees))
                    ):
                        products += len(rights)
                        continue
                    # Walk a row that disagrees, or has a nonzero path off the
                    # piano, cell by cell, so that the witnesses, their order
                    # and the count at a cap are those of a per-cell loop.
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

"""Graded endomorphism algebra of a generator as a generalised matrix algebra.

Entries are one of four graded rings determined by arc geometry: polynomial
(one dimension in each non-positive degree), Laurent (one dimension
everywhere), the long-arc ring (one dimension everywhere except degree one),
or zero.  Products of distinguished basis elements have coefficients in
{0, 1}, computed from the factorisation calculus on arcs.  An
``EndoAlgebra`` caches its suspended summands, and the Hom dimension and
endpoint alignment of each (source, target, degree), so a product only
tests where its middle arc sits.

``verify_path_algebra_iso`` compares this algebra with the piano's path
algebra product by product.  It visits only pairs of nonzero classes, so
it skips the operand checks of ``chi_multiply`` and applies the product
rule (``_chi_product``) directly, and it decides each path product with the
junction lookup ``quivers.product_is_zero`` instead of building the
product's normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

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


def classify_entry(arcs: list[Arc], i: int, j: int) -> GradedEntry:
    """Entry (i, j) of the generalised matrix algebra of the given summands.

    Requires the suspension orbits of distinct summands to be disjoint: no
    two share the segment of a marked endpoint, and no summand is repeated.
    Diagonal entries are fixed by arc kind; an off-diagonal one is Laurent
    when there is a degree-one extension (``homs.ext1_dim``), that is in the
    anticlockwise-rotation or crossing direction, and zero otherwise.
    """
    x, y = arcs[i], arcs[j]
    if i == j:
        if x.kind == ArcKind.LIMIT:
            return GradedEntry(RingKind.POLY)
        if x.kind == ArcKind.DOUBLE_LIMIT:
            return GradedEntry(RingKind.LAURENT)
        if x.kind == ArcKind.LONG:
            return GradedEntry(RingKind.LONG)
        raise EndoError("short arcs are never summands of a minimal generator")
    if x == y or _marked_segments(x) & _marked_segments(y):
        raise EndoError("orbits overlap")
    return GradedEntry(RingKind.LAURENT if ext1_dim(x, y) else RingKind.ZERO)


def _marked_segments(x: Arc) -> set[int]:
    """Segments swept by the suspension orbit of x: those of its marked endpoints."""
    return {p.seg for p in x.endpoints() if p.is_marked}


@dataclass(frozen=True)
class EndoAlgebra:
    """The generalised matrix algebra of an ordered tuple of summand arcs."""

    n: int
    arcs: tuple[Arc, ...]
    entries: tuple[tuple[GradedEntry, ...], ...]
    # Filled lazily by ``suspended``, ``summand_hom_dim`` and
    # ``summand_alignment``, so each suspended summand is built and validated
    # once per algebra, and each Hom dimension and alignment found once.
    _suspensions: dict[tuple[int, int], Arc] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _hom_dims: dict[tuple[int, int, int], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _alignments: dict[tuple[int, int, int], tuple | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def from_arcs(arcs: list[Arc], n: int | None = None) -> "EndoAlgebra":
        items = list(arcs)
        if n is None:
            if not items:
                raise EndoError("need at least one summand")
            n = items[0].n
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

    def summand_hom_dim(self, i: int, l: int, degree: int) -> int:
        """``hom_dim`` from summand i to summand l in the given degree."""
        key = (i, l, degree)
        d = self._hom_dims.get(key)
        if d is None:
            d = self._hom_dims[key] = hom_dim(self.arcs[i], self.arcs[l], degree)
        return d

    def summand_alignment(self, i: int, l: int, degree: int) -> tuple | None:
        """``hom_alignment`` from summand i to the ``degree``-fold suspension of summand l."""
        key = (i, l, degree)
        if key not in self._alignments:
            self._alignments[key] = hom_alignment(self.arcs[i], self.suspended(l, degree))
        return self._alignments[key]

    def dims_matrix(self, degree: int) -> list[list[int]]:
        return [[self.dim(i, j, degree) for j in range(self.size)] for i in range(self.size)]

    def to_json(self, window: int = 6) -> dict:
        return {
            "n": self.n,
            "summands": [x.to_json() for x in self.arcs],
            "entries": [[self.entries[i][j].kind.value for j in range(self.size)] for i in range(self.size)],
            "dims": {str(d): self.dims_matrix(d) for d in range(-window, window + 1)},
        }

    def dims_csv_rows(self, window: int = 6) -> list[list[int]]:
        rows = [["degree", "row", "col", "dim"]]
        for d in range(-window, window + 1):
            for i in range(self.size):
                for j in range(self.size):
                    rows.append([d, i, j, self.dim(i, j, d)])
        return rows


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
    return _chi_product(a, i, a.suspended(j1, p), l, p + q)


def _chi_product(a: EndoAlgebra, i: int, w: Arc, l: int, degree: int) -> int:
    """The product rule of ``chi_multiply``, without its operand checks.

    Decides the composite x -> w -> z, where x is summand i, w the middle
    summand shifted by the first factor's degree, and z summand l shifted
    by the total ``degree``.  The Hom dimension and the alignment of x -> z
    depend only on (i, l, degree) and come from the algebra's caches.
    """
    if a.summand_hom_dim(i, l, degree) == 0:
        return 0
    x = a.arcs[i]
    z = a.suspended(l, degree)
    if z == x:
        # A round trip in total degree zero splits off the middle object,
        # so it vanishes unless the middle is the object itself.
        return 1 if w == x else 0
    if w == x or w == z:
        return 1
    aligned = a.summand_alignment(i, l, degree)
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
    decided by the junction lookup ``quivers.product_is_zero`` without
    building its normal form, and a matrix product by ``_chi_product``
    without the operand checks of ``chi_multiply``.
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

    for a in range(size):
        for b in range(size):
            for m in range(-window, window + 1):
                lhs = algebra.dim(a, b, m)
                rhs = graded_dim(p, a, b, m)
                if lhs != rhs:
                    mismatches.append(
                        IsoMismatch("dimension", (a, b, m), lhs, rhs)
                    )
                    if len(mismatches) >= max_mismatches:
                        return IsoReport(tuple(mismatches))

    degrees = range(-window, window + 1)
    # Every class nonzero on both sides, with the normal form of its
    # canonical word and the suspended summand it ends at.
    classes: dict[tuple[int, int], list[tuple[int, PathNormalForm, Arc]]] = {
        (a, b): [
            (m, normal_form(p, canonical_word(p, a, b, m), base=a), algebra.suspended(b, m))
            for m in degrees
            if algebra.dim(a, b, m) == 1 and graded_dim(p, a, b, m) == 1
        ]
        for a in range(size)
        for b in range(size)
    }
    totals = range(-2 * window, 2 * window + 1)
    products = 0
    for a in range(size):
        # The degrees of the nonzero path classes from a to each c.
        on_piano = [{t for t in totals if graded_dim(p, a, c, t)} for c in range(size)]
        for b in range(size):
            lefts = classes[(a, b)]
            for c in range(size):
                rights = classes[(b, c)]
                for m, left, w in lefts:
                    for m2, right, _ in rights:
                        products += 1
                        path_nonzero = not product_is_zero(p, left, right)
                        if path_nonzero and m + m2 not in on_piano[c]:
                            mismatches.append(
                                IsoMismatch("rewriting", (a, b, c, m, m2), 0, 1)
                            )
                            if len(mismatches) >= max_mismatches:
                                return IsoReport(tuple(mismatches), products)
                        chi = _chi_product(algebra, a, w, c, m + m2)
                        if int(path_nonzero) != chi:
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

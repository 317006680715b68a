"""Graded endomorphism algebra of a generator as a generalised matrix algebra.

Entries are one of four graded rings determined by arc geometry: polynomial
(one dimension in each non-positive degree), Laurent (one dimension
everywhere), the long-arc ring (one dimension everywhere except degree one),
or zero.  Products of distinguished basis elements have coefficients in
{0, 1}, computed from the factorisation calculus on arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .dissections import dissection_from_generator
from .geometry import Arc, ArcKind, cross, cyclic_less, orbit_segments, arc_set, suspend
from .homs import HomError, factors_through, hom_dim
from .quivers import PianoQuiver, canonical_word, graded_dim, normal_form, piano_from_extended


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

    def dims_window(self, window: int) -> dict[int, int]:
        return {i: self.dim(i) for i in range(-window, window + 1)}


def classify_entry(arcs: list[Arc], i: int, j: int) -> GradedEntry:
    """Entry (i, j) of the generalised matrix algebra of the given summands.

    Requires the suspension orbits of distinct summands to be disjoint at the
    segment level; diagonal entries are fixed by arc kind, off-diagonal ones
    are Laurent in the anticlockwise-rotation or crossing direction and zero
    otherwise.
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
    if orbit_segments(arc_set(x.n, [x])) & orbit_segments(arc_set(y.n, [y])):
        raise EndoError("orbits overlap")
    if cross(x, y):
        return GradedEntry(RingKind.LAURENT)
    shared = x.shared_accumulation(y)
    if shared is not None:
        x_free = x.other_endpoint(shared)
        y_free = y.other_endpoint(shared)
        if cyclic_less(x_free, y_free, shared):
            return GradedEntry(RingKind.LAURENT)
    return GradedEntry(RingKind.ZERO)


@dataclass(frozen=True)
class EndoAlgebra:
    """The generalised matrix algebra of an ordered tuple of summand arcs."""

    n: int
    arcs: tuple[Arc, ...]
    entries: tuple[tuple[GradedEntry, ...], ...]
    # Filled lazily by ``suspended`` and ``summand_hom_dim``, so each
    # suspended summand is built and validated once per algebra.
    _suspensions: dict[tuple[int, int], Arc] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _hom_dims: dict[tuple[int, int, int], int] = field(
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
    morphisms is nonzero, which is decided by the factorisation calculus.
    """
    i, j1, p = f
    j2, l, q = g
    if j1 != j2:
        raise EndoError("entries do not compose")
    if a.dim(i, j1, p) == 0 or a.dim(j1, l, q) == 0:
        raise EndoError("zero operand")
    x = a.arcs[i]
    w = a.suspended(j1, p)
    z = a.suspended(l, p + q)
    if a.summand_hom_dim(i, l, p + q) == 0:
        return 0
    if z == x:
        # A round trip in total degree zero splits off the middle object,
        # so it vanishes unless the middle is the object itself.
        return 1 if w == x else 0
    if w == x or w == z:
        return 1
    try:
        return 1 if factors_through(x, w, z) else 0
    except HomError:
        return 0


@dataclass(frozen=True)
class IsoMismatch:
    kind: str
    location: tuple
    expected: object
    found: object


@dataclass(frozen=True)
class IsoReport:
    mismatches: tuple[IsoMismatch, ...]

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
    chords = []
    for x in arcs:
        img = dissection_from_generator([x], d.n)
        chords.append((img.red + img.binding)[0])
    return piano_from_extended(d, vertex_order=chords)


def verify_path_algebra_iso(
    arcs: list[Arc],
    n: int | None = None,
    window: int = 6,
    piano: PianoQuiver | None = None,
    max_mismatches: int = 20,
) -> IsoReport:
    """Compare the matrix algebra of a limit generator with its path algebra.

    Checks degreewise dimensions on [-window, window] for every vertex pair,
    and that products of canonical path words are nonzero exactly when the
    corresponding matrix products are, over all composable pairs.
    """
    items = list(arcs)
    if n is None:
        n = items[0].n
    algebra = EndoAlgebra.from_arcs(items, n)
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
    nonzero = {
        (a, b): [m for m in degrees if algebra.dim(a, b, m) == 1]
        for a in range(size)
        for b in range(size)
    }
    words: dict[tuple[int, int, int], tuple] = {}
    for (a, b), ms in nonzero.items():
        for m in ms:
            if graded_dim(p, a, b, m) == 1:
                words[(a, b, m)] = canonical_word(p, a, b, m)
    for (a, b), ms in nonzero.items():
        for (b2, c), ms2 in nonzero.items():
            if b2 != b:
                continue
            for m in ms:
                if (a, b, m) not in words:
                    continue
                for m2 in ms2:
                    if (b, c, m2) not in words:
                        continue
                    concat = words[(a, b, m)] + words[(b, c, m2)]
                    nf = normal_form(p, concat, base=a)
                    path_nonzero = not nf.is_zero
                    if path_nonzero and graded_dim(p, a, c, m + m2) == 0:
                        mismatches.append(
                            IsoMismatch("rewriting", (a, b, c, m, m2), 0, 1)
                        )
                        if len(mismatches) >= max_mismatches:
                            return IsoReport(tuple(mismatches))
                    chi = chi_multiply(algebra, (a, b, m), (b, c, m2))
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
                            return IsoReport(tuple(mismatches))
    return IsoReport(tuple(mismatches))

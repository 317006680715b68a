"""Quiver builders and products that only the tests use, kept as references.

``gentle_from_dissection`` builds the gentle quiver of an admissible
dissection with its own validation; ``quivers.keyboard_from_extended``
builds the same quiver on the induced dissection of an extended one.
``is_locally_gentle`` checks the axioms of a gentle quiver on either.
``compose`` is the full product of two path normal forms;
``quivers.product_is_zero`` decides only whether it vanishes, and
``endo.verify_path_algebra_iso`` reads no more than that.
"""

from __future__ import annotations

from pianocat.dissections import ChordArc, DissectionSet, is_admissible_dissection
from pianocat.geometry import is_connected
from pianocat.quivers import (
    ZERO_FORM,
    GentleQuiver,
    PathNormalForm,
    PianoQuiver,
    QuiverError,
    _check_vertex_order,
    _form,
    _gentle_quiver,
    _reduce_blocks,
    product_is_zero,
)


def gentle_from_dissection(
    d: DissectionSet, vertex_order: list[ChordArc] | None = None
) -> GentleQuiver:
    """Quiver of an admissible dissection.

    One vertex per red arc; an arrow i -> j for each red point where arc i
    immediately precedes arc j anticlockwise; a relation for each pair of
    consecutive arrows meeting at the two distinct endpoints of the middle
    arc.
    """
    if d.binding:
        raise QuiverError("dissection must be red only; extend via induced_admissible")
    if not is_admissible_dissection(d):
        raise QuiverError("dissection is not admissible")
    chords = list(vertex_order) if vertex_order is not None else list(d.red)
    _check_vertex_order(chords, d.red)
    return _gentle_quiver(2 * d.n, chords, tuple(chords))


def compose(p: PianoQuiver, u: PathNormalForm, v: PathNormalForm) -> PathNormalForm:
    """The normal form of the product ``u`` then ``v`` of two normal forms.

    Both are irreducible, so every redex of the concatenation straddles the
    junction.  ``product_is_zero`` decides at the junction whether the
    product vanishes; otherwise pushing ``v``'s blocks onto a copy of
    ``u``'s stack finishes the one stack pass of ``normal_form`` over the
    concatenation.  The identity (the empty word at a vertex) is a unit.
    """
    if not (u.is_zero or v.is_zero) and u.target != v.source:
        raise QuiverError(f"normal forms do not compose: {u.target} -> {v.source}")
    if product_is_zero(p, u, v):
        return ZERO_FORM
    stack = _reduce_blocks(p, v.blocks, list(u.blocks))
    return _form(u.source, v.target, u.degree + v.degree, stack)


def _arrows_out(q: GentleQuiver, v: int) -> list[int]:
    return [i for i, e in enumerate(q.arrows) if e.src == v]


def _arrows_in(q: GentleQuiver, v: int) -> list[int]:
    return [i for i, e in enumerate(q.arrows) if e.tgt == v]


def is_locally_gentle(q: GentleQuiver) -> bool:
    """At most two arrows in and out per vertex, length-two relations, and
    unique continuations both inside and outside the relation ideal."""
    if q.num_vertices < 1:
        return False
    if not is_connected(q.num_vertices, ((e.src, e.tgt) for e in q.arrows)):
        return False
    for v in range(q.num_vertices):
        if len(_arrows_out(q, v)) > 2 or len(_arrows_in(q, v)) > 2:
            return False
    for a, b in q.relations:
        if q.arrows[a].tgt != q.arrows[b].src:
            return False
    for i, e in enumerate(q.arrows):
        before = _arrows_in(q, e.src)
        after = _arrows_out(q, e.tgt)
        if sum(1 for j in before if (j, i) in q.relations) > 1:
            return False
        if sum(1 for j in after if (i, j) in q.relations) > 1:
            return False
        if sum(1 for j in before if (j, i) not in q.relations) > 1:
            return False
        if sum(1 for j in after if (i, j) not in q.relations) > 1:
            return False
    return True

"""Gentle quivers from dissections, keyboard and piano quivers, graded path algebra.

A keyboard quiver is the gentle quiver of the induced admissible dissection
of an extended one, remembering which vertices came from binding arcs (the
sharp vertices).  The piano quiver adds a degree -1 loop at every vertex and
a degree +1 loop at every non-sharp vertex; words in the resulting graded
path algebra are normalised by a small rewriting system (the five rules of
``one_step_rewrites``).

``normal_form`` applies those rules in one left-to-right stack pass: loops
travel as ``(tag, vertex, power)`` blocks, so a block crosses an arrow,
moves along a commutation run or cancels against an inverse block in one
step, and the arrow skeleton, which no rule changes, is checked once.  The
rewriting system is confluent, so the word this one rewrite order reaches
is the word every rewrite order reaches; ``confluence.all_terminals``, which
follows every order, is its independent oracle.  Per-quiver lookup tables
(symbol ends and degrees, commutation runs by start, radial chains and
arrow paths) are built once and kept on the ``PianoQuiver``.

``compose`` multiplies two normal forms without normalising their
concatenation again.  A normal form keeps its reduced block stack and the
first and last arrow of its skeleton; the product is zero when either form
is or the two skeletons meet in a relation at the junction
(``product_is_zero``, one lookup), and otherwise the second form's blocks
are pushed onto a copy of the first form's stack, so only the redexes
across the junction are rewritten.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable

from .dissections import (
    ChordArc,
    DissectionSet,
    induced_admissible,
    is_admissible_dissection,
)
from .geometry import is_connected


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    src: int
    tgt: int
    meet: int  # boundary position where the two chords meet


@dataclass(frozen=True)
class GentleQuiver:
    """Finite quiver with length-two relations given as pairs of arrow indices."""

    num_vertices: int
    labels: tuple
    arrows: tuple[Arrow, ...]
    relations: frozenset[tuple[int, int]]

    def arrows_out(self, v: int) -> list[int]:
        return [i for i, e in enumerate(self.arrows) if e.src == v]

    def arrows_in(self, v: int) -> list[int]:
        return [i for i, e in enumerate(self.arrows) if e.tgt == v]

    def to_json(self) -> dict:
        return {
            "vertices": list(range(self.num_vertices)),
            "labels": [list(l.endpoints()) if isinstance(l, ChordArc) else l for l in self.labels],
            "arrows": [[e.src, e.tgt] for e in self.arrows],
            "relations": sorted(
                [self.arrows[a].src, self.arrows[a].tgt, self.arrows[b].tgt]
                for a, b in self.relations
            ),
        }


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
    if sorted(chords, key=ChordArc.endpoints) != sorted(d.red, key=ChordArc.endpoints):
        raise QuiverError("vertex order must list exactly the dissection arcs")
    size = d.disc.size
    index = {c: i for i, c in enumerate(chords)}
    arrows: list[Arrow] = []
    for point in range(size):
        incident = [c for c in chords if point in c.endpoints()]
        if len(incident) < 2:
            continue

        def far(c: ChordArc) -> int:
            a, b = c.endpoints()
            other = b if a == point else a
            return (other - point) % size

        incident.sort(key=far)
        for c1, c2 in zip(incident, incident[1:]):
            arrows.append(Arrow(index[c1], index[c2], point))
    relations = set()
    for i, e1 in enumerate(arrows):
        middle = chords[e1.tgt]
        other_end = middle.q if middle.p == e1.meet else middle.p
        for j, e2 in enumerate(arrows):
            if e2.src == e1.tgt and e2.meet == other_end:
                relations.add((i, j))
    return GentleQuiver(len(chords), tuple(chords), tuple(arrows), frozenset(relations))


def is_locally_gentle(q: GentleQuiver) -> bool:
    """At most two arrows in and out per vertex, length-two relations, and
    unique continuations both inside and outside the relation ideal."""
    if q.num_vertices < 1:
        return False
    if not is_connected(q.num_vertices, ((e.src, e.tgt) for e in q.arrows)):
        return False
    for v in range(q.num_vertices):
        if len(q.arrows_out(v)) > 2 or len(q.arrows_in(v)) > 2:
            return False
    for a, b in q.relations:
        if q.arrows[a].tgt != q.arrows[b].src:
            return False
    for i, e in enumerate(q.arrows):
        before = [j for j in q.arrows_in(e.src)]
        after = [j for j in q.arrows_out(e.tgt)]
        if sum(1 for j in before if (j, i) in q.relations) > 1:
            return False
        if sum(1 for j in after if (i, j) in q.relations) > 1:
            return False
        if sum(1 for j in before if (j, i) not in q.relations) > 1:
            return False
        if sum(1 for j in after if (i, j) not in q.relations) > 1:
            return False
    return True


@dataclass(frozen=True)
class KeyboardQuiver:
    """Gentle quiver of the induced dissection plus the set of sharp vertices."""

    gentle: GentleQuiver
    sharp: frozenset[int]

    @property
    def num_vertices(self) -> int:
        return self.gentle.num_vertices

    def to_json(self) -> dict:
        obj = self.gentle.to_json()
        obj["sharp"] = sorted(self.sharp)
        return obj


def keyboard_from_extended(
    d: DissectionSet, vertex_order: list[ChordArc] | None = None
) -> KeyboardQuiver:
    """Keyboard quiver of an extended admissible dissection.

    Vertices follow ``vertex_order`` (default: red arcs then binding arcs);
    binding-arc vertices are sharp.
    """
    chords = list(vertex_order) if vertex_order is not None else list(d.all_chords())
    _, induced = induced_admissible(d)
    doubled = [ChordArc(2 * c.p, 2 * c.q) for c in chords]
    gentle = gentle_from_dissection(induced, vertex_order=doubled)
    relabelled = GentleQuiver(
        gentle.num_vertices, tuple(chords), gentle.arrows, gentle.relations
    )
    sharp = frozenset(i for i, c in enumerate(chords) if c.is_binding)
    return KeyboardQuiver(relabelled, sharp)


# Word symbols of the graded path algebra: ("a", v) is the degree -1 loop at
# v, ("b", v) the degree +1 loop, ("d", k) the k-th keyboard arrow.
Symbol = tuple[str, int]


class Shape(Enum):
    DELTA_ALPHA = "delta_alpha"
    DELTA_BETA = "delta_beta"
    DELTA_BETA_DELTA = "delta_beta_delta"
    ZERO = "zero"


# A word in run-length form: ("d", k, 1) for the k-th arrow, (tag, v, power)
# for a power of one loop at v.
Block = tuple[str, int, int]


@dataclass(frozen=True)
class PathNormalForm:
    source: int | None
    target: int | None
    degree: int | None
    shape: Shape
    word: tuple[Symbol, ...] = ()
    # What ``compose`` continues from: the irreducible word as blocks, and
    # the first and last arrow of its skeleton (None without arrows).
    blocks: tuple[Block, ...] = field(default=(), compare=False, repr=False)
    first_arrow: int | None = field(default=None, compare=False, repr=False)
    last_arrow: int | None = field(default=None, compare=False, repr=False)

    @property
    def is_zero(self) -> bool:
        return self.shape == Shape.ZERO


ZERO_FORM = PathNormalForm(None, None, None, Shape.ZERO)


@dataclass(frozen=True)
class PianoQuiver:
    """Keyboard quiver with graded loops and the induced relation data."""

    keyboard: KeyboardQuiver
    beta_runs: tuple[tuple[int, tuple[int, ...], int], ...]

    @property
    def num_vertices(self) -> int:
        return self.keyboard.num_vertices

    @property
    def sharp(self) -> frozenset[int]:
        return self.keyboard.sharp

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        return self.keyboard.gentle.arrows

    @property
    def relations(self) -> frozenset[tuple[int, int]]:
        return self.keyboard.gentle.relations

    def has_beta(self, v: int) -> bool:
        return v not in self.sharp

    def symbol_ends(self, s: Symbol) -> tuple[int, int]:
        tag, k = s
        if tag in ("a", "b"):
            return k, k
        e = self.arrows[k]
        return e.src, e.tgt

    @cached_property
    def symbol_table(self) -> dict[Symbol, tuple[int, int, int]]:
        """(source, target, degree) of every symbol the piano's words may use."""
        table: dict[Symbol, tuple[int, int, int]] = {}
        for v in range(self.num_vertices):
            table[("a", v)] = (v, v, -1)
            if self.has_beta(v):
                table[("b", v)] = (v, v, 1)
        for k, e in enumerate(self.arrows):
            table[("d", k)] = (e.src, e.tgt, 0)
        return table

    @cached_property
    def run_by_start(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Commutation runs keyed by (start vertex, first arrow); a later run wins a key."""
        return {(start, run[0]): run for start, run, _ in self.beta_runs}

    @cached_property
    def runs_into(self) -> dict[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """The (start, run) pairs of ``run_by_start``, keyed by the run's last arrow."""
        out: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        for (start, _), run in self.run_by_start.items():
            out[run[-1]] = out.get(run[-1], ()) + ((start, run),)
        return out

    @cached_property
    def point_chains(self) -> dict[int, list[int]]:
        """Vertices in radial order at each meet point, following the arrows."""
        chains: dict[int, list[int]] = {}
        by_point: dict[int, list[Arrow]] = {}
        for e in self.arrows:
            by_point.setdefault(e.meet, []).append(e)
        for point, es in by_point.items():
            nxt = {e.src: e.tgt for e in es}
            sources = set(nxt) - set(nxt.values())
            if len(sources) != 1:
                raise QuiverError("meet point without a linear radial chain")
            chain = [sources.pop()]
            while chain[-1] in nxt:
                chain.append(nxt[chain[-1]])
            chains[point] = chain
        return chains

    @cached_property
    def arrow_paths(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The nonzero arrow path of every ordered pair of distinct vertices that
        has one; the first radial chain holding the pair gives it."""
        arrow_at = {(e.src, e.tgt, e.meet): k for k, e in enumerate(self.arrows)}
        paths: dict[tuple[int, int], tuple[int, ...]] = {}
        for point, chain in self.point_chains.items():
            steps = [arrow_at[(u, v, point)] for u, v in zip(chain, chain[1:])]
            for i, a in enumerate(chain):
                for j in range(i + 1, len(chain)):
                    paths.setdefault((a, chain[j]), tuple(steps[i:j]))
        return paths

    def to_json(self) -> dict:
        obj = self.keyboard.to_json()
        obj["loops"] = {
            "alpha": list(range(self.num_vertices)),
            "beta": sorted(v for v in range(self.num_vertices) if self.has_beta(v)),
        }
        obj["commutation_runs"] = [
            [start, list(run), end] for start, run, end in self.beta_runs
        ]
        return obj

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def piano_from_keyboard(kb: KeyboardQuiver) -> PianoQuiver:
    """Attach the graded loops and instantiate the commutation runs.

    A commutation run is a relation-free arrow path between non-sharp
    vertices whose interior vertices are all sharp; since sharp vertices are
    never adjacent, runs have length one or two.
    """
    runs: list[tuple[int, tuple[int, ...], int]] = []
    arrows = kb.gentle.arrows
    for i, e in enumerate(arrows):
        if e.src in kb.sharp:
            continue
        if e.tgt not in kb.sharp:
            runs.append((e.src, (i,), e.tgt))
            continue
        for j, f in enumerate(arrows):
            if f.src != e.tgt or (i, j) in kb.gentle.relations:
                continue
            if f.tgt not in kb.sharp:
                runs.append((e.src, (i, j), f.tgt))
    return PianoQuiver(kb, tuple(runs))


def piano_from_extended(
    d: DissectionSet, vertex_order: list[ChordArc] | None = None
) -> PianoQuiver:
    return piano_from_keyboard(keyboard_from_extended(d, vertex_order))


def _bad_symbol(p: PianoQuiver, s: Symbol) -> QuiverError:
    tag, k = s
    if tag == "b" and k in p.sharp:
        return QuiverError(f"no degree +1 loop at sharp vertex {k}")
    if tag == "d":
        return QuiverError(f"no arrow {k}")
    if tag in ("a", "b"):
        return QuiverError(f"no vertex {k}")
    return QuiverError(f"unknown symbol {s!r}")


def validate_word(p: PianoQuiver, word: tuple[Symbol, ...]) -> tuple[int, int]:
    """Return (source, target) of a composable word; raise otherwise."""
    if not word:
        raise QuiverError("empty word needs a base vertex; use a loop power instead")
    table = p.symbol_table
    for s in word:
        if s not in table:
            raise _bad_symbol(p, s)
    for s, t in zip(word, word[1:]):
        if table[s][1] != table[t][0]:
            raise QuiverError(f"word is not composable at {s} -> {t}")
    return table[word[0]][0], table[word[-1]][1]


def _skeleton_dead(p: PianoQuiver, word: tuple[Symbol, ...]) -> bool:
    skeleton = [k for tag, k in word if tag == "d"]
    return any((a, b) in p.relations for a, b in zip(skeleton, skeleton[1:]))


def one_step_rewrites(
    p: PianoQuiver, word: tuple[Symbol, ...]
) -> list[tuple[Symbol, ...] | None]:
    """All single applications of a rewrite rule; None stands for zero.

    Rules: cancel adjacent inverse loop pairs at a vertex, move a degree -1
    loop right across an arrow, cancel a loop pair across one arrow into a
    sharp vertex, move a degree +1 loop right along a commutation run, and
    collapse any word whose arrow skeleton meets a length-two relation.
    """
    out: list[tuple[Symbol, ...] | None] = []
    if _skeleton_dead(p, word):
        out.append(None)
    run_by_start = p.run_by_start
    for i, s in enumerate(word):
        tag, k = s
        nxt = word[i + 1] if i + 1 < len(word) else None
        if nxt is not None and tag in ("a", "b") and nxt[0] in ("a", "b"):
            if nxt[1] == k and nxt[0] != tag:
                out.append(word[:i] + word[i + 2 :])
        if nxt is not None and tag == "a" and nxt[0] == "d":
            e = p.arrows[nxt[1]]
            out.append(word[:i] + (nxt, ("a", e.tgt)) + word[i + 2 :])
        if tag == "b" and nxt is not None and nxt[0] == "d":
            run = run_by_start.get((k, nxt[1]))
            if run is not None and i + 1 + len(run) <= len(word):
                piece = word[i + 1 : i + 1 + len(run)]
                if piece == tuple(("d", a) for a in run):
                    end = p.arrows[run[-1]].tgt
                    out.append(
                        word[:i] + piece + (("b", end),) + word[i + 1 + len(run) :]
                    )
            # One arrow into a sharp vertex followed by the inverse loop.
            if i + 2 < len(word):
                third = word[i + 2]
                e = p.arrows[nxt[1]]
                if e.src == k and third == ("a", e.tgt):
                    out.append(word[:i] + (nxt,) + word[i + 3 :])
    return out


def normal_form(
    p: PianoQuiver, word: tuple[Symbol, ...], base: int | None = None
) -> PathNormalForm:
    """Deterministic normal form of a composable word.

    Words whose arrow skeleton hits a relation are zero; every other word
    reduces to a unique canonical representative consisting of the arrow
    path, a power of one loop, and at most one trailing arrow.  An empty
    word denotes the identity at ``base``.

    ``_scan_blocks`` validates the word, sums its degree, checks the arrow
    skeleton (no rule changes it, so once is enough) and groups equal
    adjacent loops into blocks; ``_reduce_blocks`` then applies the other
    four rules of ``one_step_rewrites`` in a single left-to-right stack
    pass.  That is one particular rewrite order; the rewriting system is
    confluent, so it reaches the word every order reaches, and
    ``confluence.all_terminals``, which follows every order, is the oracle
    it is tested against.
    """
    if not word:
        if base is None:
            raise QuiverError("empty word needs a base vertex")
        return PathNormalForm(base, base, 0, Shape.DELTA_ALPHA, ())
    blocks, degree = _scan_blocks(p, word)
    if blocks is None:
        return ZERO_FORM
    table = p.symbol_table
    return _form(table[word[0]][0], table[word[-1]][1], degree, _reduce_blocks(p, blocks))


def product_is_zero(p: PianoQuiver, u: PathNormalForm, v: PathNormalForm) -> bool:
    """Whether the product ``u`` then ``v`` of two composable normal forms is zero.

    Both are irreducible and no rule but the skeleton rule yields zero, so
    the product is zero exactly when one of the two is zero or the last
    arrow of ``u`` and the first arrow of ``v`` form a relation.  Both
    halves are needed: a zero form has no arrows, so the relation lookup
    alone would read it as nonzero.
    """
    return u.is_zero or v.is_zero or (u.last_arrow, v.first_arrow) in p.relations


def compose(p: PianoQuiver, u: PathNormalForm, v: PathNormalForm) -> PathNormalForm:
    """The normal form of the product ``u`` then ``v`` of two normal forms.

    Both are irreducible, so every redex of the concatenation straddles the
    junction.  ``product_is_zero`` decides at the junction whether the
    product vanishes; otherwise pushing ``v``'s blocks onto a copy of
    ``u``'s stack finishes the one stack pass of ``normal_form`` over the
    concatenation.  The identity (the empty word at a vertex) is a unit.
    A caller that reads only whether the product is zero calls
    ``product_is_zero`` alone; ``compose`` is the product it is tested
    against.
    """
    if not (u.is_zero or v.is_zero) and u.target != v.source:
        raise QuiverError(f"normal forms do not compose: {u.target} -> {v.source}")
    if product_is_zero(p, u, v):
        return ZERO_FORM
    stack = _reduce_blocks(p, v.blocks, list(u.blocks))
    return _form(u.source, v.target, u.degree + v.degree, stack)


def _scan_blocks(p: PianoQuiver, word: tuple[Symbol, ...]) -> tuple[list[Block] | None, int]:
    """One pass over a nonempty word: its blocks and its degree.

    The word is validated against the symbol table on the way; the blocks
    are None when its arrow skeleton meets a relation.
    """
    table = p.symbol_table
    relations = p.relations
    blocks: list[Block] = []
    degree = 0
    dead = False
    at = last_arrow = None
    for s in word:
        ends = table.get(s)
        if ends is None or (at is not None and ends[0] != at):
            validate_word(p, word)  # raises, naming the offending symbol
        _, at, step = ends
        degree += step
        tag, k = s
        if tag == "d":
            dead = dead or (last_arrow, k) in relations
            last_arrow = k
            blocks.append(("d", k, 1))
        elif blocks and blocks[-1][0] == tag:
            blocks[-1] = (tag, k, blocks[-1][2] + 1)
        else:
            blocks.append((tag, k, 1))
    return (None if dead else blocks), degree


def _form(source: int, target: int, degree: int, stack: list[Block]) -> PathNormalForm:
    """The normal form of an irreducible block word."""
    out: list[Symbol] = []
    shape = Shape.DELTA_ALPHA
    first = last = None
    for tag, k, power in stack:
        if tag == "d":
            out.append(("d", k))
            if first is None:
                first = k
            last = k
            if shape == Shape.DELTA_BETA:
                shape = Shape.DELTA_BETA_DELTA
        else:
            out.extend([(tag, k)] * power)
            if tag == "b":
                shape = Shape.DELTA_BETA
    return PathNormalForm(source, target, degree, shape, tuple(out), tuple(stack), first, last)


def _reduce_blocks(
    p: PianoQuiver, blocks: Iterable[Block], stack: list[Block] | None = None
) -> list[Block]:
    """The irreducible form of a composable block word without a dead skeleton.

    Blocks are pushed in order onto a stack that never holds a redex (by
    default an empty one; ``compose`` starts from an irreducible word).  Every
    pattern of the rules is contiguous, so a push can only create a redex
    that ends at the top: a degree -1 block followed by the new arrow, a
    degree +1 block followed by the arrows of a commutation run, an inverse
    loop block, or a degree +1 block, one arrow and the new degree -1 block.
    That redex is rewritten a whole block at a time, and the blocks it frees
    are pushed again.  Adjacent loop blocks always sit at one vertex, since
    every rule keeps the word composable.
    """
    arrows = p.arrows
    runs_into = p.runs_into
    if stack is None:
        stack = []
    pending = list(reversed(blocks))
    while pending:
        item = pending.pop()
        tag, k, power = item
        top = stack[-1] if stack else None
        if tag == "d":
            if top is not None and top[0] == "a":
                # The degree -1 block crosses the arrow.
                stack.pop()
                pending.append(("a", arrows[k].tgt, top[2]))
                pending.append(item)
                continue
            for start, run in runs_into.get(k, ()):
                size = len(run)
                if (
                    len(stack) >= size
                    and stack[-size][:2] == ("b", start)
                    and all(stack[i - size + 1] == ("d", a, 1) for i, a in enumerate(run[:-1]))
                ):
                    # The arrow ends a commutation run: the degree +1 block
                    # moves to the run's end.
                    moved = stack[-size][2]
                    del stack[-size:]
                    pending.append(("b", arrows[k].tgt, moved))
                    pending.extend(("d", a, 1) for a in reversed(run))
                    break
            else:
                stack.append(item)
        elif top is None:
            stack.append(item)
        elif top[0] == tag:
            stack[-1] = (tag, k, top[2] + power)
        elif top[0] != "d":
            # Inverse loop blocks cancel.
            if top[2] > power:
                stack[-1] = (top[0], k, top[2] - power)
            else:
                stack.pop()
                if power > top[2]:
                    pending.append((tag, k, power - top[2]))
        elif tag == "a" and len(stack) > 1 and stack[-2][0] == "b":
            # Degree +1 loops, one arrow, degree -1 loops: pairs cancel across the arrow.
            below = stack[-2]
            if below[2] > power:
                stack[-2] = ("b", below[1], below[2] - power)
            else:
                del stack[-2:]
                if power > below[2]:
                    pending.append(("a", k, power - below[2]))
                pending.append(top)
        else:
            stack.append(item)
    return stack


def zero_degree_pairs(p: PianoQuiver) -> set[tuple[int, int]]:
    """Ordered vertex pairs joined by a nonzero arrow path (a radial run)."""
    return set(p.arrow_paths)


def arrow_path(p: PianoQuiver, a: int, b: int) -> tuple[int, ...] | None:
    """The unique nonzero arrow path from a to b, or None."""
    if a == b:
        return ()
    return p.arrow_paths.get((a, b))


def graded_dim(p: PianoQuiver, a: int, b: int, m: int) -> int:
    """Dimension (0 or 1) of the degree-m piece of paths from a to b."""
    if a == b:
        if m <= 0 or p.has_beta(a):
            return 1
        return 0
    return 1 if arrow_path(p, a, b) is not None else 0


def canonical_word(p: PianoQuiver, a: int, b: int, m: int) -> tuple[Symbol, ...] | None:
    """A representative word of the class (a, b, m), or None when the class is zero."""
    if graded_dim(p, a, b, m) != 1:
        return None
    if a == b:
        if m <= 0:
            return tuple(("a", a) for _ in range(-m))
        return tuple(("b", a) for _ in range(m))
    path = arrow_path(p, a, b)
    assert path is not None
    deltas = tuple(("d", k) for k in path)
    if m == 0:
        return deltas
    if m < 0:
        return deltas + tuple(("a", b) for _ in range(-m))
    if p.has_beta(b):
        return deltas + tuple(("b", b) for _ in range(m))
    park = p.arrows[path[-1]].src
    return deltas[:-1] + tuple(("b", park) for _ in range(m)) + deltas[-1:]


def degree_component_structure(p: PianoQuiver, degree: int) -> list[list[int]]:
    """Dimension matrix of one graded component over the keyboard algebra.

    Non-positive components copy the keyboard path matrix.  A positive
    component keeps exactly the nonzero path classes: a class into a sharp
    vertex reaches its positive degrees by parking the degree +1 loop at the
    unique non-sharp vertex in front of the final arrow, so only the sharp
    diagonal (and with it every sharp source column) drops out.
    """
    nv = p.num_vertices
    pairs = zero_degree_pairs(p)
    keyboard = [[1 if (a == b or (a, b) in pairs) else 0 for b in range(nv)] for a in range(nv)]
    if degree <= 0:
        return [row[:] for row in keyboard]
    out = [row[:] for row in keyboard]
    for b in range(nv):
        if p.has_beta(b):
            continue
        incoming = [e.src for e in p.arrows if e.tgt == b]
        if len(incoming) > 1 or any(v in p.sharp for v in incoming):
            raise QuiverError("sharp vertex with unexpected incoming arrows")
        out[b][b] = 0
    return out


def quiver_to_dot(kb: KeyboardQuiver) -> str:
    """DOT rendering: solid arrows, dotted relation edges, filled sharp nodes."""
    lines = ["digraph keyboard {"]
    for v in range(kb.num_vertices):
        if v in kb.sharp:
            lines.append(f'    v{v} [label="{v}", shape=circle, style=filled, fillcolor=black, fontcolor=white];')
        else:
            lines.append(f'    v{v} [label="{v}", shape=circle];')
    for e in kb.gentle.arrows:
        lines.append(f"    v{e.src} -> v{e.tgt} [style=solid];")
    for a, b in sorted(kb.gentle.relations):
        i, l = kb.gentle.arrows[a].src, kb.gentle.arrows[b].tgt
        lines.append(f"    v{i} -> v{l} [style=dotted, arrowhead=none, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Gentle quivers from dissections, keyboard and piano quivers, graded path algebra.

A keyboard quiver is the gentle quiver of the induced admissible dissection
of an extended one, remembering which vertices came from binding arcs (the
sharp vertices).  The piano quiver adds a degree -1 loop at every vertex and
a degree +1 loop at every non-sharp vertex; words in the resulting graded
path algebra are normalised by a small rewriting system: a skeleton rule
and the four local rules, whose instances are the one table
``PianoQuiver.rules`` that ``one_step_rewrites`` and the critical pairs of
``confluence`` both read.  How ``normal_form`` applies them in one stack
pass, what a product reads of two normal forms (``product_row``), and how
``class_ends`` reads the classes of a vertex pair, is set out once, in
README.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

from .dissections import ChordArc, DissectionSet, check_induces_admissible
from .geometry import json_fragment


class QuiverError(ValueError):
    pass


class Arrow(NamedTuple):
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

    def to_json(self) -> dict:
        return {
            "vertices": list(range(self.num_vertices)),
            "labels": [list(l.endpoints()) if isinstance(l, ChordArc) else l for l in self.labels],
            "arrows": [[e.src, e.tgt] for e in self.arrows],
            "relations": self.relation_paths(),
        }

    def relation_paths(self) -> list[list[int]]:
        """Each relation as its vertices [source, middle, target], sorted."""
        arrows = self.arrows
        return sorted([arrows[a].src, arrows[a].tgt, arrows[b].tgt] for a, b in self.relations)


def _check_vertex_order(chords: list[ChordArc], arcs: tuple[ChordArc, ...]) -> None:
    # A dissection's chords are distinct and interned, so equal lengths and
    # equal sets make the two lists equal once sorted.
    if len(chords) != len(arcs) or set(chords) != set(arcs):
        raise QuiverError("vertex order must list exactly the dissection arcs")


def _gentle_quiver(size: int, chords: list[ChordArc], labels: tuple) -> GentleQuiver:
    """The gentle quiver of an admissible dissection's arcs, in vertex
    order, with the given vertex labels.

    Arrows are read off the ends of the arcs, sorted by boundary point and
    then by how far anticlockwise the other endpoint lies: each two ends
    next to each other at one point make an arrow.  Relations are read off
    an index of the arrows by (source, meet point), looked up at (target,
    far end of the middle arc).
    """
    ends = sorted(
        [(c.p, (c.q - c.p) % size, i) for i, c in enumerate(chords)]
        + [(c.q, (c.p - c.q) % size, i) for i, c in enumerate(chords)]
    )
    arrows: list[Arrow] = []
    leaving: dict[tuple[int, int], int] = {}
    for (point, _, i), (next_point, _, j) in zip(ends, ends[1:]):
        if point == next_point:
            leaving[i, point] = len(arrows)
            arrows.append(Arrow(i, j, point))
    relations = set()
    for k, e in enumerate(arrows):
        middle = chords[e.tgt]
        j = leaving.get((e.tgt, middle.q if middle.p == e.meet else middle.p))
        if j is not None:
            relations.add((k, j))
    return GentleQuiver(len(chords), labels, tuple(arrows), frozenset(relations))


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
    binding-arc vertices are sharp.  The input is validated once, by the
    check of ``induced_admissible``, and the vertex order against the
    dissection's own chords.  The quiver is that of the induced dissection,
    read off the extended dissection's own chords on its 2n-point disc:
    the induced one sends position p to 2p, which keeps the cyclic order of
    the positions, so the arrows, their order and the relations are the
    same, and only ``Arrow.meet`` is a position of the smaller disc.
    """
    chords = list(vertex_order) if vertex_order is not None else list(d.all_chords())
    check_induces_admissible(d)
    _check_vertex_order(chords, d.all_chords())
    gentle = _gentle_quiver(2 * d.n, chords, tuple(chords))
    # A binding arc, and no red arc, has one odd (green) endpoint.
    sharp = frozenset(i for i, c in enumerate(chords) if (c.p + c.q) % 2)
    return KeyboardQuiver(gentle, sharp)


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
    # What a product continues from (``product_is_zero``, and the test
    # oracle ``compose``): the irreducible word as blocks, and the first
    # and last arrow of its skeleton (None without arrows).
    blocks: tuple[Block, ...] = field(default=(), compare=False, repr=False)
    first_arrow: int | None = field(default=None, compare=False, repr=False)
    last_arrow: int | None = field(default=None, compare=False, repr=False)
    # Whether the shape is ZERO, set from it when the form is made.  A plain
    # field, not a property, since every product reads it.
    is_zero: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_zero", self.shape is Shape.ZERO)


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

    @cached_property
    def relations(self) -> frozenset[tuple[int, int]]:
        return self.keyboard.gentle.relations

    def has_beta(self, v: int) -> bool:
        return v not in self.sharp

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
    def rules(self) -> dict[tuple[Symbol, ...], tuple[Symbol, ...]]:
        """Left-hand side to right-hand side of every instance of the four
        local rules: inverse loops cancel, a degree -1 loop crosses an arrow,
        a loop pair cancels across one arrow, a degree +1 loop moves along a
        commutation run.  Every left-hand side has two or three symbols and
        starts with a loop."""
        rules: dict[tuple[Symbol, ...], tuple[Symbol, ...]] = {}
        for v in range(self.num_vertices):
            if self.has_beta(v):
                rules[(("a", v), ("b", v))] = rules[(("b", v), ("a", v))] = ()
        for k, e in enumerate(self.arrows):
            d = ("d", k)
            rules[(("a", e.src), d)] = (d, ("a", e.tgt))
            if self.has_beta(e.src):
                rules[(("b", e.src), d, ("a", e.tgt))] = (d,)
        for (start, _), run in self.run_by_start.items():
            path = tuple(("d", a) for a in run)
            rules[(("b", start),) + path] = path + (("b", self.arrows[run[-1]].tgt),)
        return rules

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
        """``json.dumps(self.to_json(), sort_keys=True)``, joined directly: the
        chord labels from ``json_fragment``s, every other value a list of
        ints, whose ``str`` is its JSON text."""
        gentle, vertices = self.keyboard.gentle, list(range(self.num_vertices))
        labels = ", ".join(
            json_fragment(l) if isinstance(l, ChordArc) else json.dumps(l, sort_keys=True)
            for l in gentle.labels
        )
        runs = [[start, list(run), end] for start, run, end in self.beta_runs]
        beta = [v for v in vertices if v not in self.sharp]
        return (
            f'{{"arrows": {[[e.src, e.tgt] for e in gentle.arrows]}, "commutation_runs": {runs}, '
            f'"labels": [{labels}], "loops": {{"alpha": {vertices}, "beta": {beta}}}, '
            f'"relations": {gentle.relation_paths()}, "sharp": {sorted(self.sharp)}, '
            f'"vertices": {vertices}}}'
        )


def piano_from_keyboard(kb: KeyboardQuiver) -> PianoQuiver:
    """Attach the graded loops and instantiate the commutation runs.

    A commutation run is a relation-free arrow path between non-sharp
    vertices whose interior vertices are all sharp; since sharp vertices are
    never adjacent, runs have length one or two.
    """
    runs: list[tuple[int, tuple[int, ...], int]] = []
    arrows, sharp = kb.gentle.arrows, kb.sharp
    for i, (src, mid, _) in enumerate(arrows):
        if src in sharp:
            continue
        if mid not in sharp:
            runs.append((src, (i,), mid))
            continue
        for j, f in enumerate(arrows):
            if f.src == mid and f.tgt not in sharp and (i, j) not in kb.gentle.relations:
                runs.append((src, (i, j), f.tgt))
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


def skeleton_dead(p: PianoQuiver, word: tuple[Symbol, ...]) -> bool:
    skeleton = [k for tag, k in word if tag == "d"]
    return any((a, b) in p.relations for a, b in zip(skeleton, skeleton[1:]))


def one_step_rewrites(
    p: PianoQuiver, word: tuple[Symbol, ...]
) -> list[tuple[Symbol, ...] | None]:
    """All single applications of a rewrite rule; None stands for zero.

    The skeleton rule collapses any word whose arrow skeleton meets a
    length-two relation; the four local rules are the instances of
    ``PianoQuiver.rules``, matched at every position that holds a loop.  A
    match never runs past the end of the word.
    """
    out: list[tuple[Symbol, ...] | None] = [None] if skeleton_dead(p, word) else []
    rules = p.rules
    for i in range(len(word) - 1):
        if word[i][0] == "d":
            continue  # every left-hand side starts with a loop
        for end in range(i + 2, min(i + 3, len(word)) + 1):
            rhs = rules.get(word[i:end])
            if rhs is not None:
                out.append(word[:i] + rhs + word[end:])
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
    adjacent loops into blocks; ``_reduce_blocks`` then applies the four
    local rules (``PianoQuiver.rules``) in a single left-to-right stack
    pass.  That is one particular rewrite order; ``verify confluence``
    proves the system confluent by critical pairs, so it reaches the word
    every order reaches, and ``confluence.all_terminals``, which follows
    every order, is the oracle it is tested against.
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


def product_row(
    p: PianoQuiver, junction: tuple[bool, int | None], rights: Iterable[tuple[bool, int | None]]
) -> tuple[bool, ...]:
    """Whether the product of a left normal form, given by its junction
    (is_zero, last_arrow), with each right one, given by (is_zero,
    first_arrow), is nonzero.  Both are irreducible and no rule but the
    skeleton rule yields zero, so a product is zero exactly when one of the
    two is zero or the last arrow of the left and the first arrow of the
    right form a relation.  Both halves are needed: a zero form has no
    arrows, so the relation lookup alone would read it as nonzero.
    """
    left_zero, last = junction
    relations = p.relations
    return tuple(
        not (left_zero or right_zero or (last, first) in relations) for right_zero, first in rights
    )


def product_is_zero(p: PianoQuiver, u: PathNormalForm, v: PathNormalForm) -> bool:
    """Whether the product ``u`` then ``v`` of two composable normal forms is
    zero: the one-cell case of ``product_row``.  The full product is the
    test oracle ``compose`` (``tests/quiver_oracle.py``)."""
    return not product_row(p, (u.is_zero, u.last_arrow), ((v.is_zero, v.first_arrow),))[0]


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
    default an empty one; the test oracle ``compose`` starts from an
    irreducible word).  Every pattern of the rules is contiguous, so a push
    can only create a redex that ends at the top: a degree -1 block followed
    by the new arrow, a degree +1 block followed by the arrows of a
    commutation run, an inverse loop block, or a degree +1 block, one arrow
    and the new degree -1 block.
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


def graded_row(p: PianoQuiver, a: int, b: int, degrees: range) -> tuple[int, ...]:
    """Dimensions (0 or 1) of the pieces of paths from a to b in the degrees
    of a step-one range: ones, zeros, or at a sharp vertex to itself ones
    up to degree 0 only."""
    if a == b and not p.has_beta(a):
        low = len(range(degrees.start, min(degrees.stop, 1)))
        return (1,) * low + (0,) * (len(degrees) - low)
    return (1 if a == b or (a, b) in p.arrow_paths else 0,) * len(degrees)


def graded_dim(p: PianoQuiver, a: int, b: int, m: int) -> int:
    """Dimension (0 or 1) of the degree-m piece of paths from a to b."""
    return graded_row(p, a, b, range(m, m + 1))[0]


def canonical_word(p: PianoQuiver, a: int, b: int, m: int) -> tuple[Symbol, ...] | None:
    """A representative word of the class (a, b, m), or None when the class is zero."""
    if graded_dim(p, a, b, m) != 1:
        return None
    if a == b:
        if m <= 0:
            return (("a", a),) * -m
        return (("b", a),) * m
    path = arrow_path(p, a, b)
    assert path is not None
    deltas = tuple(("d", k) for k in path)
    if m == 0:
        return deltas
    if m < 0:
        return deltas + (("a", b),) * -m
    if p.has_beta(b):
        return deltas + (("b", b),) * m
    park = p.arrows[path[-1]].src
    return deltas[:-1] + (("b", park),) * m + deltas[-1:]


# What a product reads of a class's normal form: zero or not, the first and
# last arrow of its skeleton (None without arrows), and its reduced blocks.
ClassEnds = tuple[bool, int | None, int | None, tuple[Block, ...]]


def class_ends(
    p: PianoQuiver, a: int, b: int, degrees: Iterable[int]
) -> list[ClassEnds | QuiverError]:
    """``ClassEnds`` of ``normal_form(p, canonical_word(p, a, b, m), base=a)``
    for each degree m of a nonzero class from a to b (a pair that has some).

    The arrow path, the parked loop and each arrow prefix (README) are
    worked out once; each class pushes its loop block, and the parked
    arrow, onto a copy of its prefix's reduced stack (``_reduce_blocks``)
    and reads its ends off the result.  The skeleton dies at the junction
    when the prefix's last arrow and the parked arrow form a relation.  A
    class whose word uses a loop the piano lacks (a degree +1 loop at a
    sharp vertex) gets the ``QuiverError`` its full word raises.
    """
    path = arrow_path(p, a, b)
    # Positive degrees into a sharp vertex park their loop before the last arrow.
    parked = a != b and not p.has_beta(b)
    rise = ("b", p.arrows[path[-1]].src if parked else b)
    # Per prefix length: its normal form, a dead junction, the blocks after the loop.
    heads: dict[int, tuple[PathNormalForm, bool, list[Block]]] = {}
    out: list[ClassEnds | QuiverError] = []
    for m in degrees:
        cut = len(path) - (parked and m > 0)
        if cut not in heads:
            head = normal_form(p, tuple(("d", k) for k in path[:cut]), base=a)
            dead = head.is_zero or (cut < len(path) and (head.last_arrow, path[-1]) in p.relations)
            heads[cut] = (head, dead, [("d", k, 1) for k in path[cut:]])
        head, dead, parked_arrow = heads[cut]
        if not m:
            out.append((head.is_zero, head.first_arrow, head.last_arrow, head.blocks))
        elif m > 0 and rise not in p.symbol_table:
            try:
                normal_form(p, canonical_word(p, a, b, m), base=a)  # raises, naming the loop
            except QuiverError as err:
                out.append(err)
        elif dead:
            out.append((True, None, None, ()))
        else:
            loop = (*rise, m) if m > 0 else ("a", b, -m)
            stack = _reduce_blocks(p, [loop, *parked_arrow], list(head.blocks))
            skeleton = [k for tag, k, _ in stack if tag == "d"] or [None]
            out.append((False, skeleton[0], skeleton[-1], tuple(stack)))
    return out


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

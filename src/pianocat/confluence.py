"""Exhaustive rewriting exploration: confluence and the path-counting oracle.

``all_terminals`` follows every applicable rule from a word and collects the
set of irreducible results (None stands for zero); the system is confluent
on a word when that set is a singleton.  ``enumerate_composable_words``
walks the symbol graph to feed the explorer and the dimension oracle.
"""

from __future__ import annotations

from typing import Iterator

from .quivers import PianoQuiver, Symbol, one_step_rewrites

Terminal = tuple[Symbol, ...] | None


def all_terminals(
    p: PianoQuiver,
    word: tuple[Symbol, ...],
    cache: dict[tuple[Symbol, ...], frozenset[Terminal]] | None = None,
) -> frozenset[Terminal]:
    if cache is None:
        cache = {}
    if word in cache:
        return cache[word]
    # Rewriting strictly decreases (length, loops-left-of-arrows), so the
    # recursion terminates without a cycle guard.
    steps = one_step_rewrites(p, word)
    if not steps:
        result = frozenset([word])
    else:
        collected: set[Terminal] = set()
        for nxt in steps:
            if nxt is None:
                collected.add(None)
            else:
                collected |= all_terminals(p, nxt, cache)
        result = frozenset(collected)
    cache[word] = result
    return result


def _symbols_from(p: PianoQuiver, v: int) -> list[Symbol]:
    out: list[Symbol] = [("a", v)]
    if p.has_beta(v):
        out.append(("b", v))
    for k, e in enumerate(p.arrows):
        if e.src == v:
            out.append(("d", k))
    return out


def enumerate_composable_words(
    p: PianoQuiver, max_length: int
) -> Iterator[tuple[Symbol, ...]]:
    """All nonempty composable words of length at most ``max_length``."""

    def extend(word: tuple[Symbol, ...], at: int, remaining: int) -> Iterator:
        for s in _symbols_from(p, at):
            nxt = word + (s,)
            yield nxt
            if remaining > 1:
                yield from extend(nxt, p.symbol_table[s][1], remaining - 1)

    for v in range(p.num_vertices):
        yield from extend((), v, max_length)


def confluence_report(
    p: PianoQuiver, max_length: int
) -> tuple[bool, tuple[Symbol, ...] | None]:
    """Check that every word up to the length cap has a unique terminal."""
    cache: dict[tuple[Symbol, ...], frozenset[Terminal]] = {}
    for word in enumerate_composable_words(p, max_length):
        if len(all_terminals(p, word, cache)) != 1:
            return False, word
    return True, None

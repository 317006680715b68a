"""The bounded rewriting explorer, kept as a test oracle.

``enumerate_composable_words`` walks the symbol graph of a piano;
``confluence_report`` asks ``confluence.all_terminals`` whether every word
up to a length cap has a unique terminal.  The critical-pair check of
``confluence.critical_pair_report`` covers words of every length and is
tested against this explorer; the dimension oracles enumerate paths with it.
"""

from __future__ import annotations

from typing import Iterator

from pianocat.confluence import Terminal, Word, all_terminals
from pianocat.quivers import PianoQuiver, Symbol


def enumerate_composable_words(p: PianoQuiver, max_length: int) -> Iterator[Word]:
    """All nonempty composable words of length at most ``max_length``."""
    steps: dict[int, list[tuple[Symbol, int]]] = {v: [] for v in range(p.num_vertices)}
    for s, (source, target, _) in p.symbol_table.items():
        steps[source].append((s, target))

    def extend(word: Word, at: int, remaining: int) -> Iterator[Word]:
        for s, target in steps[at]:
            nxt = word + (s,)
            yield nxt
            if remaining > 1:
                yield from extend(nxt, target, remaining - 1)

    for v in range(p.num_vertices):
        yield from extend((), v, max_length)


def confluence_report(p: PianoQuiver, max_length: int) -> tuple[bool, Word | None]:
    """Check that every word up to the length cap has a unique terminal."""
    cache: dict[Word, frozenset[Terminal]] = {}
    for word in enumerate_composable_words(p, max_length):
        if len(all_terminals(p, word, cache)) != 1:
            return False, word
    return True, None

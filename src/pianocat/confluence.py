"""Confluence of the piano rewriting system on words of every length, by critical pairs.

The four local rules are the instances of ``PianoQuiver.rules``, of two or
three symbols each, which ``quivers.one_step_rewrites`` also applies.  Each
keeps the arrow skeleton and lowers (length, loops left of arrows), so
rewriting terminates, and by Newman's lemma (1942) local confluence
suffices.  The fifth rule sends a dead word (skeleton meets a relation) to
zero, its only terminal, since no rule revives it; a factor of a live word
is live.  So by the critical-pair lemma (Knuth-Bendix 1970; Book-Otto 1993)
it is enough that ``critical_pair_report`` joins the two reducts of every
live overlap of two instances, a word of at most five symbols.
``all_terminals`` follows every rule from a word to its irreducible results
(None is zero); it decides joinability and is the oracle
``quivers.normal_form`` is tested on.
"""

from __future__ import annotations

from itertools import combinations

from .quivers import PianoQuiver, Symbol, one_step_rewrites, skeleton_dead

Word = tuple[Symbol, ...]
Terminal = Word | None


def all_terminals(
    p: PianoQuiver, word: Word, cache: dict[Word, frozenset[Terminal]] | None = None
) -> frozenset[Terminal]:
    if cache is None:
        cache = {}
    if word not in cache:
        # Rewriting terminates (``critical_pair_report`` checks it), so the
        # recursion needs no cycle guard.
        steps = one_step_rewrites(p, word)
        found = [{None} if s is None else all_terminals(p, s, cache) for s in steps]
        cache[word] = frozenset().union(*found) if steps else frozenset([word])
    return cache[word]


def _skeleton_and_measure(word: Word) -> tuple[Word, tuple[int, int]]:
    """The arrow skeleton and (length, loops left of arrows)."""
    loops_left = sum(s[0] != "d" and t[0] == "d" for s, t in combinations(word, 2))
    return tuple(s for s in word if s[0] == "d"), (len(word), loops_left)


def critical_pair_report(p: PianoQuiver) -> tuple[bool, tuple[Word, Word] | None]:
    """Whether the rewriting system of ``p`` is confluent on every word, with
    a witness if not: an instance (left, right) that changes the skeleton or
    does not lower the measure (with the skeleton kept, lower stays lower in
    any context), or the reducts of a live overlap with no common terminal."""
    rules = p.rules
    for lhs, rhs in rules.items():
        (skeleton, before), (kept, after) = map(_skeleton_and_measure, (lhs, rhs))
        if kept != skeleton or after >= before:
            return False, (lhs, rhs)
    by_first: dict[Symbol, list[Word]] = {}
    for lhs in rules:
        by_first.setdefault(lhs[0], []).append(lhs)
    cache: dict[Word, frozenset[Terminal]] = {}
    for left, left_rhs in rules.items():
        # ``right`` starts at offset j of ``left`` and overlaps its suffix or sits inside it.
        for j in range(len(left)):
            for right in by_first.get(left[j], ()):
                shared = min(len(left) - j, len(right))
                if (j == 0 and right == left) or left[j : j + shared] != right[:shared]:
                    continue
                word = left + right[shared:]
                if skeleton_dead(p, word):
                    continue
                first = left_rhs + word[len(left) :]
                second = word[:j] + rules[right] + word[j + len(right) :]
                if not all_terminals(p, first, cache) & all_terminals(p, second, cache):
                    return False, (first, second)
    return True, None

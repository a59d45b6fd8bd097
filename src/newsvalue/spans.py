"""Character-span bookkeeping for phrase matchers and maskers."""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def select_spans(candidates: Sequence[tuple[int, int, Any]]) -> list[tuple[int, int, Any]]:
    """Resolve overlapping (start, end, payload) candidates.

    Longest span wins, then leftmost, then original submission order.
    Returns the surviving spans sorted by start offset.
    """
    ranked = sorted(
        range(len(candidates)),
        key=lambda i: (-(candidates[i][1] - candidates[i][0]), candidates[i][0], i),
    )
    kept: list[tuple[int, int, Any]] = []
    for i in ranked:
        start, end, payload = candidates[i]
        if end <= start:
            continue
        if any(start < k_end and k_start < end for k_start, k_end, _ in kept):
            continue
        kept.append((start, end, payload))
    kept.sort(key=lambda s: s[0])
    return kept


class PhraseTable:
    """Phrase sets (token tuple -> payload) in one token trie, the keyword
    trie of Aho & Corasick (1975) walked from every token. Each set keeps
    its own greedy longest match: a hit consumes tokens only within its set.
    """

    def __init__(self, sets: Sequence[Mapping[tuple[str, ...], Any]]):
        self._root: dict = {}
        for slot, phrases in enumerate(sets):
            for toks, payload in phrases.items():
                node = self._root
                for tok in toks:
                    node = node.setdefault(tok, {})
                node.setdefault(None, []).append((slot, payload))  # tokens are never None
        self._sets = len(sets)

    def matches(self, tokens: Sequence[str]) -> list[list[tuple[int, int, Any]]]:
        """Per set, its (first token, end token, payload) hits in token order."""
        out: list[list[tuple[int, int, Any]]] = [[] for _ in range(self._sets)]
        free = [0] * self._sets  # per set, the first token its hits left unconsumed
        n = len(tokens)
        for i, tok in enumerate(tokens):
            node = self._root.get(tok)
            if node is None:
                continue
            ends = []
            j = i + 1
            while node is not None:
                if None in node:
                    ends.append((j, node[None]))
                node = node.get(tokens[j]) if j < n else None
                j += 1
            for j, entries in reversed(ends):
                for slot, payload in entries:
                    if free[slot] <= i:
                        out[slot].append((i, j, payload))
                        free[slot] = j
        return out

    def spans(self, toks: Sequence[tuple[str, int, int]]) -> list[tuple[int, int, Any]]:
        """matches() over token_spans() output as character spans, set by set."""
        hits = self.matches([tok for tok, _, _ in toks])
        return [(toks[i][1], toks[j - 1][2], p) for per_set in hits for i, j, p in per_set]

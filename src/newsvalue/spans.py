"""Character-span bookkeeping for phrase matchers and maskers."""

from __future__ import annotations

from typing import Any, Sequence

from .textvec import token_spans


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


def phrase_matches(
    tokens: Sequence[str], phrases: dict[tuple[str, ...], Any], max_len: int
) -> list[tuple[int, int, Any]]:
    """Greedy longest-match scan of a token sequence against token-tuple
    phrases: (first token, end token, payload) per hit, in token order.

    A hit consumes its tokens, so hits never overlap.
    """
    out: list[tuple[int, int, Any]] = []
    i, n = 0, len(tokens)
    while i < n:
        for length in range(min(max_len, n - i), 0, -1):
            cand = tuple(tokens[i : i + length])
            if cand in phrases:
                out.append((i, i + length, phrases[cand]))
                i += length
                break
        else:
            i += 1
    return out


def phrase_spans(
    text: str, phrases: dict[tuple[str, ...], Any], max_len: int
) -> list[tuple[int, int, Any]]:
    """phrase_matches over the tokenized text, as character spans.

    Matches may cross punctuation (tokens need only be consecutive). Spans
    index into the original text and never overlap.
    """
    toks = token_spans(text)
    hits = phrase_matches([tok for tok, _, _ in toks], phrases, max_len)
    return [(toks[i][1], toks[j - 1][2], payload) for i, j, payload in hits]

"""Noisy distant labeling against global wire headlines.

A report is "globally reported" when some headline published in the 24
hours after it clears the cosine threshold. Taxonomy and pattern spans are
masked with their feature names on both sides first, so the label never
leaks raw taxonomy tokens into the features. Reports matching only earlier
headlines are tardy (the story had already broken) and stay unmatched.
One propagation pass then links near-duplicate unmatched reports to
matched ones, and undersampling trims the negatives to a fixed ratio.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from datetime import date, datetime, timezone
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import DegenerateLabels
from .impact import default_address_terms, default_human_impact_terms, default_site_terms
from .records import Headline, LabeledExample, Post
from .scope import TextAnalysis, default_fire_causes, default_scale_lexicon
from .spans import PhraseTable, select_spans
from .textvec import SparseVector, cosine, fit_tfidf, tokenize, vectorize

MATCH_WINDOW_SECONDS = 86400

MATCHED = "matched"
UNMATCHED = "unmatched"
TARDY = "tardy"


@lru_cache(maxsize=None)
def default_mask_rules() -> PhraseTable:
    """One phrase table over every shipped taxonomy, each phrase set
    under its feature name; masking adds the scope-pattern spans."""
    named = (
        ("scope_scale_adj", default_scale_lexicon()),
        ("scope_fire_cause", default_fire_causes()),
        ("impact_human_term", default_human_impact_terms()),
        ("impact_address_term", default_address_terms()),
        ("impact_site_term", default_site_terms()),
    )
    return PhraseTable([dict.fromkeys(tax.token_phrases, name) for name, tax in named])


def _claimed_spans(a: TextAnalysis, rules: PhraseTable) -> list[tuple[int, int, str]]:
    """Spans the scope patterns and each taxonomy claim, longest then leftmost;
    ties go to the pattern spans, then to the taxonomies in rule order."""
    return select_spans(a.pattern_spans + rules.spans(a.spans))


def masked_text(a: TextAnalysis) -> str:
    """Replace every claimed span with its feature-name token."""
    out = a.text
    for start, end, name in reversed(_claimed_spans(a, default_mask_rules())):
        out = out[:start] + name + out[end:]
    return out


def mask_taxonomy_tokens(text: str) -> str:
    return masked_text(TextAnalysis(text))


@dataclass(frozen=True)
class MatchResult:
    """Labeling outcome for one post."""

    post_id: str
    status: str  # matched | unmatched | tardy
    best_headline: Optional[int] = None
    best_score: float = 0.0
    via_link: bool = False


class TermTimeIndex:
    """Timestamped vectors sorted by time, with term -> rank postings.

    A vector sharing no term with a query scores exactly 0.0 under
    cosine(), and a 0.0 never replaces an initial best of 0.0 under a
    strict >. So scoring only the items that share a term, in their
    original order, finds the same best score and item as scoring all of
    them (the all-pairs candidate pruning of Bayardo, Ma & Srikant, 2007).
    """

    def __init__(self, times: Sequence[int], vectors: Sequence[SparseVector]):
        self.vectors = list(vectors)
        self._order = sorted(range(len(self.vectors)), key=times.__getitem__)
        self._times = [times[i] for i in self._order]
        self._postings: dict[str, list[int]] = {}
        for rank, i in enumerate(self._order):
            for term in self.vectors[i].entries:
                self._postings.setdefault(term, []).append(rank)

    def candidates(self, terms: Iterable[str], after: float, until: float) -> list[int]:
        """Ascending indices of the items with after < time <= until that
        hold one of terms."""
        lo = bisect_right(self._times, after)
        hi = bisect_right(self._times, until)
        ranks: set[int] = set()
        if lo < hi:
            for term in terms:
                posting = self._postings.get(term)
                if posting:
                    ranks.update(posting[bisect_left(posting, lo) : bisect_left(posting, hi)])
        return sorted(self._order[r] for r in ranks)


def _probe_terms(v: SparseVector, threshold: float) -> list[str]:
    """Terms of v that every vector scoring at least threshold against v
    holds one of (the prefix filter of Bayardo, Ma & Srikant, 2007).

    The lightest terms are left out while their squared weights stay under
    threshold**2 of v's squared norm. By Cauchy-Schwarz a vector holding
    none of the rest scores below threshold; the 1e-9 margin keeps that
    true under float rounding. A threshold of 0 (or NaN) keeps every term.
    """
    limit = (max(threshold, 0.0) * v.norm) ** 2 * (1.0 - 1e-9)
    items = sorted(v.entries.items(), key=lambda item: item[1])
    light = 0.0
    for cut, (_, weight) in enumerate(items):
        light += weight * weight
        if not light < limit:
            return [term for term, _ in items[cut:]]
    return []


def _best_headline(
    v: SparseVector, index: TermTimeIndex, candidates: list[int]
) -> tuple[float, Optional[int]]:
    best: tuple[float, Optional[int]] = (0.0, None)
    for idx in candidates:
        score = cosine(v, index.vectors[idx])
        if score > best[0]:
            best = (score, idx)
    return best


def match_to_headlines(
    post: Post, vector: SparseVector, index: TermTimeIndex, threshold: float
) -> MatchResult:
    """Match one post against the headlines by their masked texts' vectors.

    Matched: a headline published in (t, t+86400] clears the threshold.
    Tardy: only headlines at or before t clear it. Otherwise unmatched.
    Only a scored headline (score > 0) can clear it, so a matched or
    tardy post always has a best_headline, whatever the threshold.
    best_score is the best in-window score (the best earlier score for
    tardy posts).

    Scored are the in-window headlines sharing a term with the post and,
    only when none of them clears the threshold, the earlier headlines
    that could: those holding one of the post's probe terms. vector is the
    tf.idf vector of the post's masked text and index holds the headline
    vectors by publication time.
    """
    t = post.created_at
    window = index.candidates(vector.entries, t, t + MATCH_WINDOW_SECONDS)
    after = _best_headline(vector, index, window)
    if after[1] is not None and after[0] >= threshold:
        return MatchResult(post.post_id, MATCHED, after[1], after[0])
    earlier = index.candidates(_probe_terms(vector, threshold), -math.inf, t)
    before = _best_headline(vector, index, earlier)
    if before[1] is not None and before[0] >= threshold:
        return MatchResult(post.post_id, TARDY, before[1], before[0])
    return MatchResult(post.post_id, UNMATCHED, after[1], after[0])


def _utc_date(ts: int) -> date:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date()


def propagate_links(
    results: Sequence[MatchResult],
    posts: Sequence[Post],
    vectors: dict[str, SparseVector],
    link_threshold: float,
    same_user_threshold: float,
) -> list[MatchResult]:
    """One linking pass from the frozen first-pass matched set.

    An unmatched (or tardy) post joins the matched set when it is similar
    enough to a first-pass matched post from strictly later the same UTC
    day; the threshold drops for matched posts by the same author. Never
    unmatches anything; runs exactly once to avoid long-tail error chains.
    Matched posts are indexed per UTC day, and only those holding one of
    the post's probe terms for the lower threshold are scored. vectors
    maps each post id to its tf.idf vector.
    """
    by_id = {p.post_id: p for p in posts}
    days = {pid: _utc_date(p.created_at) for pid, p in by_id.items()}
    matched_by_day: dict[date, list[Post]] = {}
    for r in results:
        if r.status == MATCHED and r.post_id in by_id:
            matched_by_day.setdefault(days[r.post_id], []).append(by_id[r.post_id])
    day_index = {
        day: (matched, TermTimeIndex(
            [m.created_at for m in matched], [vectors[m.post_id] for m in matched]
        ))
        for day, matched in matched_by_day.items()
    }
    min_threshold = min(link_threshold, same_user_threshold)
    out = []
    for r in results:
        post = by_id.get(r.post_id)
        if r.status == MATCHED or post is None or days[post.post_id] not in day_index:
            out.append(r)
            continue
        matched, index = day_index[days[post.post_id]]
        v = vectors[post.post_id]
        best_link = 0.0
        for i in index.candidates(_probe_terms(v, min_threshold), post.created_at, math.inf):
            other = matched[i]
            threshold = (
                same_user_threshold if other.user_id == post.user_id else link_threshold
            )
            score = cosine(v, index.vectors[i])
            if score >= threshold and score > best_link:
                best_link = score
        if best_link > 0.0:
            out.append(
                replace(
                    r,
                    status=MATCHED,
                    via_link=True,
                    best_score=max(r.best_score, best_link),
                )
            )
        else:
            out.append(r)
    return out


def undersample(
    examples: Sequence[LabeledExample], ratio: int, seed: int
) -> list[LabeledExample]:
    """Keep every matched example; sample the unmatched down to ratio x matched."""
    matched_idx = [i for i, e in enumerate(examples) if e.label]
    unmatched_idx = [i for i, e in enumerate(examples) if not e.label]
    if not matched_idx:
        raise DegenerateLabels("undersample needs at least one matched example")
    cap = ratio * len(matched_idx)
    if len(unmatched_idx) > cap:
        rng = random.Random(seed)
        unmatched_idx = sorted(rng.sample(unmatched_idx, cap))
    keep = sorted(matched_idx + unmatched_idx)
    return [examples[i] for i in keep]


@dataclass
class LabelingRun:
    """Everything one labeling pass produced, plus its counters."""

    results: list[MatchResult]
    stats: dict[str, int]


def label_corpus(
    posts: Sequence[Post],
    headlines: Sequence[Headline],
    threshold: float,
    link_threshold: float,
    same_user_threshold: float,
) -> LabelingRun:
    """Mask both sides, fit one shared tf.idf vocabulary, match, propagate.
    Each masked text is tokenized once and vectorized once."""
    documents = [(f"post:{p.post_id}", tokenize(mask_taxonomy_tokens(p.text))) for p in posts]
    documents += [
        (f"headline:{i}", tokenize(mask_taxonomy_tokens(h.text))) for i, h in enumerate(headlines)
    ]
    tfidf = fit_tfidf(documents)
    vectors = [vectorize(tokens, tfidf) for _, tokens in documents]  # posts, then headlines
    index = TermTimeIndex([h.published_at for h in headlines], vectors[len(posts) :])
    first_pass = [match_to_headlines(p, v, index, threshold) for p, v in zip(posts, vectors)]
    final = propagate_links(
        first_pass, posts, {p.post_id: v for p, v in zip(posts, vectors)},
        link_threshold, same_user_threshold,
    )
    stats = {
        "posts": len(posts),
        "matched_direct": sum(1 for r in first_pass if r.status == MATCHED),
        "matched": sum(1 for r in final if r.status == MATCHED),
        "tardy": sum(1 for r in final if r.status == TARDY),
        "unmatched": sum(1 for r in final if r.status == UNMATCHED),
    }
    stats["via_link"] = stats["matched"] - stats["matched_direct"]
    return LabelingRun(results=final, stats=stats)

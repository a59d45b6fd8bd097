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

import random
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DegenerateLabels
from .records import Headline, LabeledExample, Post
from .scope import TextAnalysis, lexicon
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
        ("scope_scale_adj", "scale_adjectives"),
        ("scope_fire_cause", "fire_causes"),
        ("impact_human_term", "human_impact_terms"),
        ("impact_address_term", "address_terms"),
        ("impact_site_term", "site_terms"),
    )
    return PhraseTable([dict.fromkeys(lexicon(tax).token_phrases, name) for name, tax in named])


def _claimed_spans(a: TextAnalysis, rules: PhraseTable) -> list[tuple[int, int, str]]:
    """Spans the scope patterns and each taxonomy claim, longest then leftmost;
    ties go to the pattern spans, then to the taxonomies in rule order.
    The taxonomies walk the token strings, and offsets are built only
    for a hit, or first where there are pattern spans (which extract's
    numeric-phrase context reads), so that `words` is read from them."""
    pattern = a.pattern_spans
    toks = a.spans if pattern else None
    hits = [hit for per_set in rules.matches(a.words) for hit in per_set]
    if not hits:
        return pattern
    if toks is None:
        toks = a.spans
    return select_spans(pattern + [(toks[i][1], toks[j - 1][2], p) for i, j, p in hits])


def masked_tokens(a: TextAnalysis) -> list[str]:
    """The tokens of the text with every claimed span replaced by its
    feature-name token: the text's own tokens when nothing is claimed."""
    claimed = _claimed_spans(a, default_mask_rules())
    if not claimed:
        return a.tokens
    text = a.text
    for start, end, name in reversed(claimed):
        text = text[:start] + name + text[end:]
    return tokenize(text)


def mask_taxonomy_tokens(text: str) -> list[str]:
    """The tokens of the text with its taxonomy and pattern spans masked."""
    return masked_tokens(TextAnalysis(text))


class MatchResult(NamedTuple):
    """Labeling outcome for one post."""

    post_id: str
    status: str  # matched | unmatched | tardy
    best_headline: Optional[int] = None
    best_score: float = 0.0
    via_link: bool = False


# A sum accumulated term by term differs from cosine() of the same pair
# only by float rounding, a few ulps per shared term, far below this margin.
RECHECK_MARGIN = 1e-9


class TermTimeIndex:
    """Timestamped vectors sorted by time, with term -> rank postings, the
    term's weight in each of those vectors next to them, and the inverse
    norm of each vector by rank.

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
        self._inverse_norms = [
            1.0 / self.vectors[i].norm if self.vectors[i].norm else 0.0 for i in self._order
        ]
        self._postings: dict[str, list[int]] = {}
        self._weights: dict[str, list[float]] = {}
        for rank, i in enumerate(self._order):
            for term, weight in self.vectors[i].entries.items():
                self._postings.setdefault(term, []).append(rank)
                self._weights.setdefault(term, []).append(weight)

    def candidates(self, terms: Iterable[str], until: float) -> list[int]:
        """Ascending indices of the items with time <= until that hold one
        of terms."""
        hi = bisect_right(self._times, until)
        ranks: set[int] = set()
        for term in terms:
            posting = self._postings.get(term)
            if posting:
                ranks.update(posting[: bisect_left(posting, hi)])
        return sorted(self._order[r] for r in ranks)

    def _sums(self, v: SparseVector, after: float, until: float) -> dict[int, float]:
        """Index -> cosine with v, summed term at a time over the postings
        (Turtle & Flood, 1995), of each item with after < time <= until
        that shares a term with v. Each sum is within RECHECK_MARGIN of
        cosine(), which rechecks the items near a deciding value."""
        lo = bisect_right(self._times, after)
        hi = bisect_right(self._times, until)
        sums: dict[int, float] = {}
        norm = v.norm
        if lo < hi and norm:
            postings, weights = self._postings, self._weights
            for term, weight in v.entries.items():
                ranks = postings.get(term)
                if ranks:
                    start = bisect_left(ranks, lo)
                    stop = bisect_left(ranks, hi, start)
                    if start < stop:
                        share = weight / norm
                        for rank, w in zip(ranks[start:stop], weights[term][start:stop]):
                            sums[rank] = sums.get(rank, 0.0) + share * w
        order, inverse_norms = self._order, self._inverse_norms
        return {order[rank]: s * inverse_norms[rank] for rank, s in sums.items()}


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


def _best_in_window(
    v: SparseVector, index: TermTimeIndex, after: float, until: float
) -> tuple[float, Optional[int]]:
    """_best_headline over the items of the window sharing a term with v,
    scoring with cosine() only those whose sum is within RECHECK_MARGIN of
    the top sum: every exact maximum is among them."""
    sums = index._sums(v, after, until)
    if not sums:
        return (0.0, None)
    cut = max(sums.values()) - RECHECK_MARGIN
    return _best_headline(v, index, sorted(i for i, s in sums.items() if s >= cut))


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

    In the window, the headlines sharing a term with the post are summed
    term at a time and the few near the top sum are scored. Only when the
    best of them does not clear the threshold are the earlier headlines
    scored that could: those holding one of the post's probe terms.
    vector is the tf.idf vector of the post's masked text and index holds
    the headline vectors by publication time.
    """
    t = post.created_at
    after = _best_in_window(vector, index, t, t + MATCH_WINDOW_SECONDS)
    if after[1] is not None and after[0] >= threshold:
        return MatchResult(post.post_id, MATCHED, after[1], after[0])
    earlier = index.candidates(_probe_terms(vector, threshold), t)
    before = _best_headline(vector, index, earlier)
    if before[1] is not None and before[0] >= threshold:
        return MatchResult(post.post_id, TARDY, before[1], before[0])
    return MatchResult(post.post_id, UNMATCHED, after[1], after[0])


def propagate_links(
    results: Sequence[MatchResult],
    posts: Sequence[Post],
    vectors: Sequence[SparseVector],
    link_threshold: float,
    same_user_threshold: float,
) -> list[MatchResult]:
    """One linking pass from the frozen first-pass matched set.

    An unmatched (or tardy) post joins the matched set when it is similar
    enough to a first-pass matched post from strictly later the same UTC
    day; the threshold drops for matched posts by the same author. Never
    unmatches anything; runs exactly once to avoid long-tail error chains.
    Matched posts are indexed once by time; those in the rest of the
    post's UTC day sharing a term with it are summed term at a time, and
    only those whose sum is within RECHECK_MARGIN of their own threshold
    are scored, so every pair that clears it is. results, posts and their
    tf.idf vectors are aligned: the i-th of each is one post.
    """
    rows = list(zip(results, posts, vectors, strict=True))
    matched = [(p, v) for r, p, v in rows if r.status == MATCHED]
    index = TermTimeIndex([p.created_at for p, _ in matched], [v for _, v in matched])
    out = []
    for r, post, v in rows:
        if r.status == MATCHED:
            out.append(r)
            continue
        t = post.created_at
        best_link = 0.0
        # POSIX time has no leap seconds, so a UTC day starts at a multiple
        # of 86400; % floors, also before 1970.
        for i, approx in index._sums(v, t, t - t % 86400 + 86399).items():
            threshold = (
                same_user_threshold if matched[i][0].user_id == post.user_id else link_threshold
            )
            if approx >= threshold - RECHECK_MARGIN:
                score = cosine(v, index.vectors[i])
                if score >= threshold and score > best_link:
                    best_link = score
        if best_link > 0.0:
            out.append(
                r._replace(status=MATCHED, via_link=True, best_score=max(r.best_score, best_link))
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


def label_corpus(
    posts: Sequence[Post],
    headlines: Sequence[Headline],
    threshold: float,
    link_threshold: float,
    same_user_threshold: float,
) -> tuple[list[MatchResult], dict[str, int]]:
    """Mask both sides, fit one shared tf.idf vocabulary, match, propagate;
    returns (one result per post, counters). Each text is masked once, its
    masked tokens take at most one tokenize (none when nothing is claimed
    and the text's own tokens serve), and each is vectorized once."""
    documents = [mask_taxonomy_tokens(p.text) for p in posts]
    documents += [mask_taxonomy_tokens(h.text) for h in headlines]
    tfidf = fit_tfidf(documents)
    vectors = [vectorize(tokens, tfidf) for tokens in documents]  # posts, then headlines
    index = TermTimeIndex([h.published_at for h in headlines], vectors[len(posts) :])
    first_pass = [match_to_headlines(p, v, index, threshold) for p, v in zip(posts, vectors)]
    final = propagate_links(
        first_pass, posts, vectors[: len(posts)], link_threshold, same_user_threshold
    )
    stats = {
        "matched_direct": sum(1 for r in first_pass if r.status == MATCHED),
        "matched": sum(1 for r in final if r.status == MATCHED),
        "tardy": sum(1 for r in final if r.status == TARDY),
        "unmatched": sum(1 for r in final if r.status == UNMATCHED),
    }
    stats["via_link"] = stats["matched"] - stats["matched_direct"]
    return final, stats

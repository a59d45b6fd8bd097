"""The time-windowed, term-indexed labeling against an all-pairs reference.

match_to_headlines and propagate_links score only candidates that share a
term with the post inside the relevant time range. These properties check
that their results equal a brute-force scan of every pair, float for
float, on corpora built to hit the edges: score ties between duplicate
headlines, timestamps on the window boundaries, same-author links, posts
on both sides of a UTC midnight, and texts that are empty or mask away
entirely.
"""

from __future__ import annotations

import random
from dataclasses import replace
from datetime import datetime, timezone

from conftest import match_one, propagate
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvalue import labeling
from newsvalue.labeling import (
    MATCH_WINDOW_SECONDS,
    MATCHED,
    TARDY,
    UNMATCHED,
    MatchResult,
    label_corpus,
    mask_taxonomy_tokens,
)
from newsvalue.records import Headline, Post
from newsvalue.textvec import cosine, fit_tfidf, tokenize, vectorize

MIDNIGHT = int(datetime(2017, 6, 2, tzinfo=timezone.utc).timestamp())
POST_WORDS = ["storm", "flood", "river", "fire", "smoke", "crews", "quake", "town", "road", "bridge"]
OTHER_WORDS = ["market", "shares", "bank", "rates", "garden", "bloom"]
# Texts the maskers claim whole, and ones with no token at all.
MASKED_AWAY = ["M5.8", "deadly", "3-alarm", "deadly M5.8", "", "!!", "   "]
# Offsets from a post's time that sit on or next to the window edges.
EDGE_OFFSETS = [0, 1, -1, MATCH_WINDOW_SECONDS, MATCH_WINDOW_SECONDS + 1, -MATCH_WINDOW_SECONDS]
SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# all-pairs reference
# ---------------------------------------------------------------------------

def brute_match(post, headlines, tfidf, threshold):
    """Score every headline; same window, tie and tardy rules (only a
    headline with a positive score can match or make a post tardy)."""
    v = vectorize(tokenize(post.text), tfidf)
    best_after = (0.0, None)
    best_before = (0.0, None)
    window_end = post.created_at + MATCH_WINDOW_SECONDS
    for idx, h in enumerate(headlines):
        score = cosine(v, vectorize(tokenize(h.text), tfidf))
        if post.created_at < h.published_at <= window_end:
            if score > best_after[0]:
                best_after = (score, idx)
        elif h.published_at <= post.created_at:
            if score > best_before[0]:
                best_before = (score, idx)
    if best_after[1] is not None and best_after[0] >= threshold:
        return MatchResult(post.post_id, MATCHED, best_after[1], best_after[0])
    if best_before[1] is not None and best_before[0] >= threshold:
        return MatchResult(post.post_id, TARDY, best_before[1], best_before[0])
    return MatchResult(post.post_id, UNMATCHED, best_after[1], best_after[0])


def _utc_date(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).date()


def brute_propagate(results, posts, tfidf, link_threshold, same_user_threshold):
    """Score every (unmatched, first-pass matched) pair."""
    by_id = {p.post_id: p for p in posts}
    vectors = {p.post_id: vectorize(tokenize(p.text), tfidf) for p in posts}
    matched = [r for r in results if r.status == MATCHED]
    out = []
    for r in results:
        post = by_id.get(r.post_id)
        if r.status == MATCHED or post is None:
            out.append(r)
            continue
        best_link = 0.0
        for m in matched:
            other = by_id.get(m.post_id)
            if other is None or other.created_at <= post.created_at:
                continue
            if _utc_date(other.created_at) != _utc_date(post.created_at):
                continue
            threshold = same_user_threshold if other.user_id == post.user_id else link_threshold
            score = cosine(vectors[post.post_id], vectors[other.post_id])
            if score >= threshold and score > best_link:
                best_link = score
        if best_link > 0.0:
            r = replace(r, status=MATCHED, via_link=True, best_score=max(r.best_score, best_link))
        out.append(r)
    return out


def brute_label(posts, headlines, threshold, link_threshold, same_user_threshold):
    """label_corpus's masking and vocabulary, all-pairs matching and linking."""
    posts = [replace(p, text=mask_taxonomy_tokens(p.text)) for p in posts]
    headlines = [replace(h, text=mask_taxonomy_tokens(h.text)) for h in headlines]
    docs = [(f"post:{p.post_id}", tokenize(p.text)) for p in posts]
    docs += [(f"headline:{i}", tokenize(h.text)) for i, h in enumerate(headlines)]
    tfidf = fit_tfidf(docs)
    first = [brute_match(p, headlines, tfidf, threshold) for p in posts]
    return brute_propagate(first, posts, tfidf, link_threshold, same_user_threshold)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _text(draw, words):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(MASKED_AWAY))
    return " ".join(draw(st.lists(st.sampled_from(words), min_size=1, max_size=8)))


@st.composite
def corpora(draw):
    """(posts, headlines) near one UTC midnight; headline vocabulary is
    either shared with the posts or disjoint from it."""
    shared = draw(st.booleans())
    head_words = POST_WORDS if shared else OTHER_WORDS
    users = ["u0", "u1", "u2"][: draw(st.integers(1, 3))]
    posts = []
    for i in range(draw(st.integers(1, 12))):
        # often exactly on or next to midnight, so posts share timestamps
        ts = MIDNIGHT + draw(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-3 * 3600, 3 * 3600)))
        posts.append(Post(f"p{i:02d}", draw(st.sampled_from(users)), ts, _text(draw, POST_WORDS)))
    headlines = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            anchor = draw(st.sampled_from(posts)).created_at
            ts = anchor + draw(st.sampled_from(EDGE_OFFSETS))
        else:
            ts = MIDNIGHT + draw(st.integers(-2 * 86400, 2 * 86400))
        headlines.append(Headline(_text(draw, head_words), "reuters", ts))
    # exact duplicates, so several headlines tie on score
    for _ in range(draw(st.integers(0, 3)) if headlines else 0):
        dup = draw(st.sampled_from(headlines))
        headlines.insert(draw(st.integers(0, len(headlines))), dup)
    return posts, headlines


thresholds = st.sampled_from([-0.5, 0.0, 0.1, 0.3, 0.5, 0.8, 1.0, 1.5])


def _fit(posts, headlines):
    docs = [(p.post_id, tokenize(p.text)) for p in posts]
    docs += [(f"h{i}", tokenize(h.text)) for i, h in enumerate(headlines)]
    return fit_tfidf(docs)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def _threshold(data, left, right, tfidf):
    """A fixed threshold, or one equal to the score of some pair, so that
    scores land exactly on the threshold."""
    scores = sorted(
        {
            cosine(vectorize(tokenize(a.text), tfidf), vectorize(tokenize(b.text), tfidf))
            for a in left
            for b in right
        }
    )
    return data.draw(thresholds | st.sampled_from(scores))


@SETTINGS
@given(corpora(), st.data())
def test_match_equals_all_pairs(corpus, data):
    posts, headlines = corpus
    tfidf = _fit(posts, headlines)
    threshold = _threshold(data, posts, headlines or posts, tfidf)
    for post in posts:
        assert match_one(post, headlines, tfidf, threshold) == brute_match(
            post, headlines, tfidf, threshold
        )


@SETTINGS
@given(corpora(), st.data())
def test_propagation_equals_all_pairs(corpus, data):
    # First-pass outcomes are drawn, not matched, so that many posts link.
    posts, headlines = corpus
    tfidf = _fit(posts, headlines)
    link = _threshold(data, posts, posts, tfidf)
    same_user = _threshold(data, posts, posts, tfidf)
    first = [
        MatchResult(
            p.post_id,
            data.draw(st.sampled_from([MATCHED, UNMATCHED, TARDY])),
            None,
            data.draw(st.sampled_from([0.0, 0.2, 0.9])),
        )
        for p in posts
    ]
    assert propagate(first, posts, tfidf, link, same_user) == brute_propagate(
        first, posts, tfidf, link, same_user
    )


@SETTINGS
@given(corpora(), thresholds, thresholds, thresholds)
def test_label_corpus_equals_all_pairs(corpus, threshold, link, same_user):
    posts, headlines = corpus
    run = label_corpus(posts, headlines, threshold, link, same_user)
    assert run.results == brute_label(posts, headlines, threshold, link, same_user)


@SETTINGS
@given(corpora(), st.randoms(use_true_random=False))
def test_labels_do_not_depend_on_post_order(corpus, rnd):
    """Nor on headline order, which moves only the best_headline index."""
    posts, headlines = corpus
    shuffled_posts, shuffled_headlines = list(posts), list(headlines)
    rnd.shuffle(shuffled_posts)
    rnd.shuffle(shuffled_headlines)

    def outcome(ps, hs):
        return {
            r.post_id: (r.status, r.best_score, r.via_link, r.best_headline is None)
            for r in label_corpus(ps, hs, 0.5, 0.5, 0.3).results
        }

    base = outcome(posts, headlines)
    assert outcome(shuffled_posts, headlines) == base
    assert outcome(shuffled_posts, shuffled_headlines) == base


def test_scores_only_window_candidates_sharing_a_term(monkeypatch):
    # One post, headlines on every side of its window: only the in-window
    # headline that shares a term is scored, and the earlier range is not
    # scanned because that score clears the threshold.
    post = Post("p", "u", MIDNIGHT, "storm hits river town")
    headlines = [
        Headline("storm hits river town", "ap", MIDNIGHT - 60),
        Headline("storm hits river town", "ap", MIDNIGHT + 60),
        Headline("market shares fall", "ap", MIDNIGHT + 120),
        Headline("storm hits river town", "ap", MIDNIGHT + MATCH_WINDOW_SECONDS + 1),
    ]
    tfidf = _fit([post], headlines)
    calls = []

    def counting_cosine(a, b):
        calls.append(b)
        return cosine(a, b)

    monkeypatch.setattr(labeling, "cosine", counting_cosine)
    res = match_one(post, headlines, tfidf, 0.5)
    assert (res.status, res.best_headline) == (MATCHED, 1)
    assert len(calls) == 1


def test_permuted_wire_corpus_keeps_labels():
    rng = random.Random(7)
    headlines = [
        Headline(" ".join(rng.sample(POST_WORDS, 4)), "reuters", MIDNIGHT + rng.randint(-86400, 86400))
        for _ in range(40)
    ]
    posts = [
        Post(f"p{i:03d}", f"u{i % 5}", MIDNIGHT + rng.randint(-86400, 86400),
             " ".join(rng.sample(POST_WORDS, 3)))
        for i in range(120)
    ]
    expected = brute_label(posts, headlines, 0.5, 0.5, 0.3)
    assert label_corpus(posts, headlines, 0.5, 0.5, 0.3).results == expected
    rng.shuffle(posts)
    got = {r.post_id: r for r in label_corpus(posts, headlines, 0.5, 0.5, 0.3).results}
    assert got == {r.post_id: r for r in expected}

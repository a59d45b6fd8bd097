"""The time-windowed, term-indexed labeling against an all-pairs reference.

match_to_headlines and propagate_links sum each candidate's cosine term at
a time over the postings of the relevant time range, and score with
cosine() only the candidates whose sum comes within a rounding margin of
the top sum or of their threshold; the tardy range scores the headlines
holding a probe term. These properties check that their results equal a
brute-force scan of every pair, float for float, on corpora built to hit
the edges: score ties between duplicate headlines and between the same
terms in another order, weights over many orders of magnitude, timestamps
on the window boundaries, same-author links, posts on both sides of a UTC
midnight (in 2017, before 1970, and at the end of the first and the start
of the last UTC day a record can name), and texts that are empty or mask
away entirely.
"""

from __future__ import annotations

import random
from datetime import datetime, timezone

import pytest
from conftest import masked_text, match_one, propagate
from hypothesis import given, settings
from hypothesis import strategies as st

from newsvalue import labeling
from newsvalue.labeling import (
    MATCH_WINDOW_SECONDS,
    MATCHED,
    TARDY,
    UNMATCHED,
    MatchResult,
    TermTimeIndex,
    label_corpus,
    match_to_headlines,
    propagate_links,
)
from newsvalue.records import _TIMESTAMP_MAX, _TIMESTAMP_MIN, Headline, Post
from newsvalue.textvec import SparseVector, cosine, fit_tfidf, tokenize, vectorize

MIDNIGHT = int(datetime(2017, 6, 2, tzinfo=timezone.utc).timestamp())
# The midnights corpora gather around: MIDNIGHT; one before 1970, where a
# day start found by truncating t / 86400 would be a day late; the one that
# ends the first UTC day a record's timestamp can name, and the one that
# starts the last.
MIDNIGHTS = [
    MIDNIGHT,
    int(datetime(1969, 7, 21, tzinfo=timezone.utc).timestamp()),
    _TIMESTAMP_MIN + 86400,
    _TIMESTAMP_MAX + 1 - 86400,
]
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
    return brute_match_vectors(
        post,
        vectorize(tokenize(post.text), tfidf),
        [h.published_at for h in headlines],
        [vectorize(tokenize(h.text), tfidf) for h in headlines],
        threshold,
    )


def brute_match_vectors(post, v, times, head_vectors, threshold):
    """Score every headline; same window, tie and tardy rules (only a
    headline with a positive score can match or make a post tardy)."""
    best_after = (0.0, None)
    best_before = (0.0, None)
    window_end = post.created_at + MATCH_WINDOW_SECONDS
    for idx, (published_at, hv) in enumerate(zip(times, head_vectors)):
        score = cosine(v, hv)
        if post.created_at < published_at <= window_end:
            if score > best_after[0]:
                best_after = (score, idx)
        elif published_at <= post.created_at:
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
    vectors = {p.post_id: vectorize(tokenize(p.text), tfidf) for p in posts}
    return brute_propagate_vectors(results, posts, vectors, link_threshold, same_user_threshold)


def brute_propagate_vectors(results, posts, vectors, link_threshold, same_user_threshold):
    """Score every (unmatched, first-pass matched) pair."""
    by_id = {p.post_id: p for p in posts}
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
            r = r._replace(status=MATCHED, via_link=True, best_score=max(r.best_score, best_link))
        out.append(r)
    return out


def brute_label(posts, headlines, threshold, link_threshold, same_user_threshold):
    """label_corpus's masking and vocabulary, all-pairs matching and linking."""
    posts = [p._replace(text=masked_text(p.text)) for p in posts]
    headlines = [h._replace(text=masked_text(h.text)) for h in headlines]
    tfidf = fit_tfidf([tokenize(t.text) for t in (*posts, *headlines)])
    first = [brute_match(p, headlines, tfidf, threshold) for p in posts]
    return brute_propagate(first, posts, tfidf, link_threshold, same_user_threshold)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _timestamp(ts):
    """ts moved into the range a record's timestamp can take."""
    return min(max(ts, _TIMESTAMP_MIN), _TIMESTAMP_MAX)


def _text(draw, words):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(MASKED_AWAY))
    return " ".join(draw(st.lists(st.sampled_from(words), min_size=1, max_size=8)))


@st.composite
def corpora(draw):
    """(posts, headlines) near one UTC midnight; headline vocabulary is
    either shared with the posts or disjoint from it."""
    midnight = draw(st.sampled_from(MIDNIGHTS))
    shared = draw(st.booleans())
    head_words = POST_WORDS if shared else OTHER_WORDS
    users = ["u0", "u1", "u2"][: draw(st.integers(1, 3))]
    posts = []
    for i in range(draw(st.integers(1, 12))):
        # often exactly on or next to midnight, so posts share timestamps
        offset = draw(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-3 * 3600, 3 * 3600)))
        ts = midnight + offset
        posts.append(Post(f"p{i:02d}", draw(st.sampled_from(users)), ts, _text(draw, POST_WORDS)))
    headlines = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.booleans()):
            anchor = draw(st.sampled_from(posts)).created_at
            ts = anchor + draw(st.sampled_from(EDGE_OFFSETS))
        else:
            ts = midnight + draw(st.integers(-2 * 86400, 2 * 86400))
        headlines.append(Headline(_text(draw, head_words), "reuters", _timestamp(ts)))
    # exact duplicates, so several headlines tie on score
    for _ in range(draw(st.integers(0, 3)) if headlines else 0):
        dup = draw(st.sampled_from(headlines))
        headlines.insert(draw(st.integers(0, len(headlines))), dup)
    return posts, headlines


thresholds = st.sampled_from([-0.5, 0.0, 0.1, 0.3, 0.5, 0.8, 1.0, 1.5])


def _fit(posts, headlines):
    return fit_tfidf([tokenize(t.text) for t in (*posts, *headlines)])


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
    results, _ = label_corpus(posts, headlines, threshold, link, same_user)
    assert results == brute_label(posts, headlines, threshold, link, same_user)


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
            for r in label_corpus(ps, hs, 0.5, 0.5, 0.3)[0]
        }

    base = outcome(posts, headlines)
    assert outcome(shuffled_posts, headlines) == base
    assert outcome(shuffled_posts, shuffled_headlines) == base


TERMS = ["storm", "flood", "river", "fire", "smoke"]
# A few weights, so that sums tie or round apart in the last bit; weights
# spread over 200 orders of magnitude; and very small ones. Products and
# squares stay normal floats.
weights = st.one_of(
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 0.1, 0.7, 1 / 3]),
    st.floats(min_value=1e-100, max_value=1e100),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-100, -10)),
)
vectors = st.dictionaries(st.sampled_from(TERMS), weights, max_size=4).map(SparseVector)


def _permuted(v, rnd):
    """The same weights under the same terms, inserted in another order:
    the norm and cosine() may differ in the last bit."""
    items = list(v.entries.items())
    rnd.shuffle(items)
    return SparseVector(dict(items))


@st.composite
def weighted_corpora(draw):
    """Posts and their vectors, and headline times and vectors, drawn
    directly: headlines on the window edges of a post, exact duplicates and
    permuted copies of other headlines and of the posts."""
    rnd = draw(st.randoms(use_true_random=False))
    midnight = draw(st.sampled_from(MIDNIGHTS))
    posts, post_vectors = [], []
    for i in range(draw(st.integers(1, 8))):
        ts = midnight + draw(st.sampled_from([-1, 0, 1]) | st.integers(-3 * 3600, 3 * 3600))
        posts.append(Post(f"p{i}", draw(st.sampled_from(["u0", "u1"])), ts, ""))
        post_vectors.append(draw(vectors))
    times, head_vectors = [], []
    for _ in range(draw(st.integers(0, 12))):
        anchor = draw(st.sampled_from(posts)).created_at
        times.append(_timestamp(
            anchor + draw(st.sampled_from(EDGE_OFFSETS) | st.integers(-86400, 86400))))
        kind = draw(st.sampled_from(["new", "copy", "permuted", "post"]))
        if kind == "new" or not head_vectors:
            head_vectors.append(draw(vectors))
        elif kind == "post":
            head_vectors.append(_permuted(draw(st.sampled_from(post_vectors)), rnd))
        else:
            v = draw(st.sampled_from(head_vectors))
            head_vectors.append(v if kind == "copy" else _permuted(v, rnd))
    return posts, post_vectors, times, head_vectors


def _drawn_threshold(data, pairs):
    """A fixed threshold, or the exact cosine of one of the pairs."""
    scores = sorted({cosine(a, b) for a, b in pairs})
    return data.draw(thresholds | st.sampled_from(scores)) if scores else data.draw(thresholds)


@SETTINGS
@given(weighted_corpora(), st.data())
def test_accumulated_sums_decide_like_all_pairs(corpus, data):
    """The indexed matching and linking equal the all-pairs cosine() scan,
    float for float, on vectors built to make the sums and cosine() round
    differently."""
    posts, post_vectors, times, head_vectors = corpus
    index = TermTimeIndex(times, head_vectors)
    threshold = _drawn_threshold(data, [(v, h) for v in post_vectors for h in head_vectors])
    for post, v in zip(posts, post_vectors):
        assert match_to_headlines(post, v, index, threshold) == brute_match_vectors(
            post, v, times, head_vectors, threshold
        )
    pairs = [(a, b) for a in post_vectors for b in post_vectors]
    link, same_user = _drawn_threshold(data, pairs), _drawn_threshold(data, pairs)
    first = [
        MatchResult(p.post_id, data.draw(st.sampled_from([MATCHED, UNMATCHED, TARDY])), None, 0.0)
        for p in posts
    ]
    vectors = {p.post_id: v for p, v in zip(posts, post_vectors)}
    assert propagate_links(first, posts, post_vectors, link, same_user) == (
        brute_propagate_vectors(first, posts, vectors, link, same_user)
    )


@pytest.mark.parametrize(
    "post_weights, head_items, permuted",
    [
        # The permuted copy sums one ulp higher, but cosine() ties: the
        # first headline is the best.
        (
            {"smoke": 0.7, "storm": 1.5, "flood": 1.0, "river": 0.7, "fire": 0.1},
            [("flood", 0.7), ("fire", 2.0), ("river", 0.7), ("smoke", 0.7)],
            [("river", 0.7), ("smoke", 0.7), ("flood", 0.7), ("fire", 2.0)],
        ),
        # The permuted copy sums higher, but cosine() scores it lower.
        (
            {"flood": 2.0, "river": 3.0, "smoke": 0.7, "fire": 1.5, "storm": 1.0},
            [("flood", 0.7), ("storm", 1.0), ("river", 0.7), ("smoke", 1 / 3)],
            [("river", 0.7), ("smoke", 1 / 3), ("storm", 1.0), ("flood", 0.7)],
        ),
    ],
)
def test_sums_that_round_apart_are_both_rechecked(post_weights, head_items, permuted):
    post = Post("p", "u", MIDNIGHT, "")
    v = SparseVector(post_weights)
    head_vectors = [SparseVector(dict(head_items)), SparseVector(dict(permuted))]
    times = [MIDNIGHT + 60, MIDNIGHT + 120]
    res = match_to_headlines(post, v, TermTimeIndex(times, head_vectors), 0.0)
    assert res == brute_match_vectors(post, v, times, head_vectors, 0.0)
    assert res.best_headline == 0


def test_rechecks_only_the_candidates_near_the_top_sum(monkeypatch):
    # Twenty in-window headlines share a term with the post and one scores
    # strictly best: only that one is scored with cosine().
    post = Post("p", "u", MIDNIGHT, "")
    v = SparseVector({"storm": 1.0, "river": 1.0})
    head_vectors = [SparseVector({"storm": 1.0, f"other{i}": 3.0}) for i in range(19)]
    head_vectors.insert(7, SparseVector({"storm": 1.0, "river": 1.0}))
    index = TermTimeIndex([MIDNIGHT + 60 * (i + 1) for i in range(20)], head_vectors)
    calls = []

    def counting_cosine(a, b):
        calls.append(b)
        return cosine(a, b)

    monkeypatch.setattr(labeling, "cosine", counting_cosine)
    res = match_to_headlines(post, v, index, 0.5)
    assert (res.status, res.best_headline) == (MATCHED, 7)
    assert calls == [head_vectors[7]]


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
    assert label_corpus(posts, headlines, 0.5, 0.5, 0.3)[0] == expected
    rng.shuffle(posts)
    got = {r.post_id: r for r in label_corpus(posts, headlines, 0.5, 0.5, 0.3)[0]}
    assert got == {r.post_id: r for r in expected}

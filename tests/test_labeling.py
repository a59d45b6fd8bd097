"""Masking, 24-hour headline matching, propagation, undersampling."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest
from conftest import masked_text, match_one, propagate

from newsvalue.errors import DegenerateLabels
from newsvalue.labeling import (
    MATCH_WINDOW_SECONDS,
    MATCHED,
    TARDY,
    UNMATCHED,
    _claimed_spans,
    default_mask_rules,
    label_corpus,
    mask_taxonomy_tokens,
    undersample,
)
from newsvalue.records import Headline, LabeledExample, Post
from newsvalue.scope import TextAnalysis
from newsvalue.textvec import cosine, fit_tfidf, tokenize, vectorize


class TestMasking:
    def test_quake_pattern(self):
        assert mask_taxonomy_tokens("M5.8 earthquake") == ["scope_quake_magnitude", "earthquake"]

    def test_scale_adjective(self):
        assert mask_taxonomy_tokens("deadly crash") == ["scope_scale_adj", "crash"]

    def test_no_spans_unchanged(self):
        assert mask_taxonomy_tokens("hello world") == ["hello", "world"]

    def test_both_sides_same_rules(self):
        tweet = "deadly 3-alarm fire caused by gas leak"
        headline = "Gas leak sparks deadly 3-alarm fire"
        masked_tweet = mask_taxonomy_tokens(tweet)
        masked_headline = mask_taxonomy_tokens(headline)
        assert "scope_fire_cause" in masked_tweet
        assert "scope_fire_cause" in masked_headline
        assert "scope_alarm_level" in masked_tweet

    def test_masking_idempotent(self):
        texts = [
            "M5.8 earthquake near the deadly gas leak",
            "quarter sized hail and EF3 tornado with 2-car crash",
            "12 dead at the refinery on Main St",
            "hello world",
        ]
        for text in texts:
            once = masked_text(text)
            assert masked_text(once) == once
            assert mask_taxonomy_tokens(once) == mask_taxonomy_tokens(text)

    def test_token_accounting(self):
        # Masking replaces each claimed span with one token and leaves every
        # token outside the spans alone.
        texts = [
            "M5.8 earthquake near the deadly gas leak",
            "quarter sized hail and EF3 tornado with 2-car crash",
            "hello world",
            "",
            "12 dead at the refinery on Main St",
        ]
        for text in texts:
            spans = _claimed_spans(TextAnalysis(text), default_mask_rules())
            masked = mask_taxonomy_tokens(text)
            mask_token_count = sum(1 for t in masked if t.startswith(("scope_", "impact_")))
            covered = sum(len(tokenize(text[s:e])) for s, e, _ in spans)
            assert mask_token_count == len(spans)
            assert len(masked) - len(spans) == len(tokenize(text)) - covered


def _tfidf_for(texts):
    return fit_tfidf([tokenize(t) for t in texts])


class TestMatchToHeadlines:
    def test_identical_one_hour_later(self):
        post = Post("p", "u", 1000, "one two three")
        head = Headline("one two three", "ap", 1000 + 3600)
        tfidf = _tfidf_for(["one two three"])
        res = match_one(post, [head], tfidf, 0.5)
        assert res.status == MATCHED
        assert res.best_score == pytest.approx(1.0, abs=1e-12)
        assert res.best_headline == 0

    def test_identical_only_earlier_is_tardy(self):
        post = Post("p", "u", 1000, "one two three")
        head = Headline("one two three", "ap", 900)
        res = match_one(post, [head], _tfidf_for(["one two three"]), 0.5)
        assert res.status == TARDY

    def test_disjoint_vocabulary_unmatched(self):
        post = Post("p", "u", 1000, "alpha beta")
        head = Headline("gamma delta", "ap", 2000)
        res = match_one(post, [head], _tfidf_for(["alpha beta", "gamma delta"]), 0.5)
        assert res.status == UNMATCHED
        assert res.best_score == 0.0

    def test_window_boundary_inclusive_86400(self):
        post = Post("p", "u", 1000, "one two three")
        tfidf = _tfidf_for(["one two three"])
        inside = Headline("one two three", "ap", 1000 + MATCH_WINDOW_SECONDS)
        outside = Headline("one two three", "ap", 1000 + MATCH_WINDOW_SECONDS + 1)
        assert match_one(post, [inside], tfidf, 0.5).status == MATCHED
        res = match_one(post, [outside], tfidf, 0.5)
        assert res.status == UNMATCHED

    def test_headline_at_post_time_counts_as_before(self):
        post = Post("p", "u", 1000, "one two three")
        head = Headline("one two three", "ap", 1000)
        assert match_one(post, [head], _tfidf_for(["one two three"]), 0.5).status == TARDY

    def test_after_window_match_beats_earlier(self):
        post = Post("p", "u", 1000, "one two three")
        heads = [
            Headline("one two three", "ap", 900),
            Headline("one two three", "ap", 2000),
        ]
        res = match_one(post, heads, _tfidf_for(["one two three"]), 0.5)
        assert res.status == MATCHED
        assert res.best_headline == 1

    # Threshold 0: only a scored headline (score > 0) can match a post
    # or make it tardy, so either status always names its headline.
    def test_threshold_zero_earlier_headline_is_tardy(self):
        post = Post("p", "u", 1000, "one two three")
        tfidf = _tfidf_for(["one two three"])
        res = match_one(post, [Headline("one two three", "ap", 900)], tfidf, 0.0)
        assert (res.status, res.best_headline) == (TARDY, 0)
        assert res.best_score == pytest.approx(1.0)
        headlines = [Headline("one two three", "ap", 900)]
        results, stats = label_corpus([post], headlines, 0.0, 0.5, 0.3)
        assert (results[0].status, results[0].best_headline) == (TARDY, 0)
        assert stats["matched_direct"] == 0

    def test_threshold_zero_later_headline_is_unmatched(self):
        post = Post("p", "u", 1000, "one two three")
        tfidf = _tfidf_for(["one two three"])
        late = Headline("one two three", "ap", 1000 + MATCH_WINDOW_SECONDS + 1)
        res = match_one(post, [late], tfidf, 0.0)
        assert (res.status, res.best_headline, res.best_score) == (UNMATCHED, None, 0.0)

    def test_threshold_zero_no_headline_is_unmatched(self):
        post = Post("p", "u", 1000, "one two three")
        tfidf = _tfidf_for(["one two three"])
        res = match_one(post, [], tfidf, 0.0)
        assert (res.status, res.best_headline, res.best_score) == (UNMATCHED, None, 0.0)
        results, stats = label_corpus([post], [], 0.0, 0.5, 0.3)
        assert results[0].status == UNMATCHED
        assert stats["matched"] == 0


DAY = 86400


def _day_ts(hour):
    # All within one UTC day (2017-06-01).
    base = int(datetime(2017, 6, 1, tzinfo=timezone.utc).timestamp())
    return base + hour * 3600


class TestPropagateLinks:
    def _scenario(self, sim_text, same_user):
        matched_post = Post("m", "u_m", _day_ts(12), "storm damage downtown tonight")
        user = "u_m" if same_user else "u_x"
        unmatched_post = Post("x", user, _day_ts(10), sim_text)
        posts = [matched_post, unmatched_post]
        tfidf = _tfidf_for([p.text for p in posts])
        from newsvalue.labeling import MatchResult

        results = [
            MatchResult("m", MATCHED, 0, 1.0),
            MatchResult("x", UNMATCHED, None, 0.0),
        ]
        return posts, tfidf, results

    def test_high_similarity_promotes(self):
        posts, tfidf, results = self._scenario("storm damage downtown", False)
        out = propagate(results, posts, tfidf, 0.5, 0.3)
        got = {r.post_id: r for r in out}
        assert got["x"].status == MATCHED
        assert got["x"].via_link

    def test_below_threshold_different_user_stays(self):
        posts, tfidf, results = self._scenario("storm elsewhere maybe related news", False)
        sim = cosine(
            vectorize(tokenize(posts[0].text), tfidf),
            vectorize(tokenize(posts[1].text), tfidf),
        )
        assert 0.0 < sim < 0.5
        out = propagate(results, posts, tfidf, 0.5, 0.3)
        assert {r.post_id: r.status for r in out}["x"] == UNMATCHED

    def test_same_user_lower_threshold(self):
        posts, tfidf, results = self._scenario("storm damage report update", True)
        sim = cosine(
            vectorize(tokenize(posts[0].text), tfidf),
            vectorize(tokenize(posts[1].text), tfidf),
        )
        assert 0.3 <= sim < 0.5
        out = propagate(results, posts, tfidf, 0.5, 0.3)
        assert {r.post_id: r.status for r in out}["x"] == MATCHED

    def test_same_similarity_different_user_stays(self):
        posts, tfidf, results = self._scenario("storm damage report update", False)
        out = propagate(results, posts, tfidf, 0.5, 0.3)
        assert {r.post_id: r.status for r in out}["x"] == UNMATCHED

    def test_matched_must_be_strictly_later(self):
        matched_post = Post("m", "u", _day_ts(10), "storm damage downtown")
        earlier = Post("x", "u2", _day_ts(12), "storm damage downtown")
        posts = [matched_post, earlier]
        tfidf = _tfidf_for([p.text for p in posts])
        from newsvalue.labeling import MatchResult

        results = [
            MatchResult("m", MATCHED, 0, 1.0),
            MatchResult("x", UNMATCHED, None, 0.0),
        ]
        out = propagate(results, posts, tfidf, 0.5, 0.3)
        # the matched tweet is EARLIER than x, so x cannot link to it
        assert {r.post_id: r.status for r in out}["x"] == UNMATCHED

    def test_different_day_does_not_link(self):
        matched_post = Post("m", "u", _day_ts(12) + DAY, "storm damage downtown")
        unmatched_post = Post("x", "u2", _day_ts(10), "storm damage downtown")
        posts = [matched_post, unmatched_post]
        tfidf = _tfidf_for([p.text for p in posts])
        from newsvalue.labeling import MatchResult

        results = [
            MatchResult("m", MATCHED, 0, 1.0),
            MatchResult("x", UNMATCHED, None, 0.0),
        ]
        out = propagate(results, posts, tfidf, 0.5, 0.3)
        assert {r.post_id: r.status for r in out}["x"] == UNMATCHED

    def test_never_unmatches(self):
        posts, tfidf, results = self._scenario("completely unrelated words", False)
        out = propagate(results, posts, tfidf, 0.5, 0.3)
        before = {r.post_id for r in results if r.status == MATCHED}
        after = {r.post_id for r in out if r.status == MATCHED}
        assert before <= after


class TestUndersample:
    def _examples(self, matched, unmatched):
        out = [LabeledExample(f"m{i}", {}, True) for i in range(matched)]
        out += [LabeledExample(f"u{i}", {}, False) for i in range(unmatched)]
        return out

    def test_ratio_arithmetic(self):
        out = undersample(self._examples(10, 500), ratio=10, seed=1)
        assert sum(e.label for e in out) == 10
        assert sum(not e.label for e in out) == 100

    def test_below_ratio_keeps_all(self):
        out = undersample(self._examples(10, 50), ratio=10, seed=1)
        assert len(out) == 60

    def test_seed_deterministic(self):
        a = undersample(self._examples(5, 200), ratio=10, seed=9)
        b = undersample(self._examples(5, 200), ratio=10, seed=9)
        assert [e.post_id for e in a] == [e.post_id for e in b]

    def test_all_matched_preserved(self):
        examples = self._examples(7, 300)
        out = undersample(examples, ratio=10, seed=2)
        assert {e.post_id for e in out if e.label} == {f"m{i}" for i in range(7)}

    def test_zero_matched_raises(self):
        with pytest.raises(DegenerateLabels):
            undersample(self._examples(0, 10), ratio=10, seed=0)


class TestLabelCorpusPipeline:
    def test_engineered_corpus(self):
        base = _day_ts(0)
        posts = [
            Post("hit", "u1", base, "massive quake rocks valley town"),
            Post("tardy", "u2", base + 7200, "embassy statement issued fully"),
            Post("miss", "u3", base, "gardening flowers and tea"),
        ]
        headlines = [
            Headline("massive quake rocks valley town", "reuters", base + 3600),
            Headline("embassy statement issued fully", "bbc", base + 3600),
        ]
        results, stats = label_corpus(posts, headlines, 0.5, 0.5, 0.3)
        by_id = {r.post_id: r for r in results}
        assert by_id["hit"].status == MATCHED
        assert by_id["tardy"].status == TARDY
        assert by_id["miss"].status == UNMATCHED
        assert stats["matched"] == 1

    def test_propagation_adds_same_user_near_duplicate(self):
        # dup shares only "huge blaze" with the headline (cosine ~0.31,
        # below the 0.5 match threshold) but the same author posts a
        # direct match later the same day, so the 0.3 same-user link fires.
        base = _day_ts(0)
        posts = [
            Post("dup", "u1", base + 100, "huge blaze spreads fast"),
            Post("hit", "u1", base + 200, "huge blaze engulfs mill"),
        ]
        headlines = [Headline("huge blaze engulfs mill", "cnn", base + 4000)]
        results, stats = label_corpus(posts, headlines, 0.5, 0.5, 0.3)
        by_id = {r.post_id: r for r in results}
        assert by_id["hit"].status == MATCHED and not by_id["hit"].via_link
        assert by_id["dup"].status == MATCHED and by_id["dup"].via_link
        assert stats["via_link"] == 1

    def test_all_headlines_before_everything_tardy_or_unmatched(self):
        base = _day_ts(5)
        posts = [
            Post("a", "u1", base, "storm hits the coast overnight"),
            Post("b", "u2", base, "completely different content here"),
        ]
        headlines = [Headline("storm hits the coast overnight", "afp", base - 100)]
        results, stats = label_corpus(posts, headlines, 0.5, 0.5, 0.3)
        statuses = {r.post_id: r.status for r in results}
        assert statuses["a"] == TARDY
        assert statuses["b"] == UNMATCHED
        assert stats["matched"] == 0

"""Tokenizer, tf.idf, cosine, and centroid behavior."""

from __future__ import annotations

import json
import math
import random

import pytest

from newsvalue.curation import build_trbc_centroids
from newsvalue.errors import DegenerateLabels
from newsvalue.records import Headline
from newsvalue.textvec import (
    Centroids,
    SparseVector,
    centroid,
    cosine,
    fit_tfidf,
    nearest_centroid,
    tokenize,
    token_spans,
    vectorize,
)


def scaled(v, factor):
    return SparseVector({t: w * factor for t, w in v.entries.items()})


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_hashtag_stripped(self):
        assert tokenize("#BREAKING Third suspect arrested") == [
            "breaking", "third", "suspect", "arrested",
        ]

    def test_url_and_mention_sentinels(self):
        assert tokenize("fire at http://x.co @fdny") == ["fire", "at", "__url__", "__user__"]

    def test_numbers_kept(self):
        assert tokenize("M5.8 quake, 1,200 acres") == ["m", "5.8", "quake", "1,200", "acres"]

    def test_lowercase_and_nonempty(self):
        for text in ("A B C", "ÉTÉ chaud", "x1 Y2"):
            toks = tokenize(text)
            assert all(t == t.lower() for t in toks)
            assert all(t for t in toks)

    def test_spans_index_original(self):
        text = "Fire at Main St"
        for tok, start, end in token_spans(text):
            assert text[start:end].lower() == tok


class TestSparseVector:
    def test_drops_zero_weights(self):
        v = SparseVector({"a": 1.0, "b": 0.0})
        assert "b" not in v.entries

    def test_norm_matches_brute_force(self):
        rng = random.Random(0)
        for _ in range(50):
            entries = {f"t{i}": rng.uniform(-3, 3) for i in range(rng.randint(0, 12))}
            v = SparseVector(entries)
            expected = math.sqrt(sum(w * w for w in v.entries.values()))
            assert abs(v.norm - expected) < 1e-9


class TestFitTfidf:
    def test_single_document(self):
        m = fit_tfidf([["a", "b"]])
        assert m.doc_count == 1
        assert m.doc_freq == {"a": 1, "b": 1}

    def test_df_counts_documents_not_occurrences(self):
        m = fit_tfidf([["a", "b"], ["b", "c"]])
        assert m.doc_freq["b"] == 2
        assert m.doc_freq["a"] == 1
        assert m.doc_freq["c"] == 1

    def test_all_same(self):
        m = fit_tfidf([["a"], ["a"], ["a"]])
        assert m.doc_freq["a"] == 3

    def test_empty_raises(self):
        with pytest.raises(DegenerateLabels, match="fit_tfidf needs at least one document"):
            fit_tfidf([])


class TestVectorize:
    def test_empty_tokens(self):
        m = fit_tfidf([["a"]])
        v = vectorize([], m)
        assert v.entries == {} and v.norm == 0.0

    def test_weight_formula(self):
        m = fit_tfidf([["a"], ["b"]])
        v = vectorize(["a", "a"], m)
        expected = 2 * (math.log(3 / 2) + 1.0)
        assert v.entries["a"] == pytest.approx(expected, abs=1e-9)
        assert v.entries["a"] == pytest.approx(2.811, abs=1e-3)

    def test_positive_weights_for_seen_doc(self):
        m = fit_tfidf([["x", "y", "z"]])
        v = vectorize(["x", "y", "z"], m)
        assert all(w > 0 for w in v.entries.values())

    def test_deterministic_byte_for_byte(self):
        docs = [["a", "b", "c"], ["b", "c", "d"]]
        v1 = vectorize(["a", "b", "d", "d"], fit_tfidf(docs))
        v2 = vectorize(["a", "b", "d", "d"], fit_tfidf(docs))
        assert json.dumps(v1.entries, sort_keys=True) == json.dumps(v2.entries, sort_keys=True)


class TestCosine:
    def test_identical(self):
        v = SparseVector({"a": 1.2, "b": 0.4})
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert cosine(SparseVector({"a": 1.0}), SparseVector({"b": 1.0})) == 0.0

    def test_hand_value(self):
        a = SparseVector({"x": 1.0, "y": 1.0})
        b = SparseVector({"x": 1.0})
        assert cosine(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_vector(self):
        assert cosine(SparseVector(), SparseVector({"a": 1.0})) == 0.0

    def test_symmetric(self):
        rng = random.Random(1)
        for _ in range(100):
            a = SparseVector({f"t{i}": rng.uniform(0, 2) for i in range(rng.randint(1, 8))})
            b = SparseVector({f"t{i}": rng.uniform(0, 2) for i in range(rng.randint(1, 8))})
            assert cosine(a, b) == cosine(b, a)

    def test_scale_invariance(self):
        rng = random.Random(2)
        for _ in range(50):
            a = SparseVector({f"t{i}": rng.uniform(0.1, 2) for i in range(rng.randint(1, 8))})
            s = rng.uniform(0.01, 100)
            assert cosine(a, scaled(a, s)) == pytest.approx(1.0, abs=1e-9)


class TestCentroid:
    def test_singleton(self):
        assert centroid([{"a": 2.0}]).entries == {"a": 2.0}

    def test_missing_treated_as_zero(self):
        assert centroid([{"x": 2.0}, {}]).entries == {"x": 1.0}

    def test_hand_mean(self):
        c = centroid([{"x": 1.0}, {"y": 1.0}])
        assert c.entries == {"x": 0.5, "y": 0.5}

    def test_counts_a_generator(self):
        c = centroid({"x": float(i)} for i in range(4))
        assert c.entries == {"x": 1.5}

    def test_empty_raises(self):
        with pytest.raises(DegenerateLabels, match="centroid over an empty vector list"):
            centroid([])


class TestNearestCentroid:
    def _cs(self):
        return Centroids({
            "alpha": SparseVector({"a": 1.0}),
            "beta": SparseVector({"b": 1.0}),
            "gamma": SparseVector({"c": 1.0, "a": 0.2}),
        })

    def test_exact_match(self):
        label, sim = nearest_centroid(SparseVector({"b": 3.0}), self._cs())
        assert label == "beta"
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_ties_lexicographic(self):
        label, sim = nearest_centroid(SparseVector({"zzz": 1.0}), self._cs())
        assert (label, sim) == ("alpha", 0.0)

    def test_brute_force_agreement(self):
        rng = random.Random(3)
        cs = self._cs()
        for _ in range(100):
            v = SparseVector({t: rng.uniform(0, 1) for t in ("a", "b", "c")})
            label, sim = nearest_centroid(v, cs)
            sims = {lbl: cosine(v, vec) for lbl, vec in cs.items()}
            best = max(sims.values())
            assert sim == best
            assert label == min(lbl for lbl, s in sims.items() if s == best)

    def test_scaling_invariance_of_argmax(self):
        rng = random.Random(4)
        cs = self._cs()
        for _ in range(50):
            v = SparseVector({t: rng.uniform(0.1, 1) for t in ("a", "b", "c")})
            base, _ = nearest_centroid(v, cs)
            label, _ = nearest_centroid(scaled(v, rng.uniform(0.01, 50)), cs)
            assert base == label

    def test_empty_raises(self):
        with pytest.raises(
            DegenerateLabels, match="nearest_centroid against an empty centroid set"
        ):
            nearest_centroid(SparseVector({"a": 1.0}), Centroids({}))

    def test_zero_norm_centroid_rejected(self):
        # floods' only headline holds no word token: its centroid has norm 0
        headlines = [
            Headline("!!! ...", "reuters", 0, frozenset({"floods"})),
            Headline("fire downtown", "reuters", 0, frozenset({"fires_explosions"})),
        ]
        tfidf, centroids = build_trbc_centroids(headlines, seed=0)
        assert tfidf.doc_count == 2
        assert list(centroids) == ["fires_explosions"]
        assert centroids["fires_explosions"].norm > 0.0

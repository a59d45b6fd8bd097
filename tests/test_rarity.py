"""Background index construction and the commonality score."""

from __future__ import annotations

import random

import pytest

from newsvalue.rarity import (
    TaggedPost,
    build_background,
    grid_cell,
    lambda_discount,
    rarity,
)

TOKYO = grid_cell(35.68, 139.69)
OSAKA = grid_cell(34.69, 135.5)


def _post(lat, lon, country, topic, ts=10):
    return TaggedPost(ts, lat, lon, country, topic)


class TestGridCell:
    def test_rounding(self):
        assert grid_cell(35.68, 139.69) == "35.7,139.7"

    def test_negative_zero_normalized(self):
        assert grid_cell(-0.01, 0.01) == "0.0,0.0"

    def test_negative_coordinates(self):
        assert grid_cell(-33.87, -70.67) == "-33.9,-70.7"


class TestBuildBackground:
    def test_empty(self):
        idx = build_background([], (0, 100))
        assert idx.counts == {} and idx.loc_counts == {}

    def test_hand_counts(self):
        posts = [
            _post(35.68, 139.69, "JP", "quake"),
            _post(35.68, 139.69, "JP", "fire"),
            _post(34.69, 135.5, "JP", "quake"),
        ]
        idx = build_background(posts, (0, 100))
        assert idx.loc_counts[TOKYO] == 2
        assert idx.counts[(TOKYO, "quake")] == 1
        assert idx.country_counts["JP"] == 3
        assert idx.country_topic_counts[("JP", "quake")] == 2
        assert idx.country_loc_counts[("JP", OSAKA)] == 1

    def test_window_boundaries(self):
        inside = _post(35.68, 139.69, "JP", "quake", ts=0)
        at_end = _post(35.68, 139.69, "JP", "quake", ts=100)
        before = _post(35.68, 139.69, "JP", "quake", ts=-1)
        idx = build_background([inside, at_end, before], (0, 100))
        assert idx.country_counts["JP"] == 1

    def test_monotone_ingestion(self):
        posts = [_post(35.68, 139.69, "JP", "quake")] * 3
        counts = []
        for n in range(1, 4):
            idx = build_background(posts[:n], (0, 100))
            counts.append(idx.counts[(TOKYO, "quake")])
        assert counts == sorted(counts)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            build_background([], (10, 10))


class TestLambda:
    def _jp_index(self, tokyo_n, osaka_n):
        posts = [_post(35.68, 139.69, "JP", "quake")] * tokyo_n
        posts += [_post(34.69, 135.5, "JP", "quake")] * osaka_n
        return build_background(posts, (0, 100))

    def test_all_at_location(self):
        idx = self._jp_index(10, 0)
        assert lambda_discount("JP", TOKYO, idx) == 1.0

    def test_fraction(self):
        idx = self._jp_index(8, 2)
        assert lambda_discount("JP", OSAKA, idx) == pytest.approx(0.2)

    def test_unseen_country(self):
        idx = self._jp_index(1, 0)
        assert lambda_discount("FR", TOKYO, idx) == 0.0


class TestRarity:
    def test_saturated_location(self):
        posts = [_post(35.68, 139.69, "JP", "quake")] * 4
        idx = build_background(posts, (0, 100))
        score = rarity((TOKYO, "JP", "quake"), idx)
        assert score.local_term == 1.0

    def test_fixture_value(self):
        # Tokyo: 4 posts, 3 quakes. Japan: 10 posts, 6 quakes, 4 in Tokyo.
        posts = [_post(35.68, 139.69, "JP", "quake")] * 3
        posts += [_post(35.68, 139.69, "JP", "fire")]
        posts += [_post(34.69, 135.5, "JP", "quake")] * 3
        posts += [_post(34.69, 135.5, "JP", "flood")] * 3
        idx = build_background(posts, (0, 100))
        score = rarity((TOKYO, "JP", "quake"), idx)
        assert score.local_term == pytest.approx(0.75)
        assert score.country_term == pytest.approx(0.6)
        assert score.lambda_ == pytest.approx(0.4)
        assert score.value == pytest.approx(0.99)

    def test_unseen_everything(self):
        idx = build_background([], (0, 100))
        score = rarity(("1.0,1.0", "XX", "quake"), idx)
        assert score.value == 0.0

    def test_value_identity(self):
        rng = random.Random(4)
        countries = ["JP", "US", "FR"]
        topics = ["quake", "fire", "flood"]
        posts = [
            _post(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.choice(countries),
                  rng.choice(topics))
            for _ in range(300)
        ]
        idx = build_background(posts, (0, 100))
        for loc in list(idx.loc_counts)[:10]:
            for country in countries:
                for topic in topics:
                    s = rarity((loc, country, topic), idx)
                    assert s.value == pytest.approx(
                        s.local_term + s.lambda_ * s.country_term, abs=1e-9
                    )
                    assert 0.0 <= s.local_term <= 1.0
                    assert 0.0 <= s.country_term <= 1.0
                    assert 0.0 <= s.lambda_ <= 1.0
                    assert 0.0 <= s.value <= 2.0

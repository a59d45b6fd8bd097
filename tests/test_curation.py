"""Source curation: filters, topical re-admission, account typing."""

from __future__ import annotations

import pytest

from conftest import EXPECTED_SURVIVORS, TRBC_VOCAB, curation_fixture
from newsvalue.curation import (
    classify_account,
    curate,
    informativeness,
    local_focus_ratio,
    topical_focus,
)
from newsvalue.errors import DegenerateLabels
from newsvalue.records import Post, SourceProfile, TopicAssignment


# The published operating point: follower cap and local-focus ratio.
OPERATING_POINT = {"follower_cap": 1_000_000, "local_focus_threshold": 0.5}


def _profile(user_id="u", followers=100, location="Houston", **kwargs):
    return SourceProfile(user_id, followers=followers, profile_location=location, **kwargs)


class TestFollowerFilter:
    """The follower cap as curate applies it: followers == cap is kept."""

    def _removed(self, gazetteer, trbc_model, followers):
        tfidf, centroids = trbc_model
        profiles = [_profile(f"u{i}", followers=n) for i, n in enumerate(followers)]
        _, stages, _ = curate(
            profiles, {}, [], gazetteer, centroids, tfidf, seed=0, **OPERATING_POINT
        )
        return stages["removed_follower_cap"]

    def test_over_cap_removed(self, gazetteer, trbc_model):
        assert self._removed(gazetteer, trbc_model, [1_000_001]) == 1

    def test_boundary_retained(self, gazetteer, trbc_model):
        assert self._removed(gazetteer, trbc_model, [999_999]) == 0
        assert self._removed(gazetteer, trbc_model, [1_000_000]) == 0

    def test_empty(self, gazetteer, trbc_model):
        assert self._removed(gazetteer, trbc_model, []) == 0


class TestLocalFocusRatio:
    def _posts(self, places):
        return [Post(f"p{i}", "u", i, f"incident in {place}") for i, place in enumerate(places)]

    def test_all_inside(self, gazetteer):
        ratio = local_focus_ratio(
            _profile(), self._posts(["Houston"] * 10), gazetteer, seed=0
        )
        assert ratio == 1.0

    def test_half_half_is_threshold(self, gazetteer):
        posts = self._posts(["Houston"] * 5 + ["Tokyo"] * 5)
        ratio = local_focus_ratio(_profile(), posts, gazetteer, seed=0)
        assert ratio == 0.5

    def test_no_located_tweets(self, gazetteer):
        posts = [Post(f"p{i}", "u", i, "nothing here") for i in range(4)]
        assert local_focus_ratio(_profile(), posts, gazetteer, seed=0) == 0.0

    def test_unlocated_excluded_from_denominator(self, gazetteer):
        posts = self._posts(["Houston", "Houston"]) + [
            Post("px", "u", 99, "no place mentioned")
        ]
        assert local_focus_ratio(_profile(), posts, gazetteer, seed=0) == 1.0

    def test_unresolvable_profile_location(self, gazetteer):
        with pytest.raises(ValueError, match="profile location 'Atlantis' does not resolve"):
            local_focus_ratio(
                _profile(location="Atlantis"), self._posts(["Houston"]), gazetteer, seed=0
            )

    def test_bounds_and_monotonicity(self, gazetteer):
        for hits in range(0, 6):
            posts = self._posts(["Houston"] * hits + ["Tokyo"] * (6 - hits))
            ratio = local_focus_ratio(_profile(), posts, gazetteer, seed=0)
            assert 0.0 <= ratio <= 1.0
            assert ratio == pytest.approx(hits / 6)

    def test_seed_deterministic_sampling(self, gazetteer):
        posts = self._posts(["Houston", "Tokyo"] * 40)
        a = local_focus_ratio(_profile(), posts, gazetteer, seed=3)
        b = local_focus_ratio(_profile(), posts, gazetteer, seed=3)
        assert a == b


class TestTopicalFocus:
    def test_focused_account_qualifies(self):
        assignments = [
            TopicAssignment("focused", "Crisis/War/Disaster", 30),
            TopicAssignment("diffuse", "Crisis/War/Disaster", 2),
            TopicAssignment("diffuse", "Sports", 2),
            TopicAssignment("diffuse", "Politics", 2),
            TopicAssignment("other", "Sports", 9),
            TopicAssignment("third", "Politics", 4),
        ]
        qualified = topical_focus(assignments)
        assert "focused" in qualified
        assert "other" not in qualified

    def test_uniform_account_does_not_qualify(self):
        assignments = []
        topics = ["Crisis/War/Disaster", "Law/Crime", "Sports", "Politics", "Health"]
        for t in topics:
            assignments.append(TopicAssignment("uniform", t, 3))
        assignments += [
            TopicAssignment("focused", "Crisis/War/Disaster", 30),
            TopicAssignment("focused2", "Law/Crime", 28),
            TopicAssignment("minor", "Sports", 1),
            TopicAssignment("minor2", "Health", 1),
        ]
        qualified = topical_focus(assignments)
        assert "uniform" not in qualified
        assert {"focused", "focused2"} <= qualified

    def test_single_account_qualifies(self):
        qualified = topical_focus([TopicAssignment("only", "Law/Crime", 1)])
        assert qualified == {"only"}

    def test_empty_raises(self):
        with pytest.raises(DegenerateLabels, match="no topic assignments"):
            topical_focus([])


class TestClassifyAccount:
    def _tweets(self, user, words, n=20):
        return [Post(f"{user}-{i}", user, i, " ".join(words)) for i in range(n)]

    def test_fire_account(self, trbc_model):
        tfidf, centroids = trbc_model
        profile = _profile("fd", locally_focused=True)
        tweets = self._tweets("fd", TRBC_VOCAB["fires_explosions"][:4])
        assert classify_account(profile, tweets, centroids, tfidf, seed=0) == "fire_emergency"

    def test_weather_account(self, trbc_model):
        tfidf, centroids = trbc_model
        profile = _profile("wx")
        tweets = self._tweets("wx", TRBC_VOCAB["severe_weather"][:4])
        assert classify_account(profile, tweets, centroids, tfidf, seed=0) == "weather_monitor"

    def test_journalist_by_description(self, trbc_model):
        tfidf, centroids = trbc_model
        profile = _profile(
            "jr", locally_focused=True, description="Reporter covering Toronto. I chase sirens.",
        )
        tweets = self._tweets("jr", TRBC_VOCAB["disasters_accidents"][:4])
        assert classify_account(profile, tweets, centroids, tfidf, seed=0) == "local_journalist"

    def test_non_local_disaster_account_is_monitor(self, trbc_model):
        tfidf, centroids = trbc_model
        profile = _profile("gm", locally_focused=False)
        tweets = self._tweets("gm", TRBC_VOCAB["disasters_accidents"][:4])
        assert classify_account(profile, tweets, centroids, tfidf, seed=0) == "disaster_monitor"

    def test_media_keywords_mean_local_news(self, trbc_model):
        tfidf, centroids = trbc_model
        profile = _profile("ln", locally_focused=True, description="Breaking coverage for the metro area newsroom.")
        tweets = self._tweets("ln", TRBC_VOCAB["disasters_accidents"][:4])
        assert classify_account(profile, tweets, centroids, tfidf, seed=0) == "local_news"

    def test_plain_local_account_is_authority(self, trbc_model):
        tfidf, centroids = trbc_model
        profile = _profile("la", locally_focused=True, description="Official municipal bulletins.")
        tweets = self._tweets("la", TRBC_VOCAB["disasters_accidents"][:4])
        assert classify_account(profile, tweets, centroids, tfidf, seed=0) == "local_authority"

    def test_empty_account_raises(self, trbc_model):
        tfidf, centroids = trbc_model
        with pytest.raises(DegenerateLabels, match="centroid over an empty vector list"):
            classify_account(_profile("e"), [], centroids, tfidf, seed=0)


class TestInformativeness:
    def test_arithmetic(self):
        history = [Post(f"p{i}", "u", i, "x") for i in range(200)]
        assert informativeness(history, 4) == 2.0

    def test_zero_stories(self):
        history = [Post("p", "u", 0, "x")]
        assert informativeness(history, 0) == 0.0

    def test_quake_monitor_average(self):
        history = [Post(f"p{i}", "u", i, "x") for i in range(1000)]
        assert informativeness(history, 28) == pytest.approx(2.8)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="informativeness over an empty history"):
            informativeness([], 3)


class TestCuratePipeline:
    def test_twelve_profile_fixture(self, gazetteer, trbc_model):
        tfidf, centroids = trbc_model
        profiles, tweets, assignments = curation_fixture()
        curated, stages, _ = curate(
            profiles, tweets, assignments, gazetteer, centroids, tfidf,
            seed=7, **OPERATING_POINT,
        )
        got = {p.user_id: p.category for p in curated}
        assert got == EXPECTED_SURVIVORS
        assert stages["input"] == 12
        assert stages["curated"] == 7
        assert stages["removed_follower_cap"] == 1
        assert stages["readmitted_topical"] == 2

    def test_informativeness_in_fixture(self, gazetteer, trbc_model):
        tfidf, centroids = trbc_model
        profiles, tweets, assignments = curation_fixture()
        curated, _, _ = curate(
            profiles, tweets, assignments, gazetteer, centroids, tfidf,
            seed=7, **OPERATING_POINT,
        )
        by_id = {p.user_id: p for p in curated}
        assert by_id["quakebot"].informativeness == pytest.approx(2.8)

    def test_empty_inputs(self, gazetteer, trbc_model):
        tfidf, centroids = trbc_model
        curated, stages, _ = curate(
            {}, {}, [], gazetteer, centroids, tfidf, seed=0, **OPERATING_POINT
        )
        assert curated == []
        assert stages["curated"] == 0

    def test_no_location_not_topical_removed(self, gazetteer, trbc_model):
        tfidf, centroids = trbc_model
        profiles = [_profile("lost", location="")]
        tweets = {"lost": [Post("p", "lost", 0, "hello world")]}
        curated, stages, _ = curate(
            profiles, tweets, [], gazetteer, centroids, tfidf, seed=0, **OPERATING_POINT
        )
        assert curated == []
        assert stages["removed_no_location"] == 1

    def test_readmission_only_from_removed(self, gazetteer, trbc_model):
        # metro_police qualifies topically but survived locally; it must not
        # be duplicated by re-admission.
        tfidf, centroids = trbc_model
        profiles, tweets, assignments = curation_fixture()
        curated, _, _ = curate(
            profiles, tweets, assignments, gazetteer, centroids, tfidf,
            seed=7, **OPERATING_POINT,
        )
        ids = [p.user_id for p in curated]
        assert len(ids) == len(set(ids))
        assert next(p for p in curated if p.user_id == "metro_police").locally_focused

    def test_every_survivor_has_category(self, gazetteer, trbc_model):
        tfidf, centroids = trbc_model
        profiles, tweets, assignments = curation_fixture()
        curated, _, _ = curate(
            profiles, tweets, assignments, gazetteer, centroids, tfidf,
            seed=7, **OPERATING_POINT,
        )
        from newsvalue.records import SOURCE_CATEGORIES

        assert all(p.category in SOURCE_CATEGORIES for p in curated)

    def test_idempotent_on_own_output(self, gazetteer, trbc_model):
        tfidf, centroids = trbc_model
        profiles, tweets, assignments = curation_fixture()
        cfg = dict(OPERATING_POINT, seed=7)
        first, _, _ = curate(profiles, tweets, assignments, gazetteer, centroids, tfidf, **cfg)
        rewrapped = [
            SourceProfile(
                user_id=p.user_id,
                display_name=p.display_name,
                description=p.description,
                followers=p.followers,
                friends=p.friends,
                profile_location=p.profile_location,
            )
            for p in first
        ]
        second, _, _ = curate(rewrapped, tweets, assignments, gazetteer, centroids, tfidf, **cfg)
        assert {p.user_id for p in second} == {p.user_id for p in first}

    def test_seed_deterministic(self, gazetteer, trbc_model):
        tfidf, centroids = trbc_model
        profiles, tweets, assignments = curation_fixture()
        cfg = dict(OPERATING_POINT, seed=11)
        a, _, _ = curate(profiles, tweets, assignments, gazetteer, centroids, tfidf, **cfg)
        b, _, _ = curate(profiles, tweets, assignments, gazetteer, centroids, tfidf, **cfg)
        assert [(p.user_id, p.category, p.informativeness) for p in a] == [
            (p.user_id, p.category, p.informativeness) for p in b
        ]

"""Shared synthetic fixtures: a topic-coded headline corpus, the 12-profile
curation fixture, per-post labeling under a given vocabulary, and file
writers for CLI runs."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from newsvalue.curation import build_trbc_centroids
from newsvalue.geo import load_gazetteer
from newsvalue.labeling import TermTimeIndex, match_to_headlines, propagate_links
from newsvalue.records import Headline, Post, SourceProfile, TopicAssignment
from newsvalue.textvec import tokenize, vectorize

BASE_TS = 1_500_000_000  # 2017-07-14 02:40 UTC
GAZETTEER_PATH = Path(__file__).resolve().parents[1] / "src/newsvalue/data/world_cities.txt"

TRBC_VOCAB = {
    "earthquakes_seismic": ["earthquake", "quake", "seismic", "tremor", "aftershock", "struck"],
    "fires_explosions": ["fire", "blaze", "flames", "explosion", "smoke", "burned"],
    "severe_weather": ["storm", "tornado", "wind", "thunderstorm", "blizzard", "warning"],
    "violence_crime": ["shooting", "police", "suspect", "robbery", "stabbing", "arrested"],
    "disasters_accidents": ["crash", "accident", "collapse", "derailment", "emergency", "rescue"],
    "floods": ["flood", "flooding", "river", "overflow", "levee", "submerged"],
    "terrorism_insurgency": ["bomb", "blast", "terror", "attack", "militants", "explosives"],
    "war_military_conflict": ["war", "troops", "airstrike", "military", "offensive", "front"],
}


def make_wire_headlines(seed: int = 0, per_code: int = 12) -> list[Headline]:
    rng = random.Random(seed)
    outlets = ["reuters", "ap", "afp", "cnn", "bbc"]
    headlines = []
    for code, words in sorted(TRBC_VOCAB.items()):
        for i in range(per_code):
            text = " ".join(rng.sample(words, 4)) + " in region"
            headlines.append(
                Headline(
                    text=text,
                    outlet=outlets[i % len(outlets)],
                    published_at=BASE_TS + i * 3600,
                    topic_codes=frozenset({code}),
                )
            )
    return headlines


@pytest.fixture(scope="session")
def wire_headlines():
    return make_wire_headlines()


@pytest.fixture(scope="session")
def trbc_model(wire_headlines):
    return build_trbc_centroids(wire_headlines, seed=1)


@pytest.fixture(scope="session")
def gazetteer():
    return load_gazetteer(GAZETTEER_PATH)


# ---------------------------------------------------------------------------
# the 12-profile curation fixture (hand-traced: exactly 7 survivors)
# ---------------------------------------------------------------------------

EXPECTED_SURVIVORS = {
    "city_reporter": "local_journalist",
    "daily_gazette": "local_news",
    "global_watch": "disaster_monitor",
    "houston_fire": "fire_emergency",
    "mayors_office": "local_authority",
    "metro_police": "police_traffic",
    "quakebot": "quake_monitor",
}


def _tweets(user: str, n: int, words: list[str], place: str | None, seed: int) -> list[Post]:
    rng = random.Random(seed)
    posts = []
    for i in range(n):
        text = " ".join(rng.sample(words, 3))
        if place:
            text += f" in {place}"
        posts.append(Post(f"{user}-{i}", user, BASE_TS + i * 60, text))
    return posts


def curation_fixture() -> tuple[list[SourceProfile], dict[str, list[Post]], list[TopicAssignment]]:
    profiles = [
        SourceProfile("big_news", "Big News Network", "World headlines around the clock.",
                      followers=5_000_000, profile_location="London"),
        SourceProfile("quakebot", "QuakeBot", "Automated seismic notifications.",
                      followers=200_000, profile_location=""),
        SourceProfile("global_watch", "Global Watch", "Tracking disasters worldwide.",
                      followers=50_000, profile_location="Atlantis"),
        SourceProfile("houston_fire", "Houston Fire Dept", "Official incident feed.",
                      followers=20_000, profile_location="Houston"),
        SourceProfile("metro_police", "Metro Police", "Incident reports and appeals.",
                      followers=30_000, profile_location="London"),
        SourceProfile("city_reporter", "Dana Q.", "Reporter covering Toronto. I chase sirens.",
                      followers=8_000, profile_location="Toronto"),
        SourceProfile("daily_gazette", "Paris Daily Gazette", "Breaking news and headlines for Paris.",
                      followers=90_000, profile_location="Paris"),
        SourceProfile("mayors_office", "Mayor of Tokyo", "Official bulletins from the office of the mayor.",
                      followers=5_000, profile_location="Tokyo"),
        SourceProfile("nolocation_blog", "Anon Blog", "Opinions and memes.",
                      followers=1_000, profile_location=""),
        SourceProfile("wanderer", "Wandering Lens", "Photos from everywhere.",
                      followers=15_000, profile_location="Houston"),
        SourceProfile("foodie_fan", "Foodie Fan", "Eating my way around the globe.",
                      followers=2_000, profile_location="New York"),
        SourceProfile("tourist_snaps", "Tourist Snaps", "Holiday pictures.",
                      followers=3_000, profile_location="Sydney"),
    ]

    v = TRBC_VOCAB
    tweets = {
        "big_news": _tweets("big_news", 30, v["disasters_accidents"], "London", 1),
        "quakebot": _tweets("quakebot", 1000, v["earthquakes_seismic"], None, 2),
        "global_watch": _tweets("global_watch", 60, v["disasters_accidents"], None, 3),
        "houston_fire": _tweets("houston_fire", 40, v["fires_explosions"], "Houston", 4),
        "metro_police": _tweets("metro_police", 50, v["violence_crime"], "London", 5),
        "city_reporter": _tweets("city_reporter", 25, v["disasters_accidents"], "Toronto", 6),
        "daily_gazette": _tweets("daily_gazette", 40, v["disasters_accidents"], "Paris", 7),
        "mayors_office": _tweets("mayors_office", 20, v["disasters_accidents"], "Tokyo", 8),
        "nolocation_blog": _tweets("nolocation_blog", 10, ["garden", "flowers", "sunset"], None, 9),
        "tourist_snaps": _tweets("tourist_snaps", 12, ["beach", "sunny", "holiday"], None, 11),
    }
    # wanderer claims Houston but posts about other places.
    rng = random.Random(10)
    wanderer = []
    for i, place in enumerate(["Tokyo", "Paris", "Berlin", "Sydney", "London", "Osaka"] * 4):
        words = " ".join(rng.sample(v["disasters_accidents"], 2))
        wanderer.append(Post(f"wanderer-{i}", "wanderer", BASE_TS + i * 60, f"{words} in {place}"))
    tweets["wanderer"] = wanderer
    foodie = []
    for i, place in enumerate(["Paris", "Tokyo", "London", "Mumbai"] * 3):
        foodie.append(Post(f"foodie-{i}", "foodie_fan", BASE_TS + i * 60,
                           f"amazing dinner tonight in {place}"))
    tweets["foodie_fan"] = foodie

    assignments = [
        TopicAssignment("big_news", "Crisis/War/Disaster", 4),
        TopicAssignment("big_news", "Law/Crime", 4),
        TopicAssignment("big_news", "Sports", 4),
        TopicAssignment("big_news", "Entertainment", 4),
        TopicAssignment("big_news", "Politics", 4),
        TopicAssignment("quakebot", "Crisis/War/Disaster", 28),
        TopicAssignment("global_watch", "Crisis/War/Disaster", 15),
        TopicAssignment("houston_fire", "Crisis/War/Disaster", 2),
        TopicAssignment("metro_police", "Law/Crime", 3),
        TopicAssignment("city_reporter", "Crisis/War/Disaster", 1),
        TopicAssignment("daily_gazette", "Crisis/War/Disaster", 2),
        TopicAssignment("mayors_office", "Crisis/War/Disaster", 1),
        TopicAssignment("nolocation_blog", "Entertainment", 5),
        TopicAssignment("wanderer", "Law/Crime", 1),
        TopicAssignment("foodie_fan", "Sports", 12),
    ]
    return profiles, tweets, assignments


# ---------------------------------------------------------------------------
# per-post labeling: the vectors and index label_corpus builds, under a
# vocabulary the test chose
# ---------------------------------------------------------------------------

def match_one(post, headlines, tfidf, threshold):
    index = TermTimeIndex(
        [h.published_at for h in headlines],
        [vectorize(tokenize(h.text), tfidf) for h in headlines],
    )
    return match_to_headlines(post, vectorize(tokenize(post.text), tfidf), index, threshold)


def propagate(results, posts, tfidf, link_threshold, same_user_threshold):
    vectors = {p.post_id: vectorize(tokenize(p.text), tfidf) for p in posts}
    return propagate_links(results, posts, vectors, link_threshold, same_user_threshold)


# ---------------------------------------------------------------------------
# file writers for CLI runs
# ---------------------------------------------------------------------------

def write_ndjson_file(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def headline_record(h: Headline) -> dict:
    """The headlines.ndjson record of a headline."""
    return {"text": h.text, "outlet": h.outlet, "published_at": h.published_at,
            "topic_codes": sorted(h.topic_codes)}


def write_pipeline_inputs(tmp_path, posts=None, headlines=None):
    """Write the curation fixture plus optional post/headline corpora into
    tmp_path; returns the config file path."""
    profiles, tweets, assignments = curation_fixture()
    all_tweets = [t for ts in tweets.values() for t in ts]
    wire = headlines if headlines is not None else make_wire_headlines()

    write_ndjson_file(tmp_path / "profiles.ndjson", (p.to_record() for p in profiles))
    write_ndjson_file(tmp_path / "tweets.ndjson", (t.to_record() for t in all_tweets))
    write_ndjson_file(
        tmp_path / "assignments.ndjson",
        ({"user_id": a.user_id, "topic": a.topic, "count": a.count} for a in assignments),
    )
    write_ndjson_file(tmp_path / "headlines.ndjson", map(headline_record, wire))
    if posts is not None:
        write_ndjson_file(tmp_path / "posts.ndjson", (p.to_record() for p in posts))

    config = {
        "seed": 7,
        "thresholds": {},
        "svm": {"epochs": 30, "folds": 5},
        "paths": {
            "gazetteer": str(GAZETTEER_PATH),
            "profiles": str(tmp_path / "profiles.ndjson"),
            "tweets": str(tmp_path / "tweets.ndjson"),
            "assignments": str(tmp_path / "assignments.ndjson"),
            "headlines": str(tmp_path / "headlines.ndjson"),
            "posts": str(tmp_path / "posts.ndjson"),
            "out_dir": str(tmp_path / "out"),
        },
    }
    config_path = tmp_path / "config.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    return config_path

"""Source-list curation: keep accounts that are small enough, place
themselves somewhere real, and actually tweet about that place; re-admit
discarded accounts that are overwhelmingly about the two disaster topics;
then type each survivor into one of eight categories and score how often
it participates in disaster stories.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import replace
from functools import lru_cache
from math import ceil, log
from pathlib import Path
from typing import Mapping, Sequence

from .errors import DegenerateLabels
from .geo import Gazetteer, geocode, tag_locations
from .records import (
    Headline,
    Post,
    SourceProfile,
    TopicAssignment,
    TRBC_CODES,
    TRBC_DESCENDANTS,
)
from .scope import Taxonomy, load_taxonomy
from .textvec import (
    CentroidSet,
    TfidfModel,
    build_centroids,
    centroid,
    fit_tfidf,
    nearest_centroid,
    tokenize,
    vectorize,
)

_DATA_DIR = Path(__file__).resolve().parent / "data"

SAMPLE_SIZE = 50  # tweets per account for the local-focus ratio
MAX_ACCOUNT_TWEETS = 1000  # tweets per account for its topic centroid
PER_CODE_CAP = 1000  # headlines per topic code for its centroid
TARGET_TOPICS = frozenset({"Law/Crime", "Crisis/War/Disaster"})
TOPICAL_PERCENTILE = 0.80

# Media keywords that separate local news outlets from local authorities.
MEDIA_KEYWORDS = frozenset(
    {"news", "newsdesk", "newsroom", "headlines", "press", "coverage",
     "channel", "station", "tv", "television", "radio"}
)
PERSONAL_PRONOUNS = frozenset({"i", "me", "my", "myself"})

# Centroid codes that map straight to a category; the rest fall into the
# generic disaster/accident group and are split by profile heuristics.
DIRECT_CATEGORY = {
    "fires_explosions": "fire_emergency",
    "violence_crime": "police_traffic",
    "earthquakes_seismic": "quake_monitor",
    "severe_weather": "weather_monitor",
}


@lru_cache(maxsize=None)
def default_occupations() -> Taxonomy:
    return load_taxonomy(_DATA_DIR / "journalist_occupations.txt", "journalist_occupations")


def _stable_seed(seed: int, key: str) -> int:
    return seed ^ zlib.crc32(key.encode("utf-8"))


def local_focus_ratio(
    profile: SourceProfile,
    sample: Sequence[Post],
    g: Gazetteer,
    *,
    seed: int,
) -> float:
    """Share of located sample tweets that geocode inside the profile region.

    Tweets with no tagged location stay out of the denominator; an account
    with zero locatable tweets scores 0 (treated as not locally focused).
    """
    if geocode(profile.profile_location, None, g) is None:
        raise ValueError(f"profile location {profile.profile_location!r} does not resolve")
    posts = list(sample)
    if len(posts) > SAMPLE_SIZE:
        rng = random.Random(_stable_seed(seed, profile.user_id))
        posts = rng.sample(posts, SAMPLE_SIZE)
    hits = located = 0
    for post in posts:
        tagged = tag_locations(post.text, g)
        if tagged:
            start, end, _ = tagged[0]
            located += 1
            hits += geocode(post.text[start:end], profile.profile_location, g) is not None
    return hits / located if located else 0.0


def topical_focus(assignments: Sequence[TopicAssignment]) -> set[str]:
    """Accounts whose tf.idf association with the target topics sits in the
    top 20 percentile.

    Accounts are terms, topics are documents: tf is the account's story
    count inside a topic, idf discounts accounts spread over many topics.
    An account qualifies when its best target-topic score reaches the 80th
    percentile (nearest rank) of all accounts' best scores.
    """
    if not assignments:
        raise DegenerateLabels("no topic assignments")
    topics = sorted({a.topic for a in assignments})
    n_topics = len(topics)
    df: dict[str, int] = {}
    per_topic: dict[str, dict[str, int]] = {t: {} for t in topics}
    for a in assignments:
        per_topic[a.topic][a.user_id] = per_topic[a.topic].get(a.user_id, 0) + a.count
    for topic_counts in per_topic.values():
        for user in topic_counts:
            df[user] = df.get(user, 0) + 1
    scores: dict[str, float] = {}
    for user, user_df in df.items():
        idf = log((1 + n_topics) / (1 + user_df)) + 1.0
        best = 0.0
        for topic in TARGET_TOPICS:
            tf = per_topic.get(topic, {}).get(user, 0)
            best = max(best, tf * idf)
        scores[user] = best
    ordered = sorted(scores.values())
    rank = max(0, ceil(TOPICAL_PERCENTILE * len(ordered)) - 1)
    threshold = ordered[rank]
    return {user for user, s in scores.items() if s >= threshold}


def build_trbc_centroids(
    headlines: Sequence[Headline], *, seed: int
) -> tuple[TfidfModel, CentroidSet]:
    """Per-topic-code centroids over wire headlines.

    Each code is one tf.idf document built from up to PER_CODE_CAP sampled
    headlines; a code with listed descendants only samples headlines not
    also tagged by a descendant, so the parent code's sample stays disjoint.
    """
    by_code: dict[str, list[Headline]] = {code: [] for code in TRBC_CODES}
    for h in headlines:
        for code in h.topic_codes:
            if code not in by_code:
                continue
            descendants = TRBC_DESCENDANTS.get(code, frozenset())
            if descendants & h.topic_codes:
                continue
            by_code[code].append(h)
    sampled: dict[str, list[Headline]] = {}
    for code, items in by_code.items():
        if len(items) > PER_CODE_CAP:
            rng = random.Random(_stable_seed(seed, code))
            items = rng.sample(items, PER_CODE_CAP)
        if items:
            sampled[code] = items
    if not sampled:
        raise DegenerateLabels("no headlines carry known topic codes")
    tokens = {code: [tokenize(h.text) for h in sampled[code]] for code in sorted(sampled)}
    tfidf = fit_tfidf(
        [(code, [t for toks in docs for t in toks]) for code, docs in tokens.items()]
    )
    groups = [(code, [vectorize(toks, tfidf) for toks in docs]) for code, docs in tokens.items()]
    return tfidf, build_centroids(groups)


def classify_account(
    profile: SourceProfile,
    sample_tweets: Sequence[Post],
    trbc_centroids: CentroidSet,
    tfidf: TfidfModel,
    *,
    seed: int,
) -> str:
    """Type an account by its nearest topic-code centroid.

    Fire, police, quake, and weather codes map directly. The generic
    disaster/accident group splits on: journalist wording in the profile
    description, then local focus (non-local means a global monitor), then
    media keywords (news outlet), else local authority.
    """
    tweets = list(sample_tweets)
    if len(tweets) > MAX_ACCOUNT_TWEETS:
        rng = random.Random(_stable_seed(seed, profile.user_id))
        tweets = rng.sample(tweets, MAX_ACCOUNT_TWEETS)
    vectors = [vectorize(tokenize(t.text), tfidf) for t in tweets]
    acct = centroid(vectors)
    code, _sim = nearest_centroid(acct, trbc_centroids)
    direct = DIRECT_CATEGORY.get(code)
    if direct is not None:
        return direct
    description_tokens = set(tokenize(profile.description))
    occupation_words = {t for phrase in default_occupations().terms for t in phrase.split()}
    if description_tokens & (PERSONAL_PRONOUNS | occupation_words):
        return "local_journalist"
    if not profile.locally_focused:
        return "disaster_monitor"
    name_desc_tokens = description_tokens | set(tokenize(profile.display_name))
    if name_desc_tokens & MEDIA_KEYWORDS:
        return "local_news"
    return "local_authority"


def informativeness(history: Sequence[Post], story_memberships: int) -> float:
    """Disaster/accident stories per 100 tweets."""
    if not history:
        raise ValueError("informativeness over an empty history")
    return 100.0 * story_memberships / len(history)


def curate(
    profiles: Sequence[SourceProfile],
    tweets_by_user: Mapping[str, Sequence[Post]],
    assignments: Sequence[TopicAssignment],
    g: Gazetteer,
    trbc_centroids: CentroidSet,
    tfidf: TfidfModel,
    *,
    seed: int,
    follower_cap: int,
    local_focus_threshold: float,
) -> tuple[list[SourceProfile], dict[str, int], list[str]]:
    """Run the full curation pipeline; returns (curated, stage counters,
    one message per skipped profile).

    Profiles removed at any stage remain candidates for topical re-admission.
    A profile that cannot be typed (no tweets) is skipped, not fatal.
    """
    stages = {
        "input": len(profiles),
        "removed_follower_cap": 0,
        "removed_no_location": 0,
        "removed_not_local": 0,
        "readmitted_topical": 0,
        "skipped_errors": 0,
        "curated": 0,
    }
    removed: list[SourceProfile] = []
    survivors: list[SourceProfile] = []
    skipped: list[str] = []

    step1 = []
    for p in profiles:
        if p.followers > follower_cap:
            stages["removed_follower_cap"] += 1
            removed.append(p)
        else:
            step1.append(p)

    step2 = []
    for p in step1:
        entry = geocode(p.profile_location, None, g) if p.profile_location else None
        if entry is None:
            stages["removed_no_location"] += 1
            removed.append(p)
        else:
            step2.append(replace(p, resolved_location=entry))

    for p in step2:
        ratio = local_focus_ratio(p, tweets_by_user.get(p.user_id, ()), g, seed=seed)
        if ratio >= local_focus_threshold:
            survivors.append(replace(p, locally_focused=True))
        else:
            stages["removed_not_local"] += 1
            removed.append(p)

    if assignments:
        qualified = topical_focus(assignments)
        for p in removed:
            if p.user_id in qualified:
                stages["readmitted_topical"] += 1
                survivors.append(replace(p, locally_focused=False))

    story_counts: dict[str, int] = {}
    for a in assignments:
        story_counts[a.user_id] = story_counts.get(a.user_id, 0) + a.count

    curated = []
    for p in survivors:
        history = tweets_by_user.get(p.user_id, ())
        if not history:
            stages["skipped_errors"] += 1
            skipped.append(f"skipping {p.user_id}: account {p.user_id!r} has no tweets to sample")
            continue
        category = classify_account(p, history, trbc_centroids, tfidf, seed=seed)
        info = informativeness(history, story_counts.get(p.user_id, 0))
        curated.append(replace(p, category=category, informativeness=info))

    curated.sort(key=lambda p: p.user_id)
    stages["curated"] = len(curated)
    return curated, stages, skipped

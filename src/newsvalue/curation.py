"""Source-list curation: keep accounts that are small enough, place
themselves somewhere real, and actually tweet about that place; re-admit
discarded accounts that are overwhelmingly about the two disaster topics;
then type each survivor into one of eight categories and score how often
it participates in disaster stories.
"""

from __future__ import annotations

import random
import zlib
from math import ceil
from typing import Mapping, Sequence

from .errors import DegenerateLabels
from .geo import Gazetteer, _within, first_place, geocode
from .records import (
    Headline,
    Post,
    SourceProfile,
    TopicAssignment,
    TRBC_CODES,
    TRBC_DESCENDANTS,
)
from .scope import lexicon
from .textvec import (
    Centroids,
    TfidfModel,
    centroid,
    fit_tfidf,
    nearest_centroid,
    term_weights,
    tokenize,
)

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


def _stable_seed(seed: int, key: str) -> int:
    return seed ^ zlib.crc32(key.encode("utf-8"))


def _capped(items: Sequence, cap: int, seed: int, key: str) -> list:
    """items, or a sample of cap of them seeded by (seed, key) when there
    are more."""
    if len(items) > cap:
        return random.Random(_stable_seed(seed, key)).sample(items, cap)
    return list(items)


def local_focus_ratio(
    profile: SourceProfile,
    sample: Sequence[Post],
    g: Gazetteer,
    *,
    seed: int,
) -> float:
    """Share of located sample tweets whose first place lies inside the
    profile region, its `resolved_location` (a place of `g`, which curate
    sets): one of the place name's entries is `_within` it.

    Tweets with no place name stay out of the denominator; an account
    with zero locatable tweets scores 0 (treated as not locally focused).
    """
    region = profile.resolved_location
    hits = located = 0
    for post in _capped(sample, SAMPLE_SIZE, seed, profile.user_id):
        entries = first_place(tokenize(post.text), g)
        if entries:
            located += 1
            hits += any(_within(e, region, g) for e in entries)
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
    per_topic: dict[str, dict[str, int]] = {t: {} for t in topics}
    for a in assignments:
        per_topic[a.topic][a.user_id] = per_topic[a.topic].get(a.user_id, 0) + a.count
    accounts = fit_tfidf([list(counts) for counts in per_topic.values()])
    scores: dict[str, float] = {}
    for user in accounts.doc_freq:
        idf = accounts.idf(user)
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
) -> tuple[TfidfModel, Centroids]:
    """Per-topic-code centroids over wire headlines, indexed once.

    Each code is one tf.idf document built from up to PER_CODE_CAP sampled
    headlines; a code with listed descendants only samples headlines not
    also tagged by a descendant, so the parent code's sample stays disjoint.
    A centroid is the mean of its headlines' term weights; a code whose
    headlines hold no word token has a zero-norm centroid and is dropped.
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
        if items:
            sampled[code] = _capped(items, PER_CODE_CAP, seed, code)
    if not sampled:
        raise DegenerateLabels("no headlines carry known topic codes")
    tokens = {code: [tokenize(h.text) for h in sampled[code]] for code in sorted(sampled)}
    tfidf = fit_tfidf([[t for toks in docs for t in toks] for docs in tokens.values()])
    centroids = {}
    for code, docs in tokens.items():
        c = centroid(term_weights(toks, tfidf) for toks in docs)
        if c.norm > 0.0:
            centroids[code] = c
    return tfidf, Centroids(centroids)


def classify_account(
    profile: SourceProfile,
    sample_tweets: Sequence[Post],
    trbc_centroids: Centroids,
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
    tweets = _capped(sample_tweets, MAX_ACCOUNT_TWEETS, seed, profile.user_id)
    # the mean of the tweets' term weights; no vector is built per tweet
    account = centroid(term_weights(tokenize(t.text), tfidf) for t in tweets)
    code, _sim = nearest_centroid(account, trbc_centroids)
    direct = DIRECT_CATEGORY.get(code)
    if direct is not None:
        return direct
    description_tokens = set(tokenize(profile.description))
    occupation_words = {t for toks in lexicon("journalist_occupations").token_phrases for t in toks}
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
    trbc_centroids: Centroids,
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
        entry = geocode(p.profile_location, g)
        if entry is None:
            stages["removed_no_location"] += 1
            removed.append(p)
        else:
            step2.append(p._replace(resolved_location=entry))

    for p in step2:
        ratio = local_focus_ratio(p, tweets_by_user.get(p.user_id, ()), g, seed=seed)
        if ratio >= local_focus_threshold:
            survivors.append(p._replace(locally_focused=True))
        else:
            stages["removed_not_local"] += 1
            removed.append(p)

    if assignments:
        qualified = topical_focus(assignments)
        for p in removed:
            if p.user_id in qualified:
                stages["readmitted_topical"] += 1
                survivors.append(p._replace(locally_focused=False))

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
        curated.append(p._replace(category=category, informativeness=info))

    curated.sort(key=lambda p: p.user_id)
    stages["curated"] = len(curated)
    return curated, stages, skipped

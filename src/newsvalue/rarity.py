"""Background-corpus commonality of (location, topic) pairings.

Builds count maps over a three-month background window and scores an event
by how often its topic occurred at its location, plus a country-level term
discounted by how well the country stands in for the specific location.
As defined, the score grows with how COMMON the pairing is; it is exposed
as-is and the downstream linear model learns the sign.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .records import _coordinate, _field, _timestamp


def grid_cell(lat: float, lon: float) -> str:
    """Location id: lat/lon snapped to a 0.1-degree grid."""
    la = round(lat, 1) + 0.0  # + 0.0 turns -0.0 into 0.0
    lo = round(lon, 1) + 0.0
    return f"{la:.1f},{lo:.1f}"


class TaggedPost(NamedTuple):
    """A background post carrying its resolved location and topic."""

    created_at: int
    lat: float
    lon: float
    country: str
    topic: str

    @classmethod
    def from_record(cls, rec: dict) -> "TaggedPost":
        lat, lon = _coordinate(rec, "lat", 90.0), _coordinate(rec, "lon", 180.0)
        if lat is None or lon is None:
            raise ValueError("lat and lon are required")
        return cls(
            created_at=_timestamp(rec["created_at"]),
            lat=lat,
            lon=lon,
            country=_field(rec, "country", "a string"),
            topic=_field(rec, "topic", "a string"),
        )


class BackgroundIndex:
    """Count maps over the background window: by (location, topic), by
    location, by country, by (country, topic), and by (country, location)."""

    def __init__(self):
        self.counts: dict[tuple[str, str], int] = {}
        self.loc_counts: dict[str, int] = {}
        self.country_counts: dict[str, int] = {}
        self.country_topic_counts: dict[tuple[str, str], int] = {}
        self.country_loc_counts: dict[tuple[str, str], int] = {}


def build_background(
    posts: Iterable[TaggedPost], window: tuple[int, int]
) -> BackgroundIndex:
    """Fold posts inside [start, end) into the five count maps."""
    start, end = window
    if end <= start:
        raise ValueError("window end must exceed start")
    idx = BackgroundIndex()
    for post in posts:
        if not start <= post.created_at < end:
            continue
        loc = grid_cell(post.lat, post.lon)
        idx.counts[(loc, post.topic)] = idx.counts.get((loc, post.topic), 0) + 1
        idx.loc_counts[loc] = idx.loc_counts.get(loc, 0) + 1
        idx.country_counts[post.country] = idx.country_counts.get(post.country, 0) + 1
        key_ct = (post.country, post.topic)
        idx.country_topic_counts[key_ct] = idx.country_topic_counts.get(key_ct, 0) + 1
        key_cl = (post.country, loc)
        idx.country_loc_counts[key_cl] = idx.country_loc_counts.get(key_cl, 0) + 1
    return idx


def lambda_discount(country: str, location: str, idx: BackgroundIndex) -> float:
    """Share of the country's posts that sit at this location; 0 when the
    country is unseen."""
    denom = idx.country_counts.get(country, 0)
    if denom == 0:
        return 0.0
    return idx.country_loc_counts.get((country, location), 0) / denom


def rarity(event: tuple[str, str, str], idx: BackgroundIndex) -> float:
    """Score an event given as (location-id, country, topic).

    local = |T(l,s)| / |T(l)|, country = |T(L,s)| / |T(L)| (zero on zero
    denominators); the score is local + lambda * country.
    """
    location, country, topic = event
    loc_total = idx.loc_counts.get(location, 0)
    local = idx.counts.get((location, topic), 0) / loc_total if loc_total else 0.0
    country_total = idx.country_counts.get(country, 0)
    country_term = (
        idx.country_topic_counts.get((country, topic), 0) / country_total
        if country_total
        else 0.0
    )
    return local + lambda_discount(country, location, idx) * country_term

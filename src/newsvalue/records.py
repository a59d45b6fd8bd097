"""Shared record types and newline-delimited JSON file handling.

Every corpus artifact (tweets, profiles, headlines, labels, predictions)
is a file of one JSON object per line so pipelines stay greppable and
streamable. Malformed lines are reported with their line number and
skipped, never fatal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, TypeVar

T = TypeVar("T")

OUTLETS = frozenset({"reuters", "ap", "afp", "cnn", "bbc"})

SOURCE_CATEGORIES = (
    "local_news",
    "local_journalist",
    "fire_emergency",
    "police_traffic",
    "local_authority",
    "disaster_monitor",
    "quake_monitor",
    "weather_monitor",
)

# Disaster-related topic codes; the topic alphabet for account typing,
# tweet topics, and rarity.
TRBC_CODES = (
    "disasters_accidents",
    "earthquakes_seismic",
    "fires_explosions",
    "floods",
    "severe_weather",
    "terrorism_insurgency",
    "violence_crime",
    "war_military_conflict",
)

# Codes whose tagged stories also carry the listed ancestor tag; used when
# sampling per-code headline sets so the ancestor's sample stays disjoint.
TRBC_DESCENDANTS = {
    "disasters_accidents": frozenset(
        {"earthquakes_seismic", "fires_explosions", "floods", "severe_weather"}
    ),
}


# Epoch seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z: the
# whole seconds a UTC datetime can represent.
_TIMESTAMP_MIN, _TIMESTAMP_MAX = -62_135_596_800, 253_402_300_799


# The Python types json.loads gives each JSON kind a field may hold. A JSON
# boolean loads as a bool, so it is never an integer or a number here.
_KINDS = {
    "a string": (str,),
    "an integer": (int,),
    "a number": (int, float),
    "a boolean": (bool,),
}


def _field(rec: dict, key: str, kind: str, default=None):
    """rec[key], or rec.get(key, default) when a default is given;
    ValueError unless it is of kind (a key of _KINDS)."""
    value = rec[key] if default is None else rec.get(key, default)
    if type(value) not in _KINDS[kind]:
        raise ValueError(f"{key} is not {kind}")
    return value


def _id(rec: dict, key: str) -> str:
    """An id field: a string, or an integer read as its digits."""
    value = rec[key]
    if type(value) not in (str, int):
        raise ValueError(f"{key} is neither a string nor an integer")
    return str(value)


def _timestamp(value) -> int:
    """Epoch seconds; ValueError unless an integer a UTC datetime can hold."""
    if type(value) is not int:
        raise ValueError("timestamp is not an integer")
    if not _TIMESTAMP_MIN <= value <= _TIMESTAMP_MAX:
        raise ValueError(f"timestamp {value} out of range")
    return value


def _coordinate(rec: dict, key: str, limit: float) -> Optional[float]:
    """Optional lat/lon number; ValueError outside [-limit, limit] or NaN."""
    if rec.get(key) is None:
        return None
    value = float(_field(rec, key, "a number"))
    if not -limit <= value <= limit:
        raise ValueError(f"{key} {value} outside [-{limit:g}, {limit:g}]")
    return value


@dataclass(frozen=True)
class Post:
    """One short report (tweet-like)."""

    post_id: str
    user_id: str
    created_at: int
    text: str
    lat: Optional[float] = None
    lon: Optional[float] = None

    def to_record(self) -> dict:
        rec = {
            "post_id": self.post_id,
            "user_id": self.user_id,
            "created_at": self.created_at,
            "text": self.text,
        }
        if self.lat is not None:
            rec["lat"] = self.lat
        if self.lon is not None:
            rec["lon"] = self.lon
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Post":
        return cls(
            post_id=_id(rec, "post_id"),
            user_id=_id(rec, "user_id"),
            created_at=_timestamp(rec["created_at"]),
            text=_field(rec, "text", "a string"),
            lat=_coordinate(rec, "lat", 90.0),
            lon=_coordinate(rec, "lon", 180.0),
        )


@dataclass(frozen=True)
class GazetteerEntry:
    """One place: a gazetteer line, or a curated profile's resolved location."""

    name: str
    aliases: tuple[str, ...]
    lat: float
    lon: float
    country_code: str
    admin_parent: Optional[str] = None
    population: Optional[int] = None


@dataclass
class SourceProfile:
    """A candidate or curated reporting account."""

    user_id: str
    display_name: str = ""
    description: str = ""
    followers: int = 0
    friends: int = 0
    profile_location: str = ""
    resolved_location: Optional[GazetteerEntry] = None
    category: Optional[str] = None
    locally_focused: bool = False
    informativeness: float = 0.0

    def to_record(self) -> dict:
        rec = {
            "user_id": self.user_id,
            "display_name": self.display_name,
            "description": self.description,
            "followers": self.followers,
            "friends": self.friends,
            "profile_location": self.profile_location,
            "locally_focused": self.locally_focused,
            "informativeness": self.informativeness,
        }
        if self.category is not None:
            rec["category"] = self.category
        if self.resolved_location is not None:
            rec["resolved_name"] = self.resolved_location.name
            rec["resolved_country"] = self.resolved_location.country_code
            rec["resolved_lat"] = self.resolved_location.lat
            rec["resolved_lon"] = self.resolved_location.lon
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "SourceProfile":
        category = rec.get("category")
        if category is not None and category not in SOURCE_CATEGORIES:
            raise ValueError(f"unknown source category {category!r}")
        resolved = None
        if rec.get("resolved_name") is not None:
            lat = _coordinate(rec, "resolved_lat", 90.0)
            lon = _coordinate(rec, "resolved_lon", 180.0)
            resolved = GazetteerEntry(
                name=_field(rec, "resolved_name", "a string"),
                aliases=(),
                lat=0.0 if lat is None else lat,
                lon=0.0 if lon is None else lon,
                country_code=_field(rec, "resolved_country", "a string", ""),
            )
        return cls(
            user_id=_id(rec, "user_id"),
            display_name=_field(rec, "display_name", "a string", ""),
            description=_field(rec, "description", "a string", ""),
            followers=int(_field(rec, "followers", "a number", 0)),
            friends=int(_field(rec, "friends", "a number", 0)),
            profile_location=_field(rec, "profile_location", "a string", ""),
            resolved_location=resolved,
            category=category,
            locally_focused=_field(rec, "locally_focused", "a boolean", False),
            informativeness=float(_field(rec, "informativeness", "a number", 0.0)),
        )


@dataclass(frozen=True)
class Headline:
    """One wire headline from the five global outlets."""

    text: str
    outlet: str
    published_at: int
    topic_codes: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.outlet not in OUTLETS:
            raise ValueError(f"unknown outlet {self.outlet!r}")

    def to_record(self) -> dict:
        return {
            "text": self.text,
            "outlet": self.outlet,
            "published_at": self.published_at,
            "topic_codes": sorted(self.topic_codes),
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Headline":
        codes = rec.get("topic_codes", [])
        if type(codes) is not list or not all(type(code) is str for code in codes):
            raise ValueError("topic_codes is not a list of strings")
        return cls(
            text=_field(rec, "text", "a string"),
            outlet=_field(rec, "outlet", "a string"),
            published_at=_timestamp(rec["published_at"]),
            topic_codes=frozenset(codes),
        )


@dataclass(frozen=True)
class TopicAssignment:
    """How many stories of one topic an account participated in."""

    user_id: str
    topic: str
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("assignment count must be positive")

    @classmethod
    def from_record(cls, rec: dict) -> "TopicAssignment":
        return cls(_id(rec, "user_id"), _field(rec, "topic", "a string"),
                   _field(rec, "count", "an integer"))

    def to_record(self) -> dict:
        return {"user_id": self.user_id, "topic": self.topic, "count": self.count}


@dataclass(frozen=True)
class LabeledExample:
    """A feature vector plus its noisy global-coverage label."""

    post_id: str
    features: dict[str, float]
    label: bool


def _is_utf8(line: str) -> bool:
    """False when a line read with errors="surrogateescape" held bytes that
    are not UTF-8 (each such byte decodes to a lone surrogate)."""
    if line.isascii():
        return True
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_ndjson(
    path, parse: Callable[[dict], T]
) -> tuple[list[T], list[tuple[int, str]]]:
    """Parse one JSON object per line; returns (records, [(lineno, error)]).

    A line that is not UTF-8, not a JSON object (or nested too deep to
    parse), or that `parse` rejects (missing key, wrong type, a number out
    of range) is an error, not a record.
    """
    out: list[T] = []
    errors: list[tuple[int, str]] = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not _is_utf8(line):
                errors.append((lineno, "invalid UTF-8"))
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                out.append(parse(rec))
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                errors.append((lineno, str(exc) or exc.__class__.__name__))
    return out, errors


def write_ndjson(path, records: Iterable[dict]) -> int:
    """One sorted-key JSON object per line; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
            n += 1
    return n

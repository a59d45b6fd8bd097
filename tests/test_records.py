"""Record parsers take each field as its documented JSON type and reject
any other, so a wrong-typed record is skipped, never coerced."""

from __future__ import annotations

import json

import pytest

from newsvalue.rarity import TaggedPost
from newsvalue.records import Headline, Post, SourceProfile, TopicAssignment, read_ndjson

GOOD = {
    Post: {"post_id": "p1", "user_id": 7, "created_at": 1_500_000_000, "text": "fire",
           "lat": 29.76, "lon": -95},
    SourceProfile: {"user_id": "u", "display_name": "U", "description": "", "followers": 10,
                    "friends": 2.0, "profile_location": "Houston", "locally_focused": True,
                    "informativeness": 2, "category": "local_news", "resolved_name": "Houston",
                    "resolved_country": "US", "resolved_lat": 29.76, "resolved_lon": -95.37},
    Headline: {"text": "fire", "outlet": "ap", "published_at": 0, "topic_codes": ["floods"]},
    TopicAssignment: {"user_id": "u", "topic": "Law/Crime", "count": 3},
    TaggedPost: {"created_at": 0, "lat": 1.5, "lon": 2, "country": "FR", "topic": "floods"},
}

# (record type, field, a wrong-typed value the parser once coerced)
WRONG_TYPED = [
    (Post, "post_id", ["a"]),
    (Post, "user_id", True),
    (Post, "created_at", "1500000000"),
    (Post, "created_at", 1500000000.9),
    (Post, "text", None),
    (Post, "lat", "45"),
    (Post, "lon", True),
    (SourceProfile, "user_id", 1.5),
    (SourceProfile, "display_name", None),
    (SourceProfile, "description", 0),
    (SourceProfile, "profile_location", ["Houston"]),
    (SourceProfile, "followers", True),
    (SourceProfile, "friends", "12"),
    (SourceProfile, "locally_focused", "false"),
    (SourceProfile, "locally_focused", 1),
    (SourceProfile, "informativeness", "2.5"),
    (SourceProfile, "resolved_name", 5),
    (SourceProfile, "resolved_country", None),
    (Headline, "text", 3),
    (Headline, "published_at", 1.0),
    (Headline, "topic_codes", "floods"),
    (Headline, "topic_codes", [1]),
    (TopicAssignment, "user_id", False),
    (TopicAssignment, "topic", None),
    (TopicAssignment, "count", True),
    (TopicAssignment, "count", "3"),
    (TopicAssignment, "count", 2.0),
    (TaggedPost, "country", None),
    (TaggedPost, "topic", 5),
    (TaggedPost, "created_at", "0"),
]


@pytest.mark.parametrize("kind", list(GOOD), ids=lambda kind: kind.__name__)
def test_well_typed_record_round_trips(kind):
    parsed = kind.from_record(GOOD[kind])
    if hasattr(parsed, "to_record"):
        assert kind.from_record(json.loads(json.dumps(parsed.to_record()))) == parsed


@pytest.mark.parametrize(
    "kind, key, value", WRONG_TYPED,
    ids=[f"{kind.__name__}.{key}={value!r}" for kind, key, value in WRONG_TYPED],
)
def test_wrong_typed_field_is_skipped_with_a_message(tmp_path, kind, key, value):
    path = tmp_path / "records.ndjson"
    path.write_text(json.dumps(dict(GOOD[kind], **{key: value})) + "\n")
    records, errors = read_ndjson(path, kind.from_record)
    assert records == []
    [(lineno, message)] = errors
    assert lineno == 1
    assert message.startswith(("timestamp" if key.endswith("_at") else key) + " is ")

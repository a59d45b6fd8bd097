"""Seeded synthetic corpora for the benchmark workloads (stdlib only).

`generate(workload, seed, scale, out_dir, gazetteer)` writes every NDJSON
input the CLI verbs read plus a `config.json`, and returns the config
path. The same (workload, seed, scale) always produces the same bytes.
`scale` multiplies every record count (posts, headlines, profiles,
background rows) while the time span stays fixed, so a 0.5x corpus is half
as dense.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

BASE_TS = 1_500_000_000  # 2017-07-14 02:40 UTC
DAY = 86400

# Topic vocabulary per wire topic code (the codes newsvalue.records knows).
TOPIC_WORDS = {
    "earthquakes_seismic": ["earthquake", "quake", "seismic", "tremor", "aftershock", "struck"],
    "fires_explosions": ["fire", "blaze", "flames", "explosion", "smoke", "burned"],
    "severe_weather": ["storm", "tornado", "wind", "thunderstorm", "blizzard", "warning"],
    "violence_crime": ["shooting", "police", "suspect", "robbery", "stabbing", "arrested"],
    "disasters_accidents": ["crash", "accident", "collapse", "derailment", "emergency", "rescue"],
    "floods": ["flood", "flooding", "river", "overflow", "levee", "submerged"],
    "terrorism_insurgency": ["bomb", "blast", "terror", "attack", "militants", "explosives"],
    "war_military_conflict": ["war", "troops", "airstrike", "military", "offensive", "front"],
}
CODES = sorted(TOPIC_WORDS)
OUTLETS = ["reuters", "ap", "afp", "cnn", "bbc"]
ASSIGNMENT_TOPICS = ["Crisis/War/Disaster", "Law/Crime", "Sports", "Politics", "Entertainment"]

# Places the shipped gazetteer resolves: (surface, lat, lon, country).
PLACES = [
    ("Houston", 29.76, -95.37, "US"), ("Austin", 30.27, -97.74, "US"),
    ("Paris", 48.86, 2.35, "FR"), ("Nice", 43.70, 7.27, "FR"),
    ("London", 51.51, -0.13, "GB"), ("Westminster", 51.50, -0.14, "GB"),
    ("Toronto", 43.65, -79.38, "CA"), ("Tokyo", 35.68, 139.69, "JP"),
    ("Osaka", 34.69, 135.50, "JP"), ("Brussels", 50.85, 4.35, "BE"),
    ("Berlin", 52.52, 13.40, "DE"), ("Sydney", -33.87, 151.21, "AU"),
    ("Mumbai", 19.08, 72.88, "IN"), ("Columbus", 39.96, -83.00, "US"),
    ("San Bernardino", 34.11, -117.29, "US"), ("New York", 40.71, -74.01, "US"),
]
# Sub-places a locally focused account mentions besides its home city.
NEARBY = {"Houston": ["Texas", "Austin"], "London": ["Westminster"], "Paris": ["France"],
          "Tokyo": ["Japan", "Osaka"], "New York": ["Times Square"], "Columbus": ["Ohio"]}


def _vocabulary(size: int) -> list[str]:
    """Pseudo-words from syllables; fixed, independent of any seed."""
    rng = random.Random(0)
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(syllables) for _ in range(rng.randint(2, 3))))
    return sorted(words)


FILLER = _vocabulary(3000)


# ---------------------------------------------------------------------------
# phrase templates for text-rich posts
# ---------------------------------------------------------------------------

def _casualty(rng: random.Random) -> str:
    return rng.choice([
        f"{rng.randint(2, 40)} dead and {rng.randint(3, 90)} injured",
        f"{rng.choice(['three', 'seven', 'twelve', 'dozens of'])} people killed",
        f"{rng.randint(2, 300)} residents evacuated",
        f"death toll rises to {rng.randint(5, 120)}",
    ])


def _magnitude(rng: random.Random) -> str:
    value = f"{rng.randint(3, 8)}.{rng.randint(0, 9)}"
    return rng.choice([f"M{value} earthquake", f"magnitude {value} quake", f"{value} magnitude tremor"])


def _alarm(rng: random.Random) -> str:
    return f"{rng.randint(2, 5)}-alarm fire"


def _acreage(rng: random.Random) -> str:
    return rng.choice([f"{rng.randint(1, 90)},{rng.randint(100, 999)} acres burned",
                       f"{rng.randint(2, 40)} square miles scorched"])


def _vehicle(rng: random.Random) -> str:
    return rng.choice([f"{rng.randint(3, 12)}-car crash",
                       f"{rng.randint(2, 4)} trucks and one van collided"])


def _hail(rng: random.Random) -> str:
    return rng.choice(["golf ball size hail", f"{rng.randint(1, 3)} inch hail", "hail the size of a walnut"])


def _money(rng: random.Random) -> str:
    return rng.choice([f"${rng.randint(2, 90)}.{rng.randint(1, 9)} million in damages",
                       f"losses estimated at {rng.randint(2, 9)}bn",
                       f"${rng.randint(10, 900)}k insurance payout"])


def _address(rng: random.Random) -> str:
    return rng.choice([f"at {rng.randint(100, 9900)} Main Street",
                       f"near exit {rng.randint(1, 99)} on the highway",
                       f"on the {rng.randint(2, 40)}th floor of the building"])


def _time(rng: random.Random) -> str:
    return f"at {rng.randint(1, 12)}:{rng.randint(10, 59)} pm"


PHRASES = (_casualty, _magnitude, _alarm, _acreage, _vehicle, _hail, _money, _address, _time)


@dataclass(frozen=True)
class Shape:
    """Record counts and text shape of one workload at scale 1."""

    posts: int
    headlines: int
    days: int
    echo_frac: float      # posts that paraphrase a headline before it breaks;
                          # half as many again are near-duplicates of echoes
    rich_frac: float      # posts carrying numeric, scope and place phrases
    post_words: tuple[int, int]
    profiles: int
    tweets_per_profile: int
    background: int
    svm: dict


WORKLOADS = {
    "feed-rich": Shape(posts=500, headlines=24, days=2, echo_frac=0.2, rich_frac=0.9,
                       post_words=(6, 10), profiles=120, tweets_per_profile=50,
                       background=3000, svm={"epochs": 10, "folds": 3}),
    "wire-dense": Shape(posts=800, headlines=480, days=14, echo_frac=0.3, rich_frac=0.05,
                        post_words=(4, 8), profiles=60, tweets_per_profile=30,
                        background=300, svm={"epochs": 10, "folds": 3}),
    "model-fit": Shape(posts=200, headlines=96, days=4, echo_frac=0.45, rich_frac=0.3,
                       post_words=(5, 9), profiles=60, tweets_per_profile=30,
                       background=300, svm={}),
}


def _count(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def _headline_text(rng: random.Random, code: str) -> str:
    words = rng.sample(TOPIC_WORDS[code], 3) + rng.sample(FILLER, 3)
    rng.shuffle(words)
    place = rng.choice(PLACES)[0]
    return " ".join(words) + f" in {place}"


def _rich_text(rng: random.Random, base: list[str]) -> str:
    phrases = [f(rng) for f in rng.sample(PHRASES, rng.randint(2, 4))]
    place = rng.choice(PLACES)[0]
    return f"{' '.join(base)} {', '.join(phrases)} in {place}"


def _flags(rng: random.Random, n: int, frac: float) -> list[bool]:
    """Exactly round(n * frac) True values in seeded order, so counts never
    depend on the seed."""
    k = int(round(n * frac))
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def _make_headlines(rng: random.Random, shape: Shape, scale: float) -> list[dict]:
    n = _count(shape.headlines, scale)
    first = DAY // 4
    step = (shape.days * DAY - first) / n
    rows = []
    for i in range(n):
        code = CODES[i % len(CODES)]
        rows.append({
            "text": _headline_text(rng, code),
            "outlet": OUTLETS[i % len(OUTLETS)],
            "published_at": BASE_TS + first + int(i * step) + rng.randrange(0, max(1, int(step))),
            "topic_codes": [code],
        })
    return rows


def _make_posts(rng, shape: Shape, scale: float, headlines: list[dict], users: list[str]) -> list[dict]:
    n = _count(shape.posts, scale)
    n_echo = int(round(n * shape.echo_frac))
    n_variant = n_echo // 2
    kinds = ["echo"] * n_echo + ["variant"] * n_variant + ["chatter"] * (n - n_echo - n_variant)
    rich = _flags(rng, n, shape.rich_frac)
    span = shape.days * DAY
    rows = []
    echoes: list[tuple[str, int]] = []
    for i, kind in enumerate(kinds):
        if kind == "echo":
            h = rng.choice(headlines)
            words = h["text"].split()
            extra = rng.sample(FILLER, 2)
            base = words + extra
            created = h["published_at"] - rng.randrange(600, 6 * 3600)
            echoes.append((" ".join(words[:4] + extra), created))
        elif kind == "variant":
            # a near-duplicate of an echo, posted before it: link candidate
            text, at = rng.choice(echoes)
            base = text.split() + rng.sample(FILLER, 2)
            created = max(BASE_TS, at - rng.randrange(60, 3 * 3600))
        else:
            lo, hi = shape.post_words
            k = rng.randint(lo, hi)
            base = rng.sample(FILLER, k - 2) + rng.sample(TOPIC_WORDS[rng.choice(CODES)], 2)
            created = BASE_TS + rng.randrange(0, span)
        text = _rich_text(rng, base) if rich[i] else " ".join(base)
        rows.append({"user_id": users[i % len(users)], "created_at": created, "text": text})
    rng.shuffle(rows)
    for i, row in enumerate(rows):
        row["post_id"] = f"p{i:06d}"
    return rows


def _make_sources(rng, shape: Shape, scale: float) -> tuple[list[dict], list[dict], list[dict]]:
    n = _count(shape.profiles, scale)
    local_flags = _flags(rng, n, 0.6)
    capped = _flags(rng, n, 0.25)
    placed = _flags(rng, n, 0.85)
    profiles, tweets, assignments = [], [], []
    for i in range(n):
        user = f"u{i:04d}"
        home = PLACES[i % len(PLACES)][0]
        code = CODES[i % len(CODES)]
        role = rng.choice(["Reporter covering", "Breaking news for", "Official updates from", "Photos around"])
        profiles.append({
            "user_id": user,
            "display_name": f"{home} {rng.choice(FILLER)}",
            "description": f"{role} {home}.",
            "followers": 2_000_000 if capped[i] else rng.randint(100, 90_000),
            "friends": rng.randint(10, 5000),
            "profile_location": home if placed[i] else "",
        })
        local = _flags(rng, shape.tweets_per_profile, 0.8 if local_flags[i] else 0.0)
        for j in range(shape.tweets_per_profile):
            if local[j]:
                place = rng.choice([home] + NEARBY.get(home, []))
            else:
                place = rng.choice(PLACES)[0]
            words = rng.sample(TOPIC_WORDS[code], 3) + rng.sample(FILLER, 2)
            tweets.append({"post_id": f"{user}-{j}", "user_id": user,
                           "created_at": BASE_TS + j * 600, "text": f"{' '.join(words)} in {place}"})
        for topic in rng.sample(ASSIGNMENT_TOPICS, 1 + i % 3):
            assignments.append({"user_id": user, "topic": topic, "count": rng.randint(1, 30)})
    return profiles, tweets, assignments


def _make_background(rng, shape: Shape, scale: float) -> list[dict]:
    rows = []
    for _ in range(_count(shape.background, scale)):
        _, lat, lon, country = rng.choice(PLACES)
        rows.append({
            "created_at": BASE_TS - rng.randrange(0, 90 * DAY),
            "lat": round(lat + rng.uniform(-0.2, 0.2), 4),
            "lon": round(lon + rng.uniform(-0.2, 0.2), 4),
            "country": country,
            "topic": rng.choice(CODES),
        })
    return rows


def _write(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def generate(workload: str, seed: int, scale: float, out_dir: Path, gazetteer: Path) -> Path:
    """Write one corpus and its config under out_dir; returns the config path."""
    shape = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}:{scale}")
    out_dir.mkdir(parents=True, exist_ok=True)
    profiles, tweets, assignments = _make_sources(rng, shape, scale)
    headlines = _make_headlines(rng, shape, scale)
    posts = _make_posts(rng, shape, scale, headlines, [p["user_id"] for p in profiles])
    files = {
        "profiles": profiles, "tweets": tweets, "assignments": assignments,
        "headlines": headlines, "posts": posts,
        "background": _make_background(rng, shape, scale),
    }
    paths = {}
    for name, rows in files.items():
        _write(out_dir / f"{name}.ndjson", rows)
        paths[name] = f"{name}.ndjson"
    # Paths are relative to out_dir, where the verbs run, so the bytes do
    # not depend on where the checkout lives.
    paths["gazetteer"] = os.path.relpath(gazetteer, out_dir)
    paths["out_dir"] = "out"
    config = {"seed": seed, "svm": shape.svm, "paths": paths}
    config_path = out_dir / "config.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return config_path

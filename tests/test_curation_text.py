"""The text work of curation: the tokenizer's ASCII path, the account
centroid and the topic-code centroids summed from term weights without a
vector per text, each against a copy of the code it replaced, and the
first-place walk that curate and extract share, which reads no place from
a URL or a mention."""

from __future__ import annotations

import random
import re
import zlib
from unittest import mock

import pytest
from conftest import GAZETTEER_PATH, tagged_locations
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsvalue import curation
from newsvalue.curation import build_trbc_centroids, local_focus_ratio
from newsvalue.errors import DegenerateLabels
from newsvalue.geo import _best_entry, _within, first_place, geocode
from newsvalue.model import NAME_BUCKETS, assemble_features, build_context
from newsvalue.records import TRBC_CODES, TRBC_DESCENDANTS, Headline, Post, SourceProfile
from newsvalue.scope import TextAnalysis
from newsvalue.textvec import (
    SparseVector,
    centroid,
    fit_tfidf,
    term_weights,
    tokenize,
    vectorize,
)

# ---------------------------------------------------------------------------
# the replaced code
# ---------------------------------------------------------------------------

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#(\w)")
_TOKEN_RE = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?|[^\W\d]+")


def ref_tokenize(text):
    text = _URL_RE.sub(" __url__ ", text)
    text = _MENTION_RE.sub(" __user__ ", text)
    text = _HASHTAG_RE.sub(r"\1", text)
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def ref_centroid(vectors):
    if not vectors:
        raise DegenerateLabels("centroid over an empty vector list")
    sums = {}
    for v in vectors:
        for t, w in v.entries.items():
            sums[t] = sums.get(t, 0.0) + w
    n = len(vectors)
    return SparseVector({t: s / n for t, s in sums.items()})


def ref_build_centroids(groups):
    out = {}
    for label, vectors in groups:
        if not vectors:
            continue
        c = ref_centroid(vectors)
        if c.norm > 0.0:
            out[label] = c
    return out


def ref_build_trbc_centroids(headlines, *, seed):
    """build_trbc_centroids as it was: a vector per headline, then the
    mean vector per code, zero-norm means dropped."""
    by_code = {code: [] for code in TRBC_CODES}
    for h in headlines:
        for code in h.topic_codes:
            if code not in by_code:
                continue
            if TRBC_DESCENDANTS.get(code, frozenset()) & h.topic_codes:
                continue
            by_code[code].append(h)
    sampled = {}
    for code, items in by_code.items():
        if len(items) > curation.PER_CODE_CAP:
            rng = random.Random(curation._stable_seed(seed, code))
            items = rng.sample(items, curation.PER_CODE_CAP)
        if items:
            sampled[code] = items
    if not sampled:
        raise DegenerateLabels("no headlines carry known topic codes")
    tokens = {code: [tokenize(h.text) for h in sampled[code]] for code in sorted(sampled)}
    tfidf = fit_tfidf([[t for toks in docs for t in toks] for docs in tokens.values()])
    groups = [(code, [vectorize(toks, tfidf) for toks in docs]) for code, docs in tokens.items()]
    return tfidf, ref_build_centroids(groups)


# ---------------------------------------------------------------------------
# texts
# ---------------------------------------------------------------------------


def _place_names(path, limit=40):
    names = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                name, aliases = line.split("|")[:2]
                names += [name, *aliases.split(";")]
    return [n for n in names if n][:limit]


PLACES = _place_names(GAZETTEER_PATH)

FRAGMENTS = [
    "http://x.co/a", "HTTPS://Example.COM/Path?q=1", "hTTp://", "://", "www.", "WWW.Example.org",
    "wWw", "www", "@", "@user", "@Paris", "@İ", "#", "#Tag", "#1", "##", "İstanbul", "İZMİR", "ı",
    "ſ", "httpſ://t.co", "Ｗ１２", "ＷＷＷ．", "K", "ß", "ﬁre", "٣", "²", "1,200", "5.8",
    "quake", "fire", "in", "the", "of", ",", ".", "-", "!",
]

fragment = st.one_of(
    st.sampled_from(FRAGMENTS),
    st.sampled_from(PLACES),
    st.sampled_from(PLACES).map(str.upper),
    st.text(max_size=4),
)
separator = st.sampled_from(["", " ", " ", "  ", "@", "#", ",", "\n"])
texts = st.one_of(
    st.text(max_size=30),
    st.lists(st.tuples(fragment, separator), max_size=12).map(
        lambda parts: "".join(f + s for f, s in parts)
    ),
)

# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


@settings(max_examples=1000, deadline=None)
@given(texts)
@example("see WWW.Example.org/path now")
@example("İstanbul quake")
@example("HTTPS://T.CO/X @User #Tag")
def test_tokenize_equals_the_general_path(text):
    assert tokenize(text) == ref_tokenize(text)


# ---------------------------------------------------------------------------
# first_place
# ---------------------------------------------------------------------------

# Texts that once gave a place from a URL or a mention, or on which curate
# and extract disagreed (curate took `New @York` as a located tweet outside
# every region, extract as New York).
URL_AND_MENTION_TEXTS = [
    "https://news.example.com/tokyo-fire",
    "thanks @Paris for the help",
    "see www.houston.com now",
    "fire in New @York tonight",
]


@pytest.fixture(scope="module")
def ctx(gazetteer, trbc_model):
    tfidf, centroids = trbc_model
    return build_context(gazetteer, tfidf, centroids, seed=0)


@settings(max_examples=1000, deadline=None)
@given(texts)
@example("quake near New York City and Paris")
@example("İa Paris")
@example("@Paris fire")
@example("all quiet")
@example("fire near New @York and Times #Square")
def test_first_location_is_the_first_tagged_span(ctx, text):
    """The first place (geo.first_place, which curate reads and whose best
    entry the loc_* features of extract read) is the all-places tagger's
    first hit."""
    tagged = tagged_locations(TextAnalysis(text), ctx.gazetteer)
    entries = first_place(tokenize(text), ctx.gazetteer)
    place = _best_entry(entries)
    assert place == (tagged[0][2] if tagged else None)
    features = assemble_features(Post("p", "u", 0, text), None, ctx)
    located = {k for k in features if k.startswith("loc_")}
    if place is None:
        assert not located
    else:
        bucket = zlib.crc32(place.name.lower().encode("utf-8")) % NAME_BUCKETS
        expected = {"loc_present", f"loc_country_{place.country_code}", f"loc_name_b{bucket}"}
        assert expected <= located


def _outside_urls_and_mentions(text):
    """The pieces of the text between its URLs and mentions, found as
    tokenize finds them: URLs first, then mentions in what is left."""
    return [piece for part in _URL_RE.split(text) for piece in _MENTION_RE.split(part)]


# A home region, and a place outside it.
REGIONS = [("Houston", "Tokyo"), ("Texas", "Tokyo"), ("United States", "Tokyo"),
           ("France", "Houston"), ("Japan", "Houston")]


@settings(max_examples=1000, deadline=None)
@given(texts, st.sampled_from(REGIONS))
@example(URL_AND_MENTION_TEXTS[0], REGIONS[0])
@example(URL_AND_MENTION_TEXTS[1], REGIONS[3])
@example(URL_AND_MENTION_TEXTS[2], REGIONS[0])
@example(URL_AND_MENTION_TEXTS[3], REGIONS[2])
@example("#Houston", REGIONS[1])
@example("Times #Square", REGIONS[2])
def test_no_place_from_a_url_or_a_mention(ctx, text, region):
    """The first place is the first place of the text's pieces between
    URLs and mentions, so none is read from a URL or a mention; and
    curate's located/inside decision is the one that extract's entries
    and `_within` give."""
    g = ctx.gazetteer
    entries = first_place(tokenize(text), g)
    pieces = [tagged_locations(TextAnalysis(p), g) for p in _outside_urls_and_mentions(text)]
    expected = next((hits[0][2] for hits in pieces if hits), None)
    assert _best_entry(entries) == expected
    # curate's decision, read from the ratio over the text, a tweet inside
    # the region and one outside it: 1/2 unlocated, 2/3 inside, 1/3 outside
    home, away = region
    anchor = geocode(home, g)
    profile = SourceProfile("u", profile_location=home, resolved_location=anchor)
    tweets = [Post(f"p{i}", "u", i, t) for i, t in enumerate((text, home, f"fire in {away}"))]
    ratio = local_focus_ratio(profile, tweets, g, seed=0)
    if not entries:
        assert ratio == 1 / 2
    elif any(_within(e, anchor, g) for e in entries):
        assert ratio == 2 / 3
    else:
        assert ratio == 1 / 3


@pytest.mark.parametrize("text", URL_AND_MENTION_TEXTS)
def test_urls_and_mentions_name_no_place(ctx, text):
    assert first_place(tokenize(text), ctx.gazetteer) == ()
    features = assemble_features(Post("p", "u", 0, text), None, ctx)
    assert not any(k.startswith("loc_") for k in features)


@pytest.mark.parametrize("text, name", [("#Houston", "Houston"), ("Times #Square", "Times Square")])
def test_a_hashtag_keeps_its_place(ctx, text, name):
    assert _best_entry(first_place(tokenize(text), ctx.gazetteer)).name == name


# ---------------------------------------------------------------------------
# account and topic-code centroids
# ---------------------------------------------------------------------------

tweet_texts = st.lists(
    st.lists(st.sampled_from(["quake", "fire", "storm", "police", "smoke", "in", "Paris",
                              "the", "new", "@user", "#Fire", "İ"]), max_size=8).map(" ".join),
    min_size=1, max_size=8,
)
DOCUMENTS = [tokenize(t) for t in ("quake in Paris", "fire and smoke", "storm storm warning",
                                   "police at the fire")]


def _exact(v):
    return [(t, repr(w)) for t, w in v.entries.items()], repr(v.norm)


@settings(max_examples=500, deadline=None)
@given(tweet_texts)
@example(["fire fire smoke", "smoke quake", "fire quake quake"])
def test_account_centroid_equals_the_mean_of_tweet_vectors(texts):
    """The centroid classify_account builds from the tweets' term weights."""
    tfidf = fit_tfidf(DOCUMENTS)
    expected = ref_centroid([vectorize(ref_tokenize(t), tfidf) for t in texts])
    got = centroid(term_weights(tokenize(t), tfidf) for t in texts)
    assert _exact(got) == _exact(expected)


headline_lists = st.lists(
    st.builds(
        Headline,
        text=st.lists(st.sampled_from(["quake", "fire", "fire", "storm", "police", "flood",
                                       "7.1", "!!!", "@wire", "http://x.co", "İ"]),
                      max_size=6).map(" ".join),
        outlet=st.just("reuters"),
        published_at=st.just(0),
        topic_codes=st.frozensets(st.sampled_from([*TRBC_CODES, "sports"]), max_size=3),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(headline_lists, st.integers(0, 3))
@example([Headline("!!!", "reuters", 0, frozenset({"floods"})),
          Headline("fire", "reuters", 0, frozenset({"fires_explosions"}))], 0)
def test_trbc_centroids_equal_the_mean_of_headline_vectors(headlines, seed):
    """A per-code cap of 3 makes the sampling run, too."""
    with mock.patch.object(curation, "PER_CODE_CAP", 3):
        try:
            expected = ref_build_trbc_centroids(headlines, seed=seed)
        except DegenerateLabels as exc:
            with pytest.raises(DegenerateLabels, match=str(exc)):
                build_trbc_centroids(headlines, seed=seed)
            return
        got = build_trbc_centroids(headlines, seed=seed)
    assert (got[0].doc_count, got[0].doc_freq) == (expected[0].doc_count, expected[0].doc_freq)
    assert [(code, _exact(c)) for code, c in got[1].items()] == [
        (code, _exact(c)) for code, c in expected[1].items()
    ]

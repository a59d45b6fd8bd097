"""The per-tweet text work of curation against copies of the code it
replaced: the tokenizer's ASCII path, first-place tagging and the account
centroid summed without a vector per tweet."""

from __future__ import annotations

import re

from conftest import GAZETTEER_PATH
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsvalue.curation import account_centroid
from newsvalue.errors import DegenerateLabels
from newsvalue.geo import first_location, tagged_locations
from newsvalue.records import Post
from newsvalue.scope import TextAnalysis
from newsvalue.textvec import SparseVector, fit_tfidf, tokenize, vectorize

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
# first_location
# ---------------------------------------------------------------------------


@settings(max_examples=1000, deadline=None)
@given(texts)
@example("quake near New York City and Paris")
@example("İa Paris")
@example("@Paris fire")
@example("all quiet")
def test_first_location_is_the_first_tagged_span(gazetteer, text):
    tagged = tagged_locations(TextAnalysis(text), gazetteer)
    assert first_location(text, gazetteer) == (tagged[0][:2] if tagged else None)


# ---------------------------------------------------------------------------
# account centroid
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
    tfidf = fit_tfidf(DOCUMENTS)
    tweets = [Post(f"p{i}", "u", i, t) for i, t in enumerate(texts)]
    expected = ref_centroid([vectorize(ref_tokenize(t), tfidf) for t in texts])
    got = account_centroid(tweets, tfidf)
    assert _exact(got) == _exact(expected)

"""One analysis per text: masking and feature assembly against a reference
copy of the composition that analysed every text once per consumer.

The reference below scans the six scope patterns separately for masking,
for the scope indicators and for the claimed spans; runs one greedy
longest-match scan per taxonomy over its own token_spans list; and
tokenizes the whole tweet again for every numeric phrase. The shared
TextAnalysis, the merged phrase table and the hoisted impact work must
give exactly its masked text and feature vectors, float for float.
"""

from __future__ import annotations

import itertools
import math
import re
import string
import sys
import zlib
from dataclasses import replace

import pytest
from conftest import match_one, propagate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsvalue import geo, impact, labeling, model, scope, spans, textvec
from newsvalue.geo import geocode, tag_locations
from newsvalue.impact import (
    _CURRENCY_CHARS,
    _MIXED_RE,
    _TS_RE,
    _TZ_PERIOD,
    _ATTACHED_SUFFIX_RE,
    ImpactFeatureRow,
    _chunk_stop,
    default_address_terms,
    default_human_impact_terms,
    default_site_terms,
    numeric_phrases,
)
from newsvalue.labeling import _claimed_spans, default_mask_rules, mask_taxonomy_tokens
from newsvalue.model import NAME_BUCKETS, _scope_features, assemble_features, build_context
from newsvalue.rarity import grid_cell, rarity
from newsvalue.records import Headline, Post, SourceProfile
from newsvalue.scope import (
    ScopeFeatures,
    TextAnalysis,
    Taxonomy,
    default_fire_causes,
    default_scale_lexicon,
    find_alarm_levels,
    find_hail_sizes,
    find_quake_magnitudes,
    find_vehicle_counts,
    find_weather_scales,
    find_wildfire_sizes,
)
from newsvalue.spans import PhraseTable, select_spans
from newsvalue.textvec import nearest_centroid, token_spans, tokenize, vectorize

SETTINGS = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# reference: every consumer analyses the text on its own
# ---------------------------------------------------------------------------

def ref_phrase_matches(tokens, phrases, max_len):
    out = []
    i, n = 0, len(tokens)
    while i < n:
        for length in range(min(max_len, n - i), 0, -1):
            cand = tuple(tokens[i : i + length])
            if cand in phrases:
                out.append((i, i + length, phrases[cand]))
                i += length
                break
        else:
            i += 1
    return out


def ref_phrase_spans(text, phrases):
    toks = token_spans(text)
    max_len = max((len(p) for p in phrases), default=1)
    hits = ref_phrase_matches([tok for tok, _, _ in toks], phrases, max_len)
    return [(toks[i][1], toks[j - 1][2], payload) for i, j, payload in hits]


def ref_match(tax, tokens):
    max_len = max(len(p) for p in tax.token_phrases)
    return [hit for _, _, hit in ref_phrase_matches(tokens, tax.token_phrases, max_len)]


def ref_scope_pattern_spans(text):
    cands = []
    cands.extend((s, e, "scope_alarm_level") for s, e, _ in find_alarm_levels(text))
    cands.extend((s, e, "scope_quake_magnitude") for s, e, _ in find_quake_magnitudes(text))
    cands.extend((s, e, "scope_wildfire_size") for s, e, _ in find_wildfire_sizes(text))
    cands.extend((s, e, "scope_vehicle_count") for s, e, _ in find_vehicle_counts(text))
    cands.extend((s, e, "scope_weather_scale") for s, e, _ in find_weather_scales(text))
    cands.extend((s, e, "scope_hail_size") for s, e, _ in find_hail_sizes(text))
    return select_spans(cands)


def _ref_taxonomy_rule(name, tax):
    return lambda text: [(s, e, name) for s, e, _ in ref_phrase_spans(text, tax.token_phrases)]


MASK_NAMES = (
    "scope_scale_adj", "scope_fire_cause", "impact_human_term",
    "impact_address_term", "impact_site_term",
)


def ref_mask_rules(*taxonomies):
    """The six mask callables: scope patterns, then one per taxonomy (by
    default the shipped ones, in mask order)."""
    return (ref_scope_pattern_spans,) + tuple(
        _ref_taxonomy_rule(name, tax)
        for name, tax in zip(MASK_NAMES, taxonomies or ALL_TAXONOMIES)
    )


def ref_mask_spans(text, rules):
    return select_spans([span for rule in rules for span in rule(text)])


def ref_mask(text, rules):
    out = text
    for start, end, name in reversed(ref_mask_spans(text, rules)):
        out = out[:start] + name + out[end:]
    return out


def ref_extract_scope(text):
    tokens = tokenize(text)
    scales = find_weather_scales(text)
    hails = find_hail_sizes(text)
    quakes = find_quake_magnitudes(text)
    quake = None
    if quakes:
        pool = [c for c in quakes if c[2][0] == "richter"] or quakes
        quake = max(pool, key=lambda c: (c[2][1], -c[0]))[2]
    alarms = [v for _, _, v in find_alarm_levels(text)]
    sizes = [v for _, _, v in find_wildfire_sizes(text)]
    vehicles = [v for _, _, v in find_vehicle_counts(text)]
    fires = ref_match(default_fire_causes(), tokens)
    return ScopeFeatures(
        scale_adjectives=tuple(ref_match(default_scale_lexicon(), tokens)),
        alarm_level=max(alarms) if alarms else None,
        fire_cause=fires[0] if fires else None,
        quake_magnitude=quake,
        wildfire_size_acres=max(sizes) if sizes else None,
        vehicle_count=max(vehicles) if vehicles else None,
        weather_scale=max(scales, key=lambda c: (c[2][1], -c[0]))[2] if scales else None,
        hail_size_inches=max(v for _, _, v in hails) if hails else None,
    )


def ref_context_tokens(text, span):
    toks = token_spans(text)
    left = [(t, s, e) for t, s, e in toks if e <= span[0]]
    right = [(t, s, e) for t, s, e in toks if s >= span[1]]
    picked_left = []
    boundary = span[0]
    for tok, start, end in reversed(left):
        if text[end:boundary].strip(" -") or _chunk_stop(tok) or len(picked_left) >= 2:
            break
        picked_left.append(tok)
        boundary = start
    out = list(reversed(picked_left))
    picked_right = 0
    boundary = span[1]
    for tok, start, end in right:
        if text[boundary:start].strip(" -") or _chunk_stop(tok) or picked_right >= 3:
            break
        out.append(tok)
        picked_right += 1
        boundary = end
    return tuple(out)


def ref_numeric_phrases(text):
    return [
        replace(p, context_tokens=ref_context_tokens(text, p.span))
        for p in numeric_phrases(TextAnalysis(text))
    ]


def ref_impact_features(p, text):
    start, end = p.span
    raw = p.raw
    before = text[max(0, start - 2) : start]
    after = text[end : end + 2]
    near = set(tokenize(text[max(0, start - 12) : min(len(text), end + 12)]))
    tweet_tokens = tokenize(text)
    triple = []
    for weights in impact.default_category_tfidf():  # address, human, financial
        best = 0.0
        for tok in tweet_tokens:
            w = weights.get(tok, 0.0)
            if w > best:
                best = w
        triple.append(best)
    context = list(p.context_tokens)
    return ImpactFeatureRow(
        mixed_alnum=bool(_MIXED_RE.search(raw)),
        currency_symbol=any(c in _CURRENCY_CHARS for c in before + after + raw),
        monetary_suffix=bool(_ATTACHED_SUFFIX_RE.search(raw)),
        timestamp_symbol=bool(_TS_RE.search(raw)),
        timezone_or_period=bool(near & _TZ_PERIOD),
        human_terms_hits=len(ref_match(default_human_impact_terms(), context)),
        address_terms_hits=len(ref_match(default_address_terms(), context)),
        tfidf_triple=(triple[0], triple[1], triple[2]),
    )


def ref_tag_locations(text, g):
    phrases = {}
    for entry in g.entries:
        for surface in (entry.name, *entry.aliases):
            key = tuple(tokenize(surface))
            if key:
                phrases.setdefault(key, []).append(entry)
    out = []
    for start, end, cands in ref_phrase_spans(text, phrases):
        entry = geo._best_entry(cands)
        if entry is not None:
            out.append((start, end, entry))
    return out


def ref_assemble_features(post, source, ctx, rules):
    features = {}
    masked = ref_mask(post.text, rules)
    tvec = vectorize(tokenize(masked), ctx.tfidf)
    for term, weight in sorted(tvec.entries.items()):
        features[f"text_{term}"] = weight
    topic = None
    if tvec.norm > 0.0:
        label, sim = nearest_centroid(tvec, ctx.centroids)
        if sim > 0.0:
            topic = label
            features[f"topic_{label}"] = 1.0
    features.update(_scope_features(ref_extract_scope(post.text)))
    claimed = [(s, e) for s, e, _ in ref_scope_pattern_spans(post.text)]
    human_count = financial_count = 0
    human_max = 0.0
    for phrase in ref_numeric_phrases(post.text):
        if any(phrase.span[0] < e and s < phrase.span[1] for s, e in claimed):
            continue
        row = ref_impact_features(phrase, post.text)
        label = ctx.impact_model.predict(dict(row.as_features()))
        if label == "human_impact":
            human_count += 1
            if phrase.value is not None:
                human_max = max(human_max, phrase.value)
        elif label == "financial_impact":
            financial_count += 1
    if human_count:
        features["impact_human_count"] = float(human_count)
        if human_max > 0.0:
            features["impact_human_max"] = math.log1p(human_max)
    if financial_count:
        features["impact_financial_count"] = float(financial_count)
    site_hits = ref_match(default_site_terms(), tokenize(post.text))
    if site_hits:
        features["impact_site_count"] = float(len(site_hits))
    tagged = ref_tag_locations(post.text, ctx.gazetteer)
    entry = tagged[0][2] if tagged else None
    if entry is None and source is not None and source.locally_focused:
        entry = source.resolved_location
    if entry is not None:
        features["loc_present"] = 1.0
        features["loc_lat"] = entry.lat / 90.0
        features["loc_lon"] = entry.lon / 180.0
        bucket = zlib.crc32(entry.name.lower().encode("utf-8")) % NAME_BUCKETS
        features[f"loc_name_b{bucket}"] = 1.0
        features[f"loc_country_{entry.country_code}"] = 1.0
    if ctx.background is not None and topic is not None and entry is not None:
        score = rarity((grid_cell(entry.lat, entry.lon), entry.country_code, topic), ctx.background)
        features["rarity_present"] = 1.0
        if score.value != 0.0:
            features["rarity"] = score.value
    return {k: v for k, v in features.items() if v != 0.0}


# ---------------------------------------------------------------------------
# text strategies
# ---------------------------------------------------------------------------

SCOPE_FRAGMENTS = [
    "3-alarm", "2nd alarm", "M5.8", "m4.1", "magnitude 6.1", "7.2 magnitude",
    "mercalli intensity VII", "shindo 5+", "5,000 acres", "12 sq mi", "3 mile radius",
    "3-car crash", "2 trucks & one car", "four vehicle pile-up", "EF3 tornado",
    "tornado T4", "force 9", "beaufort 11", "golf ball hail", "hail the size of a baseball",
    "1.75 inch hail", "hail up to 2 inches",
    # digit-free, so only a keyword that needs no digit opens their finder
    "Mercalli VII", "MMI vi", "İNTENSITY 7", "ſix cars and two trucks",
    "hail the size of a golf ball", "pea-sized HAIL", "EMS VIII", "csis ix",
    # each holding the only keyword its finder's gate sees, some spelled
    # with a character that re.IGNORECASE matches to an ASCII letter
    "3-ALARM", "12 ſq mi", "2 mıle radius", "40 square miles", "4 truc\u212as and one van",
    "ſhindo 5+", "JMA 4", "3-ſemi crash", "2-truck collision", "2-bus crash",
    "3 SUV pile-up", "5-lorry crash", "2 trailer collision", "two motorcycle wreck",
    "rated EF2", "TORRO T6", "2 mİle radius", "golf ball haİl",
]
NUMERIC_FRAGMENTS = [
    "12 dead", "$2 million in damages", "a dozen homes", "hundreds of thousands",
    "dozens of", "several", "06:02 UTC", "5/20", "May-20", "four thousand two hundred six",
    "twenty-one hurt", "1,200 homes", "120MM", "5K", "3 lakh", "2 crore", "12th street",
    "1600 pennsylvania ave", "at 5 pm", "€40 bn", "21 people missing",
]
SOCIAL_FRAGMENTS = [
    "https://t.co/Ab12", "www.example.com/x?y=1", "@firedept", "@user_12", "#wildfire",
    "#M5", "#3alarm", "RT @news:", "@dead", "@st", "https://city.gov/street-fire",
]
ALL_TAXONOMIES = [
    default_scale_lexicon(), default_fire_causes(), default_human_impact_terms(),
    default_address_terms(), default_site_terms(),
]
PHRASES = sorted({term for tax in ALL_TAXONOMIES for term in tax.terms})
# Phrases of one taxonomy that share a token with a phrase of another.
_TOKEN_OWNERS = {}
for _tax in ALL_TAXONOMIES:
    for _term in _tax.terms:
        for _tok in _term.split():
            _TOKEN_OWNERS.setdefault(_tok, set()).add(_tax.name)
OVERLAPPING = sorted(
    t for tax in ALL_TAXONOMIES for t in tax.terms
    if any(len(_TOKEN_OWNERS[tok]) > 1 for tok in t.split())
)
PLACES = ["Jalisco", "Mexico", "New York City", "new york", "Paris", "Tokyo", "london"]
WORDS = ["fire", "crews", "the", "near", "in", "and", "people", "trapped", "of", "on", "-", "a"]
SEPARATORS = [" ", " ", ", ", ". ", "-", " - ", ": ", "\n", "  "]
EDGE_CHARS = ["٣", "²", "İ", "ı", "ﬁ", "Ⅻ", "́", "​", "𝟓", "Ⅸ", "ß", "ǅ", "\x00", "ſ", "\u212a"]

fragment = st.one_of(
    st.sampled_from(SCOPE_FRAGMENTS),
    st.sampled_from(NUMERIC_FRAGMENTS),
    st.sampled_from(SOCIAL_FRAGMENTS),
    st.sampled_from(PHRASES),
    st.sampled_from(OVERLAPPING or PHRASES),
    st.sampled_from(PLACES),
    st.sampled_from(WORDS),
)


@st.composite
def texts(draw, parts=fragment, max_parts=12):
    chunks = draw(st.lists(parts, max_size=max_parts))
    out = ""
    for chunk in chunks:
        out += draw(st.sampled_from(SEPARATORS)) + chunk
    if draw(st.booleans()):
        out = out.upper()
    return out


# Text units and the phrase each contributes to a custom taxonomy. "3 alarm"
# and "m5.8" cover exactly the characters of the alarm and quake patterns
# in "3-alarm" and "M5.8", so their spans tie with the pattern's.
UNITS = [
    ("fire", "fire"), ("truck", "truck"), ("gas", "gas"), ("leak", "leak"),
    ("3-alarm", "3 alarm"), ("M5.8", "m5.8"), ("@user", "user"), ("#fire", "fire"),
]


@st.composite
def overlapping_taxonomies(draw):
    """A text of units, and five taxonomies whose phrases are windows of
    it: phrases of different taxonomies overlap, nest and coincide."""
    units = draw(st.lists(st.sampled_from(UNITS), min_size=1, max_size=10))
    windows = [
        " ".join(phrase for _, phrase in units[i : i + n])
        for n in (1, 2, 3) for i in range(len(units) - n + 1)
    ]
    windows = [w for w in windows if len(tokenize(w)) <= 4]
    extra = st.sampled_from([phrase for _, phrase in UNITS])
    terms = [
        draw(st.lists(st.sampled_from(windows) | extra, min_size=1, max_size=4))
        for _ in range(5)
    ]
    text = "".join(draw(st.sampled_from(SEPARATORS)) + unit for unit, _ in units)
    if draw(st.booleans()):
        text += " https://t.co/fire"
    return [Taxonomy(f"t{i}", ts) for i, ts in enumerate(terms)], text


@pytest.fixture(scope="module")
def ctx(gazetteer, trbc_model):
    tfidf, centroids = trbc_model
    return build_context(gazetteer, tfidf, centroids, seed=0)


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

RULES = default_mask_rules()
REF_RULES = ref_mask_rules()


@SETTINGS
@given(texts())
@example("3-alarm fire at highway bridge, 12 dead, 5,000 acres")
@example("death toll 21 people missing @firedept https://t.co/Ab12 #wildfire")
def test_masking_equals_reference(text):
    assert _claimed_spans(TextAnalysis(text), RULES) == ref_mask_spans(text, REF_RULES)
    assert mask_taxonomy_tokens(text) == ref_mask(text, REF_RULES)


@SETTINGS
@given(overlapping_taxonomies())
def test_masking_with_overlapping_taxonomies_equals_reference(case):
    taxonomies, text = case
    table = PhraseTable(
        [dict.fromkeys(tax.token_phrases, name) for name, tax in zip(MASK_NAMES, taxonomies)]
    )
    got = _claimed_spans(TextAnalysis(text), table)
    assert got == ref_mask_spans(text, ref_mask_rules(*taxonomies))


@SETTINGS
@given(texts(), st.booleans())
@example("Prelim M5.8 earthquake off the coast of Jalisco, Mexico May-20 06:02 UTC", False)
@example("$2 million in damages, 12 dead at 1600 pennsylvania ave @firedept", True)
def test_assemble_features_equals_reference(ctx, text, local):
    source = SourceProfile("u", locally_focused=local)
    if local:
        source = replace(source, resolved_location=geocode("Paris", None, ctx.gazetteer))
    post = Post("p", "u", 0, text)
    expected = ref_assemble_features(post, source, ctx, REF_RULES)
    got = assemble_features(post, source, ctx)
    assert list(got.items()) == list(expected.items())
    assert [repr(v) for v in got.values()] == [repr(v) for v in expected.values()]


@SETTINGS
@given(texts())
@example("RT @news: https://t.co/Ab12 quake near Jalisco, Mexico")
def test_thin_entry_points_equal_reference(gazetteer, text):
    assert tag_locations(text, gazetteer) == ref_tag_locations(text, gazetteer)
    assert TextAnalysis(text).scope() == ref_extract_scope(text)
    assert TextAnalysis(text).pattern_spans == ref_scope_pattern_spans(text)
    assert numeric_phrases(TextAnalysis(text)) == ref_numeric_phrases(text)
    triple = impact._tfidf_triple(tokenize(text))
    for p in numeric_phrases(TextAnalysis(text)):
        assert impact._phrase_row(p, text, triple) == ref_impact_features(p, text)


# ---------------------------------------------------------------------------
# totality over arbitrary Unicode
# ---------------------------------------------------------------------------

unicode_text = st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(EDGE_CHARS), st.sampled_from(SCOPE_FRAGMENTS),
                       st.sampled_from(NUMERIC_FRAGMENTS), st.text(max_size=3)),
             max_size=10).map(" ".join),
)


@settings(max_examples=300, deadline=None)
@given(unicode_text)
@example("٣ dead ² hurt İstanbul ﬁre Ⅻ alarm")
@example("M٣.٥ magnitude, ٣-alarm, ² acres, 𝟓 dead")
def test_extractors_total_over_unicode(ctx, text):
    a = TextAnalysis(text)
    assert all(text[s:e].lower() == tok for tok, s, e in a.spans)
    assert all(isinstance(tok, str) for tok in a.tokens) and len(a.finds) == 6
    assert all(0 <= s < e <= len(text) for s, e, _ in a.pattern_spans)
    assert isinstance(a.scope(), ScopeFeatures)
    for p in numeric_phrases(TextAnalysis(text)):
        assert 0 <= p.span[0] < p.span[1] <= len(text)
    for s, e, _ in tag_locations(text, ctx.gazetteer):
        assert 0 <= s < e <= len(text)
    assert isinstance(mask_taxonomy_tokens(text), str)
    feats = assemble_features(Post("p", "u", 0, text), None, ctx)
    assert all(math.isfinite(v) for v in feats.values())


# ---------------------------------------------------------------------------
# each post is analysed once
# ---------------------------------------------------------------------------

def count_finder_runs(monkeypatch, text):
    """Per feature name, how often its gated finder runs on `text`."""
    found = {name: 0 for name, _, _ in scope._FINDERS}

    def counted(name, fn):
        def finder(t):
            found[name] += t == text
            return fn(t)
        return finder

    monkeypatch.setattr(
        scope, "_FINDERS", tuple((n, gate, counted(n, fn)) for n, gate, fn in scope._FINDERS)
    )
    return found


def test_assemble_features_scans_each_post_once(ctx, monkeypatch):
    text = (
        "Deadly 3-alarm fire at the highway bridge near Paris: 12 dead, 21 people "
        "missing and $2 million in damages after a gas leak, reports @firedept "
        "https://t.co/Ab12 #wildfire, 5,000 acres burned by 06:02 UTC"
    )
    counts = {"token_spans": 0, "tokenize": 0}

    def counting(name, fn):
        def wrapper(arg, *rest):
            if arg == text:
                counts[name] += 1
            return fn(arg, *rest)
        return wrapper

    for mod in (scope, impact, geo, labeling, model, spans, textvec):
        for name, fn in (("token_spans", textvec.token_spans), ("tokenize", textvec.tokenize)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, fn))
    found = count_finder_runs(monkeypatch, text)
    feats = assemble_features(Post("p", "u", 0, text), None, ctx)
    assert feats["impact_human_count"] >= 1 and feats["scope_alarm_level"] == 3.0
    # Each finder runs at most once; the gates open alarm, wildfire and
    # quake ("damages" holds "mag") here.
    opened = {"scope_alarm_level", "scope_quake_magnitude", "scope_wildfire_size"}
    assert found == {name: int(name in opened) for name in found}
    assert counts == {"token_spans": 1, "tokenize": 1}


# ---------------------------------------------------------------------------
# gated finders
# ---------------------------------------------------------------------------

FINDERS = {
    "scope_alarm_level": find_alarm_levels,
    "scope_quake_magnitude": find_quake_magnitudes,
    "scope_wildfire_size": find_wildfire_sizes,
    "scope_vehicle_count": find_vehicle_counts,
    "scope_weather_scale": find_weather_scales,
    "scope_hail_size": find_hail_sizes,
}

# The non-ASCII characters re.IGNORECASE matches to i, s and k.
IGNORECASE_SPELLINGS = {"i": "İı", "s": "ſ", "k": "\u212a"}


@st.composite
def respelled(draw, text):
    """`text` with some of its i, s and k spelled as re.IGNORECASE still
    matches them."""
    return "".join(
        draw(st.sampled_from(c + IGNORECASE_SPELLINGS[c.lower()]))
        if c.lower() in IGNORECASE_SPELLINGS else c
        for c in text
    )


# Every scope fragment, and "<number word> <vehicle noun> crash" for each
# number word and noun: each holds the only keyword its finder's gate sees.
WITNESSES = SCOPE_FRAGMENTS + [
    f"{w} {n} crash" for w, n in zip(scope.WORD_NUMBERS, itertools.cycle(scope._VEH_NOUNS))
]
gate_parts = st.lists(
    st.one_of(
        st.text(max_size=4), texts(max_parts=4), st.sampled_from(WITNESSES),
        st.sampled_from(EDGE_CHARS), st.sampled_from(SEPARATORS),
    ),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*map(respelled, WITNESSES)), gate_parts)
def test_gated_finds_equal_ungated_finders(witnesses, parts):
    """On each witness alone (respelled), on each part alone and on their
    concatenation: a finder that finds something implies its gate hits,
    and the gated finds are the six finders run on every text."""
    gates = {name: gate for name, gate, _ in scope._FINDERS}
    for text in (*witnesses, "".join(parts), *parts):
        folded = text.translate(scope._FOLD).lower()
        digit = re.search(r"\d", text) is not None
        ungated = {name: find(text) for name, find in FINDERS.items()}
        for name, cands in ungated.items():
            if cands:
                assert gates[name](text, folded, digit), (name, text)
        assert TextAnalysis(text).finds == ungated


def test_fold_table_is_every_ignorecase_match_of_an_ascii_letter():
    """The non-ASCII characters re.IGNORECASE matches to an ASCII letter,
    enumerated over every code point, are the fold table's keys, each
    mapped to that letter."""
    others = "".join(map(chr, range(0x80, sys.maxunicode + 1)))
    folds = {}
    for letter in string.ascii_lowercase:
        for m in re.finditer(letter, others, re.IGNORECASE):
            folds[ord(m.group())] = letter
    assert folds == scope._FOLD


@pytest.mark.parametrize(
    "text, runs",
    [
        ("Crews battle a blaze near Paris", set()),
        ("Mercalli VII shaking near Paris", {"scope_quake_magnitude"}),
        ("ſix cars and two trucks near Paris", {"scope_vehicle_count"}),
        ("golf ball HAIL near Paris", {"scope_hail_size"}),
        ("3-alarm fire near Paris", {"scope_alarm_level"}),
        ("٣-alarm fire near Paris", {"scope_alarm_level"}),
        ("M5.8 quake near Paris, 2-bus crash", {"scope_quake_magnitude", "scope_vehicle_count"}),
        ("12 dead near Paris", set()),
    ],
)
def test_finders_run_only_where_their_gate_hits(monkeypatch, text, runs):
    found = count_finder_runs(monkeypatch, text)
    finds = TextAnalysis(text).finds
    assert found == {name: int(name in runs) for name in FINDERS}
    assert finds == {name: find(text) for name, find in FINDERS.items()}


# ---------------------------------------------------------------------------
# labeling tokenizes and vectorizes each masked text once
# ---------------------------------------------------------------------------

def test_label_corpus_tokenizes_and_vectorizes_each_masked_text_once(monkeypatch):
    day = 86400
    headlines = [
        Headline("3-alarm fire destroys warehouse near Paris", "ap", 10 * day + 3600),
        Headline("Magnitude 6.1 quake shakes Tokyo, 12 dead", "reuters", 10 * day + 7200),
        Headline("Old story about a flood in London", "bbc", 9 * day),
    ]
    posts = [
        Post("a", "u1", 10 * day + 1200, "3-alarm fire destroys warehouse near Paris"),
        Post("b", "u2", 10 * day + 600, "magnitude 6.1 quake shakes Tokyo, 12 dead!"),
        Post("c", "u1", 10 * day + 60, "warehouse fire near Paris, crews say, more soon"),
        Post("d", "u3", 10 * day, "story about a flood in London"),
        Post("e", "u4", 10 * day, "bake sale at the community hall"),
    ]
    masked_posts = [replace(p, text=mask_taxonomy_tokens(p.text)) for p in posts]
    masked_headlines = [replace(h, text=mask_taxonomy_tokens(h.text)) for h in headlines]
    masked = [p.text for p in masked_posts] + [h.text for h in masked_headlines]
    tokenized, vectorized = [], []

    def counted_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    def counted_vectorize(tokens, model):
        vectorized.append(tuple(tokens))
        return vectorize(tokens, model)

    monkeypatch.setattr(labeling, "tokenize", counted_tokenize)
    monkeypatch.setattr(labeling, "vectorize", counted_vectorize)
    run = labeling.label_corpus(posts, headlines, 0.5, 0.5, 0.3)
    assert sorted(tokenized) == sorted(masked)
    assert sorted(vectorized) == sorted(tuple(tokenize(t)) for t in masked)
    assert {r.status for r in run.results} == {"matched", "tardy", "unmatched"}
    assert run.stats["via_link"] == 1

    # The vectors label_corpus passes down are those of the masked texts
    # under the shared vocabulary.
    monkeypatch.undo()
    documents = [(f"post:{p.post_id}", tokenize(p.text)) for p in masked_posts]
    documents += [(f"headline:{i}", tokenize(h.text)) for i, h in enumerate(masked_headlines)]
    tfidf = textvec.fit_tfidf(documents)
    first = [match_one(p, masked_headlines, tfidf, 0.5) for p in masked_posts]
    assert run.results == propagate(first, masked_posts, tfidf, 0.5, 0.3)

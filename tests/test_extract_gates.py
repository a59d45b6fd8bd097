"""What `label` and `extract` skip per text gives what they gave without
skipping.

Reference copies of the ungated code: the numeric-phrase scan that runs all
four of its patterns on every text, the phrase-table walk from every
token, the nearest centroid by one `cosine` per centroid, and masking
that walks the taxonomies over `token_spans` and tokenizes the masked
text. The gated scans, the one-pass centroid scoring and the token
strings read without offsets must give exactly their results.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GAZETTEER_PATH, identity
from newsvalue import impact, scope
from newsvalue.geo import load_gazetteer
from newsvalue.impact import NumericPhrase, numeric_phrases
from newsvalue.labeling import default_mask_rules, mask_taxonomy_tokens
from newsvalue.scope import TextAnalysis, fold_key, lexicon
from newsvalue.spans import select_spans
from newsvalue.textvec import (
    Centroids, SparseVector, cosine, nearest_centroid, token_spans, tokenize, vectorize,
)

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def ref_numeric_phrases(a):
    """numeric_phrases with every pattern run on every text."""
    text = a.text
    cands = []
    for m in impact._JOINED_RUN_RE.finditer(text):
        lead = float(m.group(0).split(":")[0].split("/")[0].split("-")[0])
        cands.append((m.start(), m.end(), lead))
    for m in impact._DIGIT_RE.finditer(text):
        value = float(m.group(1).replace(",", ""))
        if m.group(2):
            value *= impact._SCALES[fold_key(m.group(2), impact._SCALES)]
        elif m.group(3):
            value *= impact._SUFFIX_SCALE[fold_key(m.group(3), impact._SUFFIX_SCALE)]
        cands.append((m.start(), m.end(), value))
    for m in impact._SOFT_RE.finditer(text):
        floor = impact._SOFT_FLOORS[fold_key(" ".join(m.group(1).split()), impact._SOFT_FLOORS)]
        cands.append((m.start(), m.end(), floor))
    cands += impact._word_number_runs(text)
    return [
        NumericPhrase((start, end), text[start:end], value, impact._context_tokens(a, (start, end)))
        for start, end, value in select_spans([c for c in cands if math.isfinite(c[2])])
    ]


def ref_matches(table, tokens):
    """PhraseTable.matches walking the trie from every token."""
    out = [[] for _ in range(table._sets)]
    free = [0] * table._sets
    n = len(tokens)
    for i, tok in enumerate(tokens):
        node = table._root.get(tok)
        if node is None:
            continue
        ends = []
        j = i + 1
        while node is not None:
            if None in node:
                ends.append((j, node[None]))
            node = node.get(tokens[j]) if j < n else None
            j += 1
        for j, entries in reversed(ends):
            for slot, payload in entries:
                if free[slot] <= i:
                    out[slot].append((i, j, payload))
                    free[slot] = j
    return out


def ref_masked_text(a):
    """masked_text: the pattern spans and the mask table's hits over
    token_spans, each replaced by its feature name."""
    toks = a.spans
    hits = default_mask_rules().matches([tok for tok, _, _ in toks])
    claimed = select_spans(
        a.pattern_spans + [(toks[i][1], toks[j - 1][2], p) for per_set in hits for i, j, p in per_set]
    )
    out = a.text
    for start, end, name in reversed(claimed):
        out = out[:start] + name + out[end:]
    return out


def ref_nearest_centroid(v, centroids):
    """One cosine per centroid, labels in lexicographic order, first best wins."""
    best_label, best_sim = None, -1.0
    for label in sorted(centroids):
        sim = cosine(v, centroids[label])
        if sim > best_sim:
            best_label, best_sim = label, sim
    return best_label, best_sim


# ---------------------------------------------------------------------------
# numeric phrases
# ---------------------------------------------------------------------------

# The non-ASCII characters re.IGNORECASE matches to i, s and k.
IGNORECASE_SPELLINGS = {"i": "İı", "s": "ſ", "k": "\u212a"}


@st.composite
def respelled(draw, text):
    """`text` with some letters upper-cased and some of its i, s and k
    spelled as re.IGNORECASE still matches them."""
    out = []
    for c in text:
        choices = c + c.upper() + IGNORECASE_SPELLINGS.get(c.lower(), "")
        out.append(draw(st.sampled_from(choices)))
    return "".join(out)


NUMBER_WORDS = sorted(impact._NUMBER_WORDS - {"and", "a", "an"})
SOFT = ["several", "scores of", "scores\nof", "dozens of", "hundreds", "hundreds of thousands",
        "thousands", "lakh", "lakhs", "crore", "crores"]
# Number words inside longer words and URLs: the gates open, no pattern matches.
HIDDEN = ["someone", "weight", "often", "stone", "network", "https://t.co/three-dead",
          "www.example.com/ninety", "sixtyish", "lakhsx", "xseveral", "thousandsfold"]
DIGITS = ["12", "5,000", "3.5", "06:02", "5/20", "07-11", "5K", "120MM", "2bn", "4 million",
          "٣", "²", "1e9", "9" * 400, "9" * 400 + " thousand"]
FILLER = ["dead", "hurt", "homes", "people", "the", "a", "an", "and", "near", "$", "-", "fire"]
SEPARATORS = [" ", "  ", "-", ", ", "\n", ""]

numeric_part = st.one_of(
    st.sampled_from(NUMBER_WORDS).flatmap(respelled),
    st.sampled_from(SOFT).flatmap(respelled),
    st.sampled_from(HIDDEN).flatmap(respelled),
    st.sampled_from(DIGITS),
    st.sampled_from(FILLER),
    st.text(max_size=3),
)


@st.composite
def numeric_texts(draw, parts=numeric_part):
    chunks = draw(st.lists(st.tuples(st.sampled_from(SEPARATORS), parts), max_size=10))
    return "".join(sep + chunk for sep, chunk in chunks)


@settings(max_examples=400, deadline=None)
@given(numeric_texts())
@example("someone often lifts weights https://t.co/three-dead")
@example("ſix dead, la\u212ah homes, ſeveral hurt, SCORES\nOF people")
@example("İ dozen homes and a mİllion dollars, fourteen hurt")
@example("no number here at all")
def test_gated_numeric_phrases_equal_ungated_scan(text):
    a = TextAnalysis(text)
    assert numeric_phrases(a) == ref_numeric_phrases(a)


@settings(max_examples=50, deadline=None)
@given(st.tuples(*map(respelled, NUMBER_WORDS + SOFT)))
def test_each_number_word_and_soft_quantity_alone_opens_its_gate(witnesses):
    """Each keyword, respelled, as the only number in its text."""
    for word in witnesses:
        a = TextAnalysis(f"{word} people hurt")
        assert numeric_phrases(a) == ref_numeric_phrases(a) != []


class _Counted:
    """A compiled pattern whose finditer calls are counted."""

    def __init__(self, pattern, calls, name):
        self._pattern, self._calls, self._name = pattern, calls, name

    def finditer(self, *args):
        self._calls[self._name] += 1
        return self._pattern.finditer(*args)


@pytest.mark.parametrize(
    "text, runs",
    [
        ("Crews battle a blaze near the river", set()),
        ("12 dead near the river", {"_JOINED_RUN_RE", "_DIGIT_RE"}),
        ("ſeveral hurt near the river", {"_SOFT_RE"}),
        ("someone hurt near the river", {"_WORD_RUN_RE"}),
        ("Twenty dead, dozens of homes, 06:02 UTC",
         {"_JOINED_RUN_RE", "_DIGIT_RE", "_SOFT_RE", "_WORD_RUN_RE"}),
    ],
)
def test_numeric_patterns_run_only_where_their_gate_hits(monkeypatch, text, runs):
    names = ("_JOINED_RUN_RE", "_DIGIT_RE", "_SOFT_RE", "_WORD_RUN_RE")
    calls = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(impact, name, _Counted(getattr(impact, name), calls, name))
    a = TextAnalysis(text)
    assert numeric_phrases(a) == ref_numeric_phrases(TextAnalysis(text))
    calls_in_gated = {name: calls[name] - 1 for name in names}  # the reference runs each once
    assert calls_in_gated == {name: int(name in runs) for name in names}


# ---------------------------------------------------------------------------
# phrase tables
# ---------------------------------------------------------------------------

TABLES = {
    **{name: lexicon(name)._table for name in (
        "address_terms", "fire_causes", "human_impact_terms", "journalist_occupations",
        "scale_adjectives", "site_terms")},
    "mask_rules": default_mask_rules(),
    "gazetteer": load_gazetteer(GAZETTEER_PATH)._table,
}


def _phrase_tokens(table):
    """Tokens of the table's phrases, first tokens and later ones."""
    out, stack = set(), [table._root]
    while stack and len(out) < 400:
        node = stack.pop()
        for tok, child in node.items():
            if tok is not None:
                out.add(tok)
                stack.append(child)
    return sorted(out)


PHRASE_TOKENS = {name: _phrase_tokens(table) for name, table in TABLES.items()}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(TABLES)), st.data())
def test_gated_phrase_walk_equals_ungated_walk(name, data):
    table = TABLES[name]
    token = st.one_of(
        st.sampled_from(PHRASE_TOKENS[name]),
        st.sampled_from(["the", "near", "fire", "12", "__url__", "__user__"]),
        st.text(max_size=3),
    )
    tokens = data.draw(st.lists(token, max_size=12))
    assert table.matches(tokens) == ref_matches(table, tokens)
    text = " ".join(tokens)
    assert table.matches(tokenize(text)) == ref_matches(table, tokenize(text))


# ---------------------------------------------------------------------------
# nearest centroid
# ---------------------------------------------------------------------------

TERMS = list("abcdefgh")
weight = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([1.0, 0.1, 0.2, 0.3, 1e-200, 1e200]),
)
vectors = st.dictionaries(st.sampled_from(TERMS), weight, max_size=len(TERMS)).map(SparseVector)


@st.composite
def centroid_sets(draw):
    """Up to five centroids, some repeated under another label, so that
    scores tie."""
    labels = draw(st.lists(st.sampled_from("pqrstuvw"), min_size=1, max_size=5, unique=True))
    cs = {}
    for label in labels:
        if cs and draw(st.booleans()):
            cs[label] = cs[draw(st.sampled_from(sorted(cs)))]
        else:
            cs[label] = draw(vectors)
    return cs


@settings(max_examples=500, deadline=None)
@given(vectors, centroid_sets())
@example(SparseVector({}), {"p": SparseVector({"a": 1.0})})
@example(SparseVector({"a": 1e-200}), {"p": SparseVector({"a": 1.0})})
@example(SparseVector({"a": 0.1, "b": 0.2, "c": 0.3}),
         {"q": SparseVector({"c": 1.0, "b": 1.0, "a": 1.0}), "p": SparseVector({"a": 1.0})})
# more terms than the centroid: dot sums in the centroid's order, 0.3 + 0.2 + 0.1
@example(SparseVector({"a": 0.1, "b": 0.2, "c": 0.3, "d": 1.0}),
         {"q": SparseVector({"c": 1.0, "b": 1.0, "a": 1.0})})
@example(SparseVector({"a": 1.0}), {"q": SparseVector({"a": 2.0}), "p": SparseVector({"a": 3.0})})
def test_one_pass_centroid_scores_equal_one_cosine_each(v, cs):
    label, sim = nearest_centroid(v, Centroids(cs))
    ref_label, ref_sim = ref_nearest_centroid(v, cs)
    assert (label, sim.hex()) == (ref_label, ref_sim.hex())


def test_one_pass_centroid_scores_on_the_topic_centroids(trbc_model, wire_headlines):
    tfidf, centroids = trbc_model
    texts = [h.text for h in wire_headlines] + [
        " ".join(h.text for h in wire_headlines[:40]), "", "bake sale at the community hall",
    ]
    for text in texts:
        v = vectorize(tokenize(text), tfidf)
        label, sim = nearest_centroid(v, centroids)
        ref_label, ref_sim = ref_nearest_centroid(v, centroids)
        assert (label, sim.hex()) == (ref_label, ref_sim.hex())


# ---------------------------------------------------------------------------
# masking: token strings without offsets, tokens reused
# ---------------------------------------------------------------------------

# Every keyword any scope finder's gate reads, digit or not.
GATE_WORDS = [
    "intensity", "mercalli", "mmi", "ems", "csis", "hail", "alarm", "mag", "shindo", "jma", "acre", "sq", "mile", "ef", "force", "beaufort", "torro",
    "tornado", *scope._VEH_NOUNS, *scope.WORD_NUMBERS,
]

masking_part = st.one_of(
    st.sampled_from(identity.DECORATIONS),
    st.sampled_from(GATE_WORDS).flatmap(respelled),
    st.sampled_from(["www.", "WWW.", "Www.x", "://", "@", "#", "İ", "ſ", "\u212a", "\u0130"]),
    st.sampled_from(SOFT + DIGITS + FILLER + ["deadly", "gas leak", "highway bridge", "3-alarm",
                                              "golf ball hail", "M5.8", "caravan", "systems"]),
    st.text(max_size=4),
)


@settings(max_examples=400, deadline=None)
@given(numeric_texts(masking_part))
@example("via WWW.Example.ORG: bake sale at the community hall")
@example("WWW. bake sale at the community hall")
@example("systems business scarce caravan bake sale")
@example("@user says deadly 3-alarm fire near the highway bridge #fire")
@example("İstanbul İZMİR ſ httpſ://t.co/ſ hail")
def test_masked_tokens_equal_tokenize_of_the_masked_text(text):
    assert mask_taxonomy_tokens(text) == tokenize(ref_masked_text(TextAnalysis(text)))


@settings(max_examples=400, deadline=None)
@given(numeric_texts(masking_part))
@example("via WWW.Example.ORG: bake sale")
@example("WWW. bake sale")
@example("İstanbul ſ \u212a")
def test_token_strings_and_tokens_equal_their_token_passes(text):
    """`words` read without offsets, or from spans built first, are the
    strings of token_spans; `tokens` are tokenize's, read first or after
    `words`."""
    strings = [tok for tok, _, _ in token_spans(text)]
    assert TextAnalysis(text).words == strings
    a = TextAnalysis(text)
    a.spans
    assert a.words == strings
    assert TextAnalysis(text).tokens == tokenize(text)
    a = TextAnalysis(text)
    a.words
    assert a.tokens == tokenize(text)

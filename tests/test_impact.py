"""Numeric-phrase extraction, impact features, and the impact classifier."""

from __future__ import annotations

import random
import re
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_linear import reference_train_binary_hinge

from newsvalue.errors import DegenerateLabels, SchemaMismatch
from newsvalue.impact import (
    _NUMBER_WORDS,
    _SCALES,
    _SOFT_FLOORS,
    _WORD_RUN_RE,
    IMPACT_CLASSES,
    ImpactFeatureRow,
    _canonical_rows,
    _phrase_row,
    _tfidf_triple,
    _word_number_runs,
    bootstrap_impact_model,
    impact_labels,
    numeric_phrases,
    parse_word_number,
    train_impact_classifier,
)
from newsvalue.linear import LinearModel, SGDConfig
from newsvalue.scope import TextAnalysis, fold_key, lexicon
from newsvalue.textvec import tokenize


def feature_row(p, text):
    """The eight classifier features of one phrase in its tweet."""
    return _phrase_row(p, text, _tfidf_triple(tokenize(text)))


def sliced_word_number_runs(text):
    """`_word_number_runs` reading each gap and the text before a run as
    slices, with the patterns written out: the oracle for its endpos search."""
    matches = list(_WORD_RUN_RE.finditer(text))
    runs = []
    i = 0
    while i < len(matches):
        j = i
        while j + 1 < len(matches):
            gap = text[matches[j].end() : matches[j + 1].start()]
            if re.fullmatch(r"[\s\-]+(?:and[\s\-]+)?|[\s\-]*", gap) and len(gap) <= 8:
                j += 1
            else:
                break
        start, end = matches[i].start(), matches[j].end()
        lead = re.search(r"\b(an?)[\s\-]+$", text[:start], re.IGNORECASE)
        words = [fold_key(m.group(), _NUMBER_WORDS) for m in matches[i : j + 1]]
        if lead and words and words[0] in _SCALES:
            start = lead.start(1)
            words.insert(0, lead.group(1).lower())
        value = parse_word_number(words)
        if value is not None:
            runs.append((start, end, value))
        i = j + 1
    return runs


RUN_PIECES = (
    "a", "an", "A", "AN", "and", "x", "dozen", "hundred", "two", "five", "ſix",
    " ", "  ", "-", "\n", "         ", ",",
)

# ---------------------------------------------------------------------------
# independent oracle: render 0-9999 in canonical English
# ---------------------------------------------------------------------------

ONES = "zero one two three four five six seven eight nine ten eleven twelve thirteen fourteen fifteen sixteen seventeen eighteen nineteen".split()
TENS = "zero ten twenty thirty forty fifty sixty seventy eighty ninety".split()


def render_english(n: int) -> str:
    assert 0 <= n <= 9999
    if n < 20:
        return ONES[n]
    if n < 100:
        tens, ones = divmod(n, 10)
        return TENS[tens] + (f" {ONES[ones]}" if ones else "")
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        out = f"{ONES[hundreds]} hundred"
        return out + (f" {render_english(rest)}" if rest else "")
    thousands, rest = divmod(n, 1000)
    out = f"{render_english(thousands)} thousand"
    return out + (f" {render_english(rest)}" if rest else "")


class TestWordNumbers:
    def test_brute_force_0_to_9999(self):
        for n in range(10000):
            assert parse_word_number(render_english(n).split()) == n, render_english(n)

    def test_hyphenated(self):
        phrases = numeric_phrases(TextAnalysis("twenty-one hurt"))
        assert phrases[0].value == 21

    def test_a_dozen(self):
        phrases = numeric_phrases(TextAnalysis("a dozen homes evacuated"))
        assert phrases[0].value == 12

    def test_non_number_words(self):
        assert parse_word_number(["banana"]) is None

    @pytest.mark.parametrize(
        "text, runs",
        [
            ("two hundred and five people injured", [(0, 20, 205.0)]),
            ("an\n hundred", [(0, 11, 100.0)]),
            ("a dozen", [(0, 7, 12.0)]),
            ("five - and six", [(0, 14, 11.0)]),
            # a gap of up to 8 characters joins a run, a longer one ends it
            ("five" + " " * 8 + "six", [(0, 15, 11.0)]),
            ("five" + " " * 9 + "six", [(0, 4, 5.0), (13, 16, 6.0)]),
            ("five          hundred hurt", [(0, 4, 5.0), (14, 21, 100.0)]),
        ],
    )
    def test_runs(self, text, runs):
        assert _word_number_runs(text) == runs

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(RUN_PIECES), max_size=12).map("".join))
    @example("a\ndozen")
    @example("xa dozen")
    @example("an -dozen and an hundred")
    def test_runs_match_the_sliced_text_form(self, text):
        assert _word_number_runs(text) == sliced_word_number_runs(text)


def _soft_key(phrase):
    """The _SOFT_FLOORS key the phrase's words name, folded as the regex
    matches them, or None for a phrase that is no soft quantity."""
    key = fold_key(" ".join(phrase.raw.split()), _SOFT_FLOORS)
    return key if key in _SOFT_FLOORS else None


class TestExtractNumericPhrases:
    def test_simple_value_and_context(self):
        phrases = numeric_phrases(TextAnalysis("Reports of 20 victims wounded in shooting"))
        assert len(phrases) == 1
        p = phrases[0]
        assert p.value == 20
        assert p.context_tokens == ("victims", "wounded")

    def test_no_numbers(self):
        assert numeric_phrases(TextAnalysis("no numbers here")) == []

    def test_spans_non_overlapping_and_exact(self):
        rng = random.Random(7)
        fragments = [
            "20 victims", "a dozen homes", "scores of people", "$2 million",
            "06:02 UTC", "1,200 residents", "twenty-one hurt", "5 lakh",
            "thousands displaced", "120MM in damages", "4 dead 12 injured",
        ]
        for _ in range(200):
            text = ", ".join(rng.sample(fragments, rng.randint(1, 5)))
            phrases = numeric_phrases(TextAnalysis(text))
            last_end = -1
            for p in phrases:
                start, end = p.span
                assert start >= last_end, text
                assert text[start:end] == p.raw
                last_end = end

    def test_soft_quantities(self):
        cases = {
            "several homes destroyed": ("several", 3),
            "scores of residents hurt": ("scores of", 20),
            "dozens of cattle lost": ("dozens of", 24),
            "hundreds fled": ("hundreds", 100),
            "thousands displaced": ("thousands", 1000),
        }
        for text, (tag, floor) in cases.items():
            p = numeric_phrases(TextAnalysis(text))[0]
            assert _soft_key(p) == tag
            assert p.value == floor

    def test_lakh_crore(self):
        p = numeric_phrases(TextAnalysis("5 lakh people affected"))[0]
        assert p.value == 500000
        p = numeric_phrases(TextAnalysis("2 crore lost"))[0]
        assert p.value == 20000000

    def test_scale_suffixes(self):
        assert numeric_phrases(TextAnalysis("$3 million pledged"))[0].value == 3e6
        assert numeric_phrases(TextAnalysis("cost 120MM"))[0].value == 120e6
        assert numeric_phrases(TextAnalysis("about 5K attended"))[0].value == 5000

    def test_comma_grouping(self):
        assert numeric_phrases(TextAnalysis("1,200 homes"))[0].value == 1200

    @pytest.mark.parametrize(
        "text, value, soft",
        [
            ("5 thouſand dead", 5000, None), ("2 MİLLİON lost", 2e6, None),
            ("ſeveral hurt", 3, "several"), ("ſcores of people", 20, "scores of"),
            ("hundreds of thouſands fled", 100000, "hundreds of thousands"),
            ("dozenſ of cattle", 24, "dozens of"),
            ("twenty-ſix dead", 26, None), ("FİVE dead", 5, None), ("a dozen and ſıx hurt", 18, None),
        ],
    )
    def test_scale_words_folded_like_the_regex(self, text, value, soft):
        # re.IGNORECASE matches ſ to s and İ and ı to i; str.lower() does not
        [p] = numeric_phrases(TextAnalysis(text))
        assert (p.value, _soft_key(p)) == (value, soft)


class TestImpactFeatures:
    def test_currency_symbol(self):
        text = "losses of $120 reported"
        p = numeric_phrases(TextAnalysis(text))[0]
        assert feature_row(p, text).currency_symbol

    def test_monetary_suffix(self):
        text = "damages at 120MM"
        p = numeric_phrases(TextAnalysis(text))[0]
        row = feature_row(p, text)
        assert row.monetary_suffix
        assert row.mixed_alnum

    def test_timestamp_and_timezone(self):
        text = "May-20 06:02 UTC"
        p = [q for q in numeric_phrases(TextAnalysis(text)) if q.raw == "06:02"][0]
        row = feature_row(p, text)
        assert row.timestamp_symbol
        assert row.timezone_or_period

    def test_human_terms(self):
        text = "12 dead and dozens injured"
        p = numeric_phrases(TextAnalysis(text))[0]
        assert feature_row(p, text).human_terms_hits >= 1

    def test_address_terms(self):
        text = "house fire at 3910 Tangle Ln tonight"
        p = numeric_phrases(TextAnalysis(text))[0]
        assert feature_row(p, text).address_terms_hits >= 1

    def test_tfidf_triple_finite_nonnegative(self):
        text = "about 40 injured on the avenue, damages near $1 million"
        for p in numeric_phrases(TextAnalysis(text)):
            triple = feature_row(p, text).tfidf_triple
            assert all(x >= 0.0 for x in triple)
            assert all(x == x for x in triple)


def synthetic_impact_rows(n: int, seed: int) -> list[tuple[ImpactFeatureRow, str]]:
    """Synthetic dataset whose labels are a noiseless function of the
    feature row (priority rule), used as the classifier oracle."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        kind = rng.randrange(4)
        currency = monetary = timestamp = tz = mixed = False
        human = addr = 0
        ta = th = tf = 0.0
        if kind == 0:  # date/time shaped
            timestamp = rng.random() < 0.9
            tz = rng.random() < 0.6
            mixed = rng.random() < 0.3
        elif kind == 1:  # address shaped
            addr = rng.randint(1, 3)
            mixed = rng.random() < 0.5
            ta = rng.uniform(0.5, 2.0)
        elif kind == 2:  # human impact shaped
            human = rng.randint(1, 3)
            th = rng.uniform(0.5, 2.0)
        else:  # financial shaped
            currency = rng.random() < 0.7
            monetary = not currency or rng.random() < 0.3
            tf = rng.uniform(0.5, 2.0)
        # occasional cross-noise; the label rule below stays the oracle
        if rng.random() < 0.08:
            tz = tz or rng.random() < 0.5
            mixed = mixed or rng.random() < 0.5
        row = ImpactFeatureRow(
            mixed_alnum=mixed,
            currency_symbol=currency,
            monetary_suffix=monetary,
            timestamp_symbol=timestamp,
            timezone_or_period=tz,
            human_terms_hits=human,
            address_terms_hits=addr,
            tfidf_triple=(ta, th, tf),
        )
        rows.append((row, label_rule(row)))
    return rows


def label_rule(row: ImpactFeatureRow) -> str:
    """Noiseless labeling function over the eight features."""
    if row.currency_symbol or row.monetary_suffix:
        return "financial_impact"
    if row.human_terms_hits > row.address_terms_hits:
        return "human_impact"
    if row.address_terms_hits > 0:
        return "address"
    return "date_time"


def _sgd(epochs):
    """The impact classifier's rate and regularizer."""
    return SGDConfig(epochs=epochs, learning_rate=0.01, l2=1e-4)


def _objective(model, cls, rows):
    """The regularized hinge objective of one class's binary fit, the bias
    regularized like a weight."""
    w, b = model.weights[cls], model.bias[cls]
    hinge = sum(
        max(0.0, 1.0 - (1 if label == cls else -1) * model.decision(dict(row.as_features()))[cls])
        for row, label in rows
    )
    return 0.5 * _sgd(1).l2 * (sum(x * x for x in w.values()) + b * b) + hinge / len(rows)


def impact_f1(model, rows):
    """(macro, micro) F1 of the model's predictions over labeled rows."""
    pairs = [(model.predict(dict(row.as_features())), label) for row, label in rows]
    f1s = []
    for cls in IMPACT_CLASSES:
        tp = sum(1 for pred, label in pairs if pred == label == cls)
        fp = sum(1 for pred, label in pairs if pred == cls != label)
        fn = sum(1 for pred, label in pairs if label == cls != pred)
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    micro = sum(1 for pred, label in pairs if pred == label) / len(pairs)
    return sum(f1s) / len(f1s), micro


class TestImpactClassifier:
    def test_separable_synthetic_perfect(self):
        rows = synthetic_impact_rows(400, seed=11)
        model = train_impact_classifier(rows, _sgd(epochs=50), 1)
        assert impact_f1(model, rows)[1] >= 0.99

    def test_two_feature_separable_perfect(self):
        rows = []
        for i in range(40):
            if i % 2 == 0:
                rows.append((ImpactFeatureRow(human_terms_hits=2), "human_impact"))
            else:
                rows.append((ImpactFeatureRow(address_terms_hits=2), "address"))
        model = train_impact_classifier(rows, _sgd(epochs=30), 4)
        correct = sum(model.predict(dict(r.as_features())) == label for r, label in rows)
        assert correct == len(rows)

    def test_single_class_raises(self):
        rows = [(ImpactFeatureRow(), "date_time")] * 5
        with pytest.raises(DegenerateLabels):
            train_impact_classifier(rows, _sgd(epochs=50), 0)

    def test_conflicting_labels_bounded_by_majority(self):
        row = ImpactFeatureRow(human_terms_hits=1)
        rows = [(row, "human_impact")] * 7 + [(row, "address")] * 3
        model = train_impact_classifier(rows, _sgd(epochs=30), 2)
        correct = sum(
            model.predict(dict(r.as_features())) == label for r, label in rows
        )
        assert correct <= 7

    def test_objective_decreases(self):
        # the first epoch's order does not depend on the epoch count, so a
        # 1-epoch fit is the 50-epoch fit after its first epoch
        rows = synthetic_impact_rows(300, seed=12)
        first = train_impact_classifier(rows, _sgd(epochs=1), 3)
        last = train_impact_classifier(rows, _sgd(epochs=50), 3)
        for cls in IMPACT_CLASSES:
            assert _objective(last, cls, rows) < _objective(first, cls, rows)

    def test_seed_reproducible_bit_exact(self):
        rows = synthetic_impact_rows(300, seed=13)
        cfg = _sgd(epochs=50)
        a = train_impact_classifier(rows, cfg, 9)
        b = train_impact_classifier(rows, cfg, 9)
        assert a.weights == b.weights
        assert a.bias == b.bias

    def test_untrained_model_raises(self):
        with pytest.raises(SchemaMismatch, match="model has no classes"):
            LinearModel(kind="impact", classes=(), weights={}, bias={})

    def test_bootstrap_classifies_canonical_phrases(self):
        model = bootstrap_impact_model(seed=0)
        cases = {
            "alert issued 06:02 UTC today": "date_time",
            "$2 million in damages reported": "financial_impact",
            "12 dead after the blast": "human_impact",
            "crews at 3910 Tangle Ln": "address",
        }
        for text, want in cases.items():
            phrases = numeric_phrases(TextAnalysis(text))
            got = set(impact_labels(TextAnalysis(text), phrases, model))
            assert want in got, (text, got)

    def test_tie_break_fixed_class_order(self):
        model = LinearModel(
            kind="impact",
            classes=IMPACT_CLASSES,
            weights={c: {} for c in IMPACT_CLASSES},
            bias={c: 0.0 for c in IMPACT_CLASSES},
        )
        p = numeric_phrases(TextAnalysis("12 anything"))[0]
        assert impact_labels(TextAnalysis("12 anything"), [p], model) == ["date_time"]


def full_features(row):
    """All ten features of a row in their fixed order, zeros included: the
    rows `as_features` gives with its zeros put back."""
    return [
        ("mixed_alnum", 1.0 if row.mixed_alnum else 0.0),
        ("currency_symbol", 1.0 if row.currency_symbol else 0.0),
        ("monetary_suffix", 1.0 if row.monetary_suffix else 0.0),
        ("timestamp_symbol", 1.0 if row.timestamp_symbol else 0.0),
        ("timezone_or_period", 1.0 if row.timezone_or_period else 0.0),
        ("human_terms_hits", float(row.human_terms_hits)),
        ("address_terms_hits", float(row.address_terms_hits)),
        ("tfidf_address", row.tfidf_triple[0]),
        ("tfidf_human", row.tfidf_triple[1]),
        ("tfidf_financial", row.tfidf_triple[2]),
    ]


@lru_cache(maxsize=None)
def full_row_model(seed):
    """The bootstrap model fitted by the dict-keyed reference kernel on the
    canonical rows' full ten-feature rows, class idx in the epoch orders of
    seed * 31 + idx as `train_impact_classifier` draws them."""
    rows = _canonical_rows()
    weights, bias = {}, {}
    for idx, cls in enumerate(IMPACT_CLASSES):
        binary = [(full_features(row), 1 if label == cls else -1) for row, label in rows]
        weights[cls], bias[cls], _, _ = reference_train_binary_hinge(
            binary, _sgd(epochs=50), seed * 31 + idx
        )
    return LinearModel(kind="impact", classes=IMPACT_CLASSES, weights=weights, bias=bias)


cached_bootstrap = lru_cache(maxsize=None)(bootstrap_impact_model)

impact_rows = st.builds(
    ImpactFeatureRow,
    mixed_alnum=st.booleans(),
    currency_symbol=st.booleans(),
    monetary_suffix=st.booleans(),
    timestamp_symbol=st.booleans(),
    timezone_or_period=st.booleans(),
    human_terms_hits=st.integers(-2, 3),
    address_terms_hits=st.integers(-2, 3),
    tfidf_triple=st.tuples(*[st.sampled_from((0.0, -0.0, 0.4, -1.5))] * 3),
)

PHRASE_FRAGMENTS = (
    "20 victims wounded", "a dozen homes", "$2 million in damages", "06:02 UTC",
    "1,200 residents", "twenty-one hurt", "5 lakh people", "120MM in damages",
    "4 dead 12 injured", "crews at 3910 Tangle Ln", "losses of $120",
    "two hundred and five people injured", "scores of residents hurt", "May-20 06:02 pm",
    "5K attended", "thousands displaced near the avenue", "12 dead after the blast",
)
phrase_texts = st.lists(
    st.one_of(st.sampled_from(PHRASE_FRAGMENTS), st.text(max_size=10)), min_size=1, max_size=6
).map(" ".join)


class TestNonzeroFeatures:
    """The classifier fits and scores the features a phrase has; a zero
    feature only adds +-0.0, so fits and scores equal the full rows'."""

    @pytest.mark.parametrize(
        "row, want",
        [
            (ImpactFeatureRow(), []),
            (ImpactFeatureRow(human_terms_hits=-1), [("human_terms_hits", -1.0)]),
            (ImpactFeatureRow(tfidf_triple=(0.0, -0.0, 0.7)), [("tfidf_financial", 0.7)]),
            (
                ImpactFeatureRow(currency_symbol=True, address_terms_hits=2,
                                 tfidf_triple=(0.5, 0.0, 1.25)),
                [("currency_symbol", 1.0), ("address_terms_hits", 2.0),
                 ("tfidf_address", 0.5), ("tfidf_financial", 1.25)],
            ),
            (
                ImpactFeatureRow(True, True, True, True, True, 1, 3, (0.1, 0.2, 0.3)),
                [("mixed_alnum", 1.0), ("currency_symbol", 1.0), ("monetary_suffix", 1.0),
                 ("timestamp_symbol", 1.0), ("timezone_or_period", 1.0),
                 ("human_terms_hits", 1.0), ("address_terms_hits", 3.0),
                 ("tfidf_address", 0.1), ("tfidf_human", 0.2), ("tfidf_financial", 0.3)],
            ),
        ],
    )
    def test_as_features_examples(self, row, want):
        assert row.as_features() == want

    @given(impact_rows)
    def test_as_features_omits_exactly_the_zeros_in_order(self, row):
        assert row.as_features() == [(f, x) for f, x in full_features(row) if x != 0.0]

    @pytest.mark.parametrize("seed", range(21))
    def test_bootstrap_equals_the_full_row_fit(self, seed):
        model, full = bootstrap_impact_model(seed), full_row_model(seed)
        for cls in IMPACT_CLASSES:
            assert repr(sorted(model.weights[cls].items())) == repr(
                sorted(full.weights[cls].items())
            ), cls
            assert repr(model.bias[cls]) == repr(full.bias[cls]), cls

    @settings(max_examples=60, deadline=None)
    @given(phrase_texts, st.integers(0, 3))
    @example("alert issued 06:02 UTC today, $2 million in damages, 12 dead at 3910 Tangle Ln", 0)
    def test_labels_and_scores_equal_the_full_row_model(self, text, seed):
        a = TextAnalysis(text)
        phrases = numeric_phrases(a)
        model, full = cached_bootstrap(seed), full_row_model(seed)
        triple = _tfidf_triple(a.tokens)
        full_rows = [dict(full_features(_phrase_row(p, text, triple))) for p in phrases]
        assert impact_labels(a, phrases, model) == [full.predict(x) for x in full_rows]
        for p, x in zip(phrases, full_rows):
            got = model.decision(dict(_phrase_row(p, text, triple).as_features()))
            assert repr(got) == repr(full.decision(x))


class TestSiteTerms:
    def test_refinery(self):
        assert lexicon("site_terms").match(tokenize("explosion at a refinery")) == ["refinery"]

    def test_bridge(self):
        assert lexicon("site_terms").match(tokenize("collapse of a bridge")) == ["bridge"]

    def test_none(self):
        assert lexicon("site_terms").match(tokenize("loud noise reported")) == []

    def test_text_order(self):
        got = lexicon("site_terms").match(tokenize("school bus hit near the hospital"))
        assert got == ["school", "hospital"]

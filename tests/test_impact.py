"""Numeric-phrase extraction, impact features, and the impact classifier."""

from __future__ import annotations

import random

import pytest

from newsvalue.errors import DegenerateLabels, SchemaMismatch
from newsvalue.impact import (
    IMPACT_CLASSES,
    ImpactFeatureRow,
    _phrase_row,
    _tfidf_triple,
    bootstrap_impact_model,
    default_site_terms,
    impact_labels,
    numeric_phrases,
    parse_word_number,
    train_impact_classifier,
)
from newsvalue.linear import LinearModel, SGDConfig
from newsvalue.scope import TextAnalysis
from newsvalue.textvec import tokenize


def feature_row(p, text):
    """The eight classifier features of one phrase in its tweet."""
    return _phrase_row(p, text, _tfidf_triple(tokenize(text)))

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
            "scores of residents hurt": ("scores", 20),
            "dozens of cattle lost": ("dozens", 24),
            "hundreds fled": ("hundreds", 100),
            "thousands displaced": ("thousands", 1000),
        }
        for text, (tag, floor) in cases.items():
            p = numeric_phrases(TextAnalysis(text))[0]
            assert p.soft_quantity == tag
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
            ("ſeveral hurt", 3, "several"), ("ſcores of people", 20, "scores"),
            ("hundreds of thouſands fled", 100000, "thousands"), ("dozenſ of cattle", 24, "dozens"),
            ("twenty-ſix dead", 26, None), ("FİVE dead", 5, None), ("a dozen and ſıx hurt", 18, None),
        ],
    )
    def test_scale_words_folded_like_the_regex(self, text, value, soft):
        # re.IGNORECASE matches ſ to s and İ and ı to i; str.lower() does not
        [p] = numeric_phrases(TextAnalysis(text))
        assert (p.value, p.soft_quantity) == (value, soft)


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


def _sgd(epochs, seed):
    """The impact classifier's rate and regularizer."""
    return SGDConfig(epochs=epochs, learning_rate=0.01, l2=1e-4, seed=seed)


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
        model = train_impact_classifier(rows, _sgd(epochs=50, seed=1))
        assert impact_f1(model, rows)[1] >= 0.99

    def test_two_feature_separable_perfect(self):
        rows = []
        for i in range(40):
            if i % 2 == 0:
                rows.append((ImpactFeatureRow(human_terms_hits=2), "human_impact"))
            else:
                rows.append((ImpactFeatureRow(address_terms_hits=2), "address"))
        model = train_impact_classifier(rows, _sgd(epochs=30, seed=4))
        correct = sum(model.predict(dict(r.as_features())) == label for r, label in rows)
        assert correct == len(rows)

    def test_single_class_raises(self):
        rows = [(ImpactFeatureRow(), "date_time")] * 5
        with pytest.raises(DegenerateLabels):
            train_impact_classifier(rows, _sgd(epochs=50, seed=0))

    def test_conflicting_labels_bounded_by_majority(self):
        row = ImpactFeatureRow(human_terms_hits=1)
        rows = [(row, "human_impact")] * 7 + [(row, "address")] * 3
        model = train_impact_classifier(rows, _sgd(epochs=30, seed=2))
        correct = sum(
            model.predict(dict(r.as_features())) == label for r, label in rows
        )
        assert correct <= 7

    def test_objective_decreases(self):
        rows = synthetic_impact_rows(300, seed=12)
        model = train_impact_classifier(rows, _sgd(epochs=50, seed=3))
        for cls in IMPACT_CLASSES:
            assert model.train_meta["objective_last"][cls] < model.train_meta["objective_first"][cls]

    def test_seed_reproducible_bit_exact(self):
        rows = synthetic_impact_rows(300, seed=13)
        cfg = _sgd(epochs=50, seed=9)
        a = train_impact_classifier(rows, cfg)
        b = train_impact_classifier(rows, cfg)
        assert a.weights == b.weights
        assert a.bias == b.bias

    def test_untrained_model_raises(self):
        empty = LinearModel(kind="impact", classes=(), weights={}, bias={})
        p = numeric_phrases(TextAnalysis("12 hurt"))[0]
        with pytest.raises(SchemaMismatch, match="model has no classes"):
            impact_labels(TextAnalysis("12 hurt"), [p], empty)

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


class TestSiteTerms:
    def test_refinery(self):
        assert default_site_terms().match(tokenize("explosion at a refinery")) == ["refinery"]

    def test_bridge(self):
        assert default_site_terms().match(tokenize("collapse of a bridge")) == ["bridge"]

    def test_none(self):
        assert default_site_terms().match(tokenize("loud noise reported")) == []

    def test_text_order(self):
        got = default_site_terms().match(tokenize("school bus hit near the hospital"))
        assert got == ["school", "hospital"]

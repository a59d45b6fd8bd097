"""Feature assembly, SVM behavior, cross-validation, and ablations."""

from __future__ import annotations

import random

import pytest

from conftest import BASE_TS
from newsvalue.errors import DegenerateLabels
from newsvalue.linear import LinearModel
from newsvalue.model import (
    FEATURE_GROUPS,
    ablate,
    assemble_features,
    build_context,
    cross_validate,
    feature_group_weights,
    restrict_features,
    svm_predict,
    train_svm,
)
from newsvalue.records import LabeledExample, Post, SourceProfile

# The published SVM operating point: epochs and C.
SVM = {"epochs": 100, "C": 1.0}


@pytest.fixture(scope="module")
def ctx(gazetteer, trbc_model):
    tfidf, centroids = trbc_model
    return build_context(gazetteer, tfidf, centroids, seed=0)


class TestAssembleFeatures:
    def test_usgs_style_tweet(self, ctx):
        post = Post(
            "t", "usgs", BASE_TS,
            "Prelim M5.8 earthquake off the coast of Jalisco, Mexico May-20 06:02 UTC",
        )
        feats = assemble_features(post, None, ctx)
        assert feats["topic_earthquakes_seismic"] == 1.0
        assert feats["scope_quake_magnitude"] == pytest.approx(5.8)
        assert feats["loc_country_MX"] == 1.0
        assert feats["loc_present"] == 1.0

    def test_empty_text_non_local_source(self, ctx):
        source = SourceProfile("u", locally_focused=False)
        feats = assemble_features(Post("p", "u", 0, ""), source, ctx)
        assert feats == {}

    def test_impact_counts(self, ctx):
        import math

        post = Post("p", "u", 0, "$2 million in damages, 12 dead")
        feats = assemble_features(post, None, ctx)
        assert feats.get("impact_financial_count") == 1.0
        assert feats.get("impact_human_count") == 1.0
        # the largest human-impact value (12) enters log-scaled
        assert feats.get("impact_human_max") == pytest.approx(math.log1p(12.0))

    def test_scope_numerals_not_double_counted_as_impact(self, ctx):
        post = Post("p", "u", 0, "Prelim M5.8 earthquake reported")
        feats = assemble_features(post, None, ctx)
        assert "impact_human_count" not in feats
        assert feats.get("scope_quake_magnitude") == pytest.approx(5.8)

    def test_deterministic_and_total(self, ctx):
        texts = ["", "🌋" * 10, "deadly EF3 in Houston, 12 hurt", "a" * 300]
        for text in texts:
            post = Post("p", "u", 0, text)
            assert assemble_features(post, None, ctx) == assemble_features(post, None, ctx)

    def test_rarity_needs_location_and_topic(self, ctx, gazetteer, trbc_model):
        from newsvalue.rarity import TaggedPost, build_background

        tfidf, centroids = trbc_model
        background = build_background(
            [TaggedPost(10, 20.7, -103.3, "MX", "earthquakes_seismic")] * 5,
            (0, 100),
        )
        rich_ctx = build_context(gazetteer, tfidf, centroids, background=background, seed=0)
        located = Post("p", "u", 0, "massive earthquake tremor hits Jalisco")
        feats = assemble_features(located, None, rich_ctx)
        assert feats.get("rarity_present") == 1.0
        assert feats.get("rarity") == pytest.approx(2.0)  # saturated background
        nowhere = Post("p", "u", 0, "massive earthquake tremor hits somewhere")
        feats = assemble_features(nowhere, None, rich_ctx)
        assert "rarity_present" not in feats


def separable_examples(n=120, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        label = i % 2 == 0
        gap = 2.0 + rng.random()
        out.append(
            LabeledExample(
                f"p{i}",
                {"scope_sig": gap if label else -gap, "text_noise": rng.random()},
                label,
            )
        )
    return out


class TestTrainSvm:
    def test_separable_perfect_training_fit(self):
        examples = separable_examples()
        model = train_svm(examples, **SVM, seed=1)
        assert all(svm_predict(model, e.features) == e.label for e in examples)

    def test_single_class_raises(self):
        examples = [LabeledExample(f"p{i}", {"a": 1.0}, True) for i in range(10)]
        with pytest.raises(DegenerateLabels):
            train_svm(examples, **SVM, seed=0)

    def test_objective_strictly_decreases(self):
        model = train_svm(separable_examples(), **SVM, seed=2)
        assert model.train_meta["objective_last"] < model.train_meta["objective_first"]

    def test_identical_features_conflicting_labels(self):
        examples = [LabeledExample(f"m{i}", {"a": 1.0}, True) for i in range(6)]
        examples += [LabeledExample(f"u{i}", {"a": 1.0}, False) for i in range(4)]
        model = train_svm(examples, epochs=30, C=1.0, seed=3)
        correct = sum(svm_predict(model, e.features) == e.label for e in examples)
        assert correct <= 6

    def test_label_flip_negates_weights(self):
        examples = separable_examples(n=100, seed=4)
        flipped = [
            LabeledExample(e.post_id, e.features, not e.label) for e in examples
        ]
        m = train_svm(examples, **SVM, seed=5)
        mf = train_svm(flipped, **SVM, seed=5)
        for f, w in m.weights["matched"].items():
            assert mf.weights["matched"][f] == pytest.approx(-w, abs=1e-6)
        assert mf.bias["matched"] == pytest.approx(-m.bias["matched"], abs=1e-6)

    def test_seed_reproducible(self):
        examples = separable_examples(seed=6)
        a = train_svm(examples, **SVM, seed=7)
        b = train_svm(examples, **SVM, seed=7)
        assert a.weights == b.weights and a.bias == b.bias

    def test_save_load_round_trip(self, tmp_path):
        model = train_svm(separable_examples(), **SVM, seed=8)
        path = tmp_path / "model.json"
        model.save(path)
        again = LinearModel.load(path, expect_kind="svm")
        assert again.weights == model.weights
        assert again.bias == model.bias


class TestCrossValidate:
    def test_perfect_on_separable(self):
        report = cross_validate(separable_examples(), folds=10, seed=1, **SVM)
        assert report.precision == 100.0
        assert report.recall == 100.0
        assert report.f1 == 100.0

    def test_insufficient_data(self):
        with pytest.raises(DegenerateLabels, match="10 examples for 10 folds"):
            cross_validate(separable_examples(n=10), folds=10, seed=0, **SVM)

    def test_bit_reproducible(self):
        examples = separable_examples(seed=9)
        a = cross_validate(examples, folds=10, seed=4, **SVM)
        b = cross_validate(examples, folds=10, seed=4, **SVM)
        assert a.to_json() == b.to_json()

    def test_f1_consistent_with_pooled_counts(self):
        examples = separable_examples(seed=10)
        # add noise so the confusion matrix is not trivial
        rng = random.Random(0)
        noisy = [
            LabeledExample(e.post_id, {"scope_sig": rng.uniform(-3, 3)}, e.label)
            for e in examples
        ]
        report = cross_validate(noisy, folds=5, seed=2, **SVM)
        tp, fp, fn = report.counts["tp"], report.counts["fp"], report.counts["fn"]
        p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert report.f1 == pytest.approx(f, abs=1e-9)

    def test_scaling_invariance_on_separable_data(self):
        # consistent feature rescaling at train and predict time keeps
        # held-out performance perfect on separable data (within the range
        # the fixed epoch budget can absorb)
        for factor in (100.0, 0.1):
            scaled = [
                LabeledExample(e.post_id, {f: v * factor for f, v in e.features.items()}, e.label)
                for e in separable_examples(seed=21)
            ]
            report = cross_validate(scaled, folds=5, seed=6, **SVM)
            assert report.f1 == 100.0

    def test_random_labels_f_near_base_rate(self):
        # With balanced random data, pooled F over many seeds hovers near
        # the positive base rate (50), far from both degenerate extremes.
        rng = random.Random(11)
        examples = [
            LabeledExample(
                f"p{i}",
                {"text_a": rng.uniform(0, 1), "text_b": rng.uniform(0, 1)},
                rng.random() < 0.5,
            )
            for i in range(80)
        ]
        fs = []
        for seed in range(20):
            report = cross_validate(examples, folds=3, seed=seed, epochs=20, C=1.0)
            fs.append(report.f1)
        mean_f = sum(fs) / len(fs)
        assert 25.0 <= mean_f <= 75.0


class TestAblate:
    def _ablation_examples(self, seed=0):
        rng = random.Random(seed)
        out = []
        for i in range(100):
            label = rng.random() < 0.5
            features = {
                "text_word": rng.uniform(0, 1),
                "topic_x": 1.0,
                "scope_sig": (2.0 + rng.random()) * (1 if label else -1),
                "impact_sig": (1.0 + rng.random()) * (1 if label else -1),
                "loc_lat": rng.uniform(-10, 10),
                "rarity": rng.uniform(0, 1),
            }
            out.append(LabeledExample(f"p{i}", features, label))
        return out

    def test_informative_groups_beat_baseline(self):
        examples = self._ablation_examples()
        results = ablate(
            examples,
            [("text", "topic"), ("text", "topic", "scope", "impact")],
            folds=5,
            seed=3,
            epochs=30,
            C=1.0,
        )
        baseline = results[0][1].f1
        enriched = results[1][1].f1
        assert enriched > baseline

    def test_empty_group_set_raises(self):
        with pytest.raises(DegenerateLabels, match="empty feature-group set"):
            ablate(self._ablation_examples(), [()], folds=3, seed=0, **SVM)

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            restrict_features(self._ablation_examples(), ["texture"])

    def test_restriction_drops_other_families(self):
        examples = self._ablation_examples()
        restricted = restrict_features(examples, ["scope"])
        for e in restricted:
            assert all(f.startswith("scope_") for f in e.features)

    def test_four_row_report(self):
        from newsvalue.cli import ABLATION_SETS

        examples = self._ablation_examples(seed=5)
        results = ablate(examples, ABLATION_SETS, folds=3, seed=1, epochs=15, C=1.0)
        assert len(results) == 4
        assert results[0][0] == ("text", "topic")


class TestFeatureGroupWeights:
    def _model(self, weights):
        return LinearModel(
            kind="svm", classes=("matched",),
            weights={"matched": weights}, bias={"matched": 0.0},
        )

    def test_all_zero(self):
        gw = feature_group_weights(self._model({}))
        assert all(gw[g] == (0.0, 0.0) for g in FEATURE_GROUPS)

    def test_hand_built_sums(self):
        gw = feature_group_weights(self._model({"scope_a": 2.0, "scope_b": -1.0}))
        assert gw["scope"] == (2.0, -1.0)

    def test_informative_topic_dominates(self):
        rng = random.Random(12)
        examples = []
        for i in range(80):
            label = i % 2 == 0
            features = {"topic_quake": 1.0 if label else 0.0,
                        "text_w": rng.uniform(0, 1)}
            features = {k: v for k, v in features.items() if v}
            examples.append(LabeledExample(f"p{i}", features, label))
        model = train_svm(examples, **SVM, seed=13)
        gw = feature_group_weights(model)
        assert gw["topic"][0] > gw["text"][0]

"""Feature assembly, SVM behavior, cross-validation, and ablations."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BASE_TS
from newsvalue.errors import DegenerateLabels, SchemaMismatch
from newsvalue.linear import BIAS_KEY, LinearModel
from newsvalue.model import (
    FEATURE_GROUPS,
    POSITIVE_CLASS,
    _fold_seed,
    _restrict,
    ablate,
    assemble_features,
    build_context,
    cross_validate,
    feature_group_weights,
    prf,
    svm_design,
    train_svm,
)
from newsvalue.records import LabeledExample, Post, SourceProfile

# The published SVM operating point: epochs and C.
SVM = {"epochs": 100, "C": 1.0}


def cross_validate_all(examples, **svm):
    """cross_validate over the examples' full design: its one (counts, folds)."""
    rows, names = svm_design(examples)
    [result] = cross_validate(examples, [rows], names, **svm)
    return result


def cv_prf(examples, **svm):
    """P/R/F of cross_validate over the examples' full design."""
    return prf(cross_validate_all(examples, **svm)[0])


def predicted(model, features) -> bool:
    """The SVM's call, as predict and evaluate make it: score >= 0."""
    return model.decision(features)[POSITIVE_CLASS] >= 0.0


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
        model = train_svm(svm_design(examples), **SVM, seed=1)
        assert all(predicted(model, e.features) == e.label for e in examples)

    def test_single_class_raises(self):
        examples = [LabeledExample(f"p{i}", {"a": 1.0}, True) for i in range(10)]
        with pytest.raises(DegenerateLabels):
            train_svm(svm_design(examples), **SVM, seed=0)

    def test_objective_strictly_decreases(self):
        model = train_svm(svm_design(separable_examples()), **SVM, seed=2)
        assert model.train_meta["objective_last"] < model.train_meta["objective_first"]

    def test_identical_features_conflicting_labels(self):
        examples = [LabeledExample(f"m{i}", {"a": 1.0}, True) for i in range(6)]
        examples += [LabeledExample(f"u{i}", {"a": 1.0}, False) for i in range(4)]
        model = train_svm(svm_design(examples), epochs=30, C=1.0, seed=3)
        correct = sum(predicted(model, e.features) == e.label for e in examples)
        assert correct <= 6

    def test_label_flip_negates_weights(self):
        examples = separable_examples(n=100, seed=4)
        flipped = [
            LabeledExample(e.post_id, e.features, not e.label) for e in examples
        ]
        m = train_svm(svm_design(examples), **SVM, seed=5)
        mf = train_svm(svm_design(flipped), **SVM, seed=5)
        for f, w in m.weights["matched"].items():
            assert mf.weights["matched"][f] == pytest.approx(-w, abs=1e-6)
        assert mf.bias["matched"] == pytest.approx(-m.bias["matched"], abs=1e-6)

    def test_seed_reproducible(self):
        examples = separable_examples(seed=6)
        a = train_svm(svm_design(examples), **SVM, seed=7)
        b = train_svm(svm_design(examples), **SVM, seed=7)
        assert a.weights == b.weights and a.bias == b.bias

    def test_save_load_round_trip(self, tmp_path):
        model = train_svm(svm_design(separable_examples()), **SVM, seed=8)
        path = tmp_path / "model.json"
        model.save(path)
        again = LinearModel.load(path, expect_kind="svm")
        assert again.weights == model.weights
        assert again.bias == model.bias


class TestCrossValidate:
    def test_perfect_on_separable(self):
        examples = separable_examples()
        assert cv_prf(examples, folds=10, seed=1, **SVM) == (100.0, 100.0, 100.0)

    def test_insufficient_data(self):
        with pytest.raises(DegenerateLabels, match="10 examples for 10 folds"):
            examples = separable_examples(n=10)
            cross_validate_all(examples, folds=10, seed=0, **SVM)

    def test_bit_reproducible(self):
        examples = separable_examples(seed=9)
        a = cross_validate_all(examples, folds=10, seed=4, **SVM)
        b = cross_validate_all(examples, folds=10, seed=4, **SVM)
        assert repr(a) == repr(b)

    def test_f1_consistent_with_pooled_counts(self):
        examples = separable_examples(seed=10)
        # add noise so the confusion matrix is not trivial
        rng = random.Random(0)
        noisy = [
            LabeledExample(e.post_id, {"scope_sig": rng.uniform(-3, 3)}, e.label)
            for e in examples
        ]
        counts, folds = cross_validate_all(noisy, folds=5, seed=2, **SVM)
        assert counts == {k: sum(fold[k] for fold in folds) for k in ("tp", "fp", "fn", "tn")}
        tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
        p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert prf(counts)[2] == pytest.approx(f, abs=1e-9)

    def test_scaling_invariance_on_separable_data(self):
        # consistent feature rescaling at train and predict time keeps
        # held-out performance perfect on separable data (within the range
        # the fixed epoch budget can absorb)
        for factor in (100.0, 0.1):
            scaled = [
                LabeledExample(e.post_id, {f: v * factor for f, v in e.features.items()}, e.label)
                for e in separable_examples(seed=21)
            ]
            assert cv_prf(scaled, folds=5, seed=6, **SVM)[2] == 100.0

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
            fs.append(cv_prf(examples, folds=3, seed=seed, epochs=20, C=1.0)[2])
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
        baseline, enriched = (prf(counts)[2] for _, counts in results)
        assert enriched > baseline

    def test_empty_group_set_raises(self):
        with pytest.raises(DegenerateLabels, match="empty feature-group set"):
            ablate(self._ablation_examples(), [()], folds=3, seed=0, **SVM)

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown feature groups"):
            ablate(self._ablation_examples(), [("scope",), ("texture",)], folds=3, seed=0, **SVM)

    def test_restriction_drops_other_families(self):
        examples = self._ablation_examples()
        rows, names = svm_design(examples)
        restricted = _restrict(rows, names, ["scope"])
        for ids, _, _ in restricted:
            assert all(names[j].startswith("scope_") for j in ids[:-1])
            assert names[ids[-1]] == BIAS_KEY
        # the rows the per-example restriction would have interned
        ref_rows, ref_names = svm_design(restrict_features(examples, ["scope"]))
        assert [([names[j] for j in ids], vals, y) for ids, vals, y in restricted] == [
            ([ref_names[j] for j in ids], vals, y) for ids, vals, y in ref_rows
        ]

    def test_four_row_report(self):
        from newsvalue.cli import ABLATION_SETS

        examples = self._ablation_examples(seed=5)
        results = ablate(examples, ABLATION_SETS, folds=3, seed=1, epochs=15, C=1.0)
        assert len(results) == 4
        assert results[0][0] == ("text", "topic")

    def test_a_feature_outside_every_family_is_never_served(self):
        """The all-families set drops a name outside every prefix, so its
        rows are not the full design's and full cannot stand for them."""
        from newsvalue.cli import ABLATION_SETS

        svm = {"folds": 3, "seed": 1, "epochs": 15, "C": 1.0}
        tampered = {"tp": 1, "fp": 0, "fn": 0, "tn": 0}
        examples = self._ablation_examples(seed=5)
        served = ablate(examples, ABLATION_SETS, full=tampered, **svm)
        assert served[:-1] == ablate(examples, ABLATION_SETS, **svm)[:-1]
        assert served[-1][1] is tampered
        for e in examples[::7]:
            e.features["other"] = 1.0
        fitted = ablate(examples, ABLATION_SETS, **svm)
        assert _outcome(ablate, examples, ABLATION_SETS, full=tampered, **svm) == _outcome(
            lambda: fitted)


# The per-fit path, kept as the oracle of cross_validate and ablate: each
# ablation row restricts every example to its families, and each fit
# draws its own split and epoch orders.

def restrict_features(examples, groups):
    unknown = set(groups) - set(FEATURE_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}")
    prefixes = tuple(FEATURE_GROUPS[g] for g in groups)
    return [
        LabeledExample(e.post_id, {f: v for f, v in e.features.items() if f.startswith(prefixes)},
                       e.label)
        for e in examples
    ]


def _stratified_split(examples, rng):
    train, test = [], []
    for cls in (True, False):
        idx = [i for i, e in enumerate(examples) if e.label is cls]
        rng.shuffle(idx)
        n_train = int(round(0.8 * len(idx)))
        n_train = max(1, min(len(idx) - 1, n_train)) if len(idx) >= 2 else len(idx)
        train.extend(examples[i] for i in idx[:n_train])
        test.extend(examples[i] for i in idx[n_train:])
    return train, test


def reference_cross_validate(examples, *, folds, seed, epochs, C):
    if len(examples) < folds * 2:
        raise DegenerateLabels(f"{len(examples)} examples for {folds} folds")
    tp = fp = fn = tn = 0
    fold_rows = []
    for fold in range(folds):
        fseed = _fold_seed(seed, fold)
        train, test = _stratified_split(examples, random.Random(fseed))
        model = train_svm(svm_design(train), epochs=epochs, C=C, seed=fseed)
        ftp = ffp = ffn = ftn = 0
        for e in test:
            pred = predicted(model, e.features)
            if pred and e.label:
                ftp += 1
            elif pred and not e.label:
                ffp += 1
            elif not pred and e.label:
                ffn += 1
            else:
                ftn += 1
        tp, fp, fn, tn = tp + ftp, fp + ffp, fn + ffn, tn + ftn
        p, r, f = prf({"tp": ftp, "fp": ffp, "fn": ffn})
        fold_rows.append({"fold": fold, "seed": fseed, "precision": p, "recall": r, "f1": f,
                          "tp": ftp, "fp": ffp, "fn": ffn, "tn": ftn})
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}, fold_rows


def reference_ablate(examples, feature_groups, **svm):
    out = []
    for groups in feature_groups:
        if not groups:
            raise DegenerateLabels("empty feature-group set")
        restricted = restrict_features(examples, list(groups))
        out.append((tuple(groups), reference_cross_validate(restricted, **svm)[0]))
    return out


def _outcome(fn, *args, **kwargs):
    """repr of the result ((counts, folds), or (groups, counts) pairs), or
    the exception's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except (DegenerateLabels, SchemaMismatch) as exc:
        return type(exc).__name__, str(exc)


# Names of every family, one outside every prefix and the reserved bias
# name; values from the subnormal to the overflowing.
NAMES = ["text_a", "text_b", "topic_x", "scope_s", "impact_i", "loc_lat", "loc_country_US",
         "rarity", "rarity_present", "other", BIAS_KEY]
VALUES = st.floats(-8.0, 8.0) | st.sampled_from([5e-324, -1e-300, 1e-12, 1e12, -1e150, 1e300])


@st.composite
def cv_inputs(draw):
    """Examples (some without features) over the names of a random subset of
    families, so some sets' rows hold only the bias; sets; SVM settings."""
    families = draw(st.sets(st.sampled_from(sorted(FEATURE_GROUPS))))
    pool = [n for n in NAMES if not n.startswith(tuple(FEATURE_GROUPS[g] for g in FEATURE_GROUPS
                                                        if g not in families))]
    features = st.dictionaries(st.sampled_from(pool), VALUES, max_size=5)
    examples = [
        LabeledExample(f"p{i}", f, label)
        for i, (f, label) in enumerate(draw(st.lists(st.tuples(features, st.booleans()),
                                                     min_size=2, max_size=24)))
    ]
    sets = draw(st.lists(st.sets(st.sampled_from(sorted(FEATURE_GROUPS)), min_size=1)
                         .map(sorted).map(tuple), min_size=1, max_size=4))
    svm = draw(st.fixed_dictionaries({
        "folds": st.integers(1, 3), "seed": st.integers(0, 2**31),
        "epochs": st.integers(1, 4), "C": st.sampled_from([0.01, 1.0, 1e4]),
    }))
    return examples, sets, svm


FAMILY_EXAMPLES = [
    LabeledExample("e", {}, True),
    LabeledExample("b", {"other": 1.0, BIAS_KEY: 2.0}, False),
    LabeledExample("t", {"text_a": 1e-300, "topic_x": 1.0, "other": -0.5}, True),
    LabeledExample("s", {"scope_s": 5e-324, "impact_i": -2.0, "rarity": 0.25}, False),
    LabeledExample("l", {"loc_lat": 0.5, "text_b": 1e12, "rarity_present": 1.0}, True),
    LabeledExample("m", {"text_a": -3.0, "loc_country_US": 1.0}, False),
] * 2


@settings(max_examples=150, deadline=None)
@given(cv_inputs())
@example((FAMILY_EXAMPLES, [("location",), ("text", "topic"), tuple(sorted(FEATURE_GROUPS))],
          {"folds": 3, "seed": 5, "epochs": 3, "C": 1.0}))
@example((FAMILY_EXAMPLES, [("scope",), ("rarity",)], {"folds": 2, "seed": 1, "epochs": 2,
                                                     "C": 1e4}))
def test_fold_by_fold_equals_per_fit_path(inputs):
    """cross_validate and ablate fit every set of a fold on one interned
    design, split and epoch schedule; counts and fold records are
    repr-identical to one restriction, split and fit per set and fold,
    errors included."""
    examples, sets, svm = inputs
    assert _outcome(cross_validate_all, examples, **svm) == _outcome(
        reference_cross_validate, examples, **svm
    )
    rows, names = svm_design(examples)
    assert _outcome(
        cross_validate, examples, [_restrict(rows, names, g) for g in sets], names, **svm
    ) == _outcome(
        lambda: [reference_cross_validate(restrict_features(examples, g), **svm) for g in sets]
    )
    assert _outcome(ablate, examples, sets, **svm) == _outcome(
        reference_ablate, examples, sets, **svm
    )


def _rows(examples, sets, **svm):
    """repr of each set's P/R/F from ablate, or the exception's type and message."""
    try:
        return repr([(g, prf(counts)) for g, counts in ablate(examples, sets, **svm)])
    except (DegenerateLabels, SchemaMismatch) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(cv_inputs())
@example(([LabeledExample(e.post_id, {k: v for k, v in e.features.items()
                                     if k.startswith(tuple(FEATURE_GROUPS.values()))}, e.label)
            for e in FAMILY_EXAMPLES],
          [tuple(sorted(FEATURE_GROUPS)), ("text", "topic")],
          {"folds": 3, "seed": 5, "epochs": 3, "C": 1.0}))
def test_a_set_served_from_the_full_counts_reports_its_fit(inputs):
    """Given the pooled counts of cross_validate over the full design,
    ablate reports the P/R/F it fits for every set, errors included."""
    examples, sets, svm = inputs
    try:
        full, _ = cross_validate_all(examples, **svm)
    except (DegenerateLabels, SchemaMismatch):
        return  # no report to serve from: train writes none
    assert _rows(examples, sets, full=full, **svm) == _rows(examples, sets, **svm)


class TestFeatureGroupWeights:
    def _model(self, weights):
        return LinearModel(
            kind="svm", classes=("matched",),
            weights={"matched": weights}, bias={"matched": 0.0},
        )

    def test_all_zero(self):
        gw = feature_group_weights(self._model({}))
        assert all(gw[g] == [0.0, 0.0] for g in FEATURE_GROUPS)

    def test_hand_built_sums(self):
        gw = feature_group_weights(self._model({"scope_a": 2.0, "scope_b": -1.0}))
        assert gw["scope"] == [2.0, -1.0]

    def test_informative_topic_dominates(self):
        rng = random.Random(12)
        examples = []
        for i in range(80):
            label = i % 2 == 0
            features = {"topic_quake": 1.0 if label else 0.0,
                        "text_w": rng.uniform(0, 1)}
            features = {k: v for k, v in features.items() if v}
            examples.append(LabeledExample(f"p{i}", features, label))
        model = train_svm(svm_design(examples), **SVM, seed=13)
        gw = feature_group_weights(model)
        assert gw["topic"][0] > gw["text"][0]

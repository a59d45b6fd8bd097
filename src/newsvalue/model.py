"""Assemble per-post feature vectors, train the linear SVM over them, and
evaluate it with repeated 80/20 resampling and feature-group ablations.

Feature names carry a family prefix (text_, topic_, scope_, impact_,
loc_, rarity) so the model's learned weights can be reported per family
and whole families can be switched off for ablation runs.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from .errors import DegenerateLabels, InsufficientData, NoFeatures, SchemaMismatch
from .geo import Gazetteer, location_features
from .impact import (
    CategoryTfidf,
    bootstrap_impact_model,
    classify_impact,
    default_address_terms,
    default_category_tfidf,
    default_human_impact_terms,
    default_site_terms,
    extract_numeric_phrases,
    extract_site_terms,
)
from .labeling import MaskRule, default_mask_rules, mask_taxonomy_tokens
from .linear import LinearModel, SGDConfig, train_binary_hinge
from .rarity import BackgroundIndex, grid_cell, rarity
from .records import LabeledExample, Post, SourceProfile
from .scope import (
    ScopeFeatures,
    Taxonomy,
    default_fire_causes,
    default_scale_lexicon,
    extract_scope,
    scope_pattern_spans,
)
from .textvec import CentroidSet, TfidfModel, nearest_centroid, tokenize, vectorize

POSITIVE_CLASS = "matched"

FEATURE_GROUPS = {
    "text": "text_",
    "topic": "topic_",
    "scope": "scope_",
    "impact": "impact_",
    "location": "loc_",
    "rarity": "rarity",
}

NAME_BUCKETS = 1024


@dataclass
class FeatureContext:
    """Everything feature assembly needs, loaded once and shared."""

    gazetteer: Gazetteer
    tfidf: TfidfModel
    centroids: CentroidSet
    mask_rules: tuple[MaskRule, ...]
    impact_model: LinearModel
    cat_tfidf: CategoryTfidf
    scale_lexicon: Taxonomy
    fire_causes: Taxonomy
    human_tax: Taxonomy
    addr_tax: Taxonomy
    site_tax: Taxonomy
    background: Optional[BackgroundIndex] = None


def build_context(
    gazetteer: Gazetteer,
    tfidf: TfidfModel,
    centroids: CentroidSet,
    background: Optional[BackgroundIndex] = None,
    impact_model: Optional[LinearModel] = None,
    seed: int = 0,
) -> FeatureContext:
    return FeatureContext(
        gazetteer=gazetteer,
        tfidf=tfidf,
        centroids=centroids,
        mask_rules=default_mask_rules(),
        impact_model=impact_model or bootstrap_impact_model(seed),
        cat_tfidf=default_category_tfidf(),
        scale_lexicon=default_scale_lexicon(),
        fire_causes=default_fire_causes(),
        human_tax=default_human_impact_terms(),
        addr_tax=default_address_terms(),
        site_tax=default_site_terms(),
        background=background,
    )


def _scope_features(scope: ScopeFeatures) -> dict[str, float]:
    out: dict[str, float] = {}
    if scope.scale_adjectives:
        out["scope_scale_adj_count"] = float(len(scope.scale_adjectives))
    if scope.alarm_level is not None:
        out["scope_alarm_present"] = 1.0
        out["scope_alarm_level"] = float(scope.alarm_level)
    if scope.fire_cause is not None:
        out["scope_fire_cause_present"] = 1.0
    if scope.quake_magnitude is not None:
        out["scope_quake_present"] = 1.0
        out["scope_quake_magnitude"] = scope.quake_magnitude[1]
    if scope.wildfire_size_acres is not None:
        out["scope_wildfire_present"] = 1.0
        # heavy-tailed magnitudes enter log-scaled so SGD stays stable
        out["scope_wildfire_acres"] = math.log1p(scope.wildfire_size_acres)
    if scope.vehicle_count is not None:
        out["scope_vehicle_present"] = 1.0
        out["scope_vehicle_count"] = float(scope.vehicle_count)
    if scope.weather_scale is not None:
        out["scope_weather_present"] = 1.0
        out["scope_weather_level"] = float(scope.weather_scale[1])
    if scope.hail_size_inches is not None:
        out["scope_hail_present"] = 1.0
        out["scope_hail_inches"] = scope.hail_size_inches
    return out


def _overlaps(span: tuple[int, int], spans: Sequence[tuple[int, int]]) -> bool:
    return any(span[0] < e and s < span[1] for s, e in spans)


def assemble_features(
    post: Post,
    source: Optional[SourceProfile],
    ctx: FeatureContext,
) -> dict[str, float]:
    """One sparse named feature vector for a post.

    Families degrade to absent independently: no location means no loc_*
    features, rarity appears only when both a location and a topic
    resolved. Text features come from the masked text so taxonomy tokens
    never enter the vocabulary raw; scope and impact parse the raw text.
    """
    features: dict[str, float] = {}

    masked = mask_taxonomy_tokens(post.text, ctx.mask_rules)
    mtokens = tokenize(masked)
    tvec = vectorize(mtokens, ctx.tfidf)
    for term, weight in sorted(tvec.entries.items()):
        features[f"text_{term}"] = weight

    topic: Optional[str] = None
    if tvec.norm > 0.0:
        label, sim = nearest_centroid(tvec, ctx.centroids)
        if sim > 0.0:
            topic = label
            features[f"topic_{label}"] = 1.0

    features.update(
        _scope_features(extract_scope(post.text, ctx.scale_lexicon, ctx.fire_causes))
    )

    claimed = [(s, e) for s, e, _ in scope_pattern_spans(post.text)]
    human_count = 0
    financial_count = 0
    human_max = 0.0
    for phrase in extract_numeric_phrases(post.text):
        if _overlaps(phrase.span, claimed):
            continue
        label = classify_impact(
            phrase, ctx.impact_model, post.text, ctx.human_tax, ctx.addr_tax, ctx.cat_tfidf
        )
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
    site_hits = extract_site_terms(tokenize(post.text), ctx.site_tax)
    if site_hits:
        features["impact_site_count"] = float(len(site_hits))

    loc = location_features(post, source, ctx.gazetteer)
    if not loc.is_nil:
        features["loc_present"] = 1.0
        if loc.lat is not None:
            # unit-scaled so coordinates are commensurate with other features
            features["loc_lat"] = loc.lat / 90.0
            features["loc_lon"] = loc.lon / 180.0
        bucket = zlib.crc32(loc.name.lower().encode("utf-8")) % NAME_BUCKETS
        features[f"loc_name_b{bucket}"] = 1.0
        features[f"loc_country_{loc.country_code}"] = 1.0

    if (
        ctx.background is not None
        and topic is not None
        and not loc.is_nil
        and loc.lat is not None
    ):
        score = rarity(
            (grid_cell(loc.lat, loc.lon), loc.country_code, topic), ctx.background
        )
        features["rarity_present"] = 1.0
        if score.value != 0.0:
            features["rarity"] = score.value

    return {k: v for k, v in features.items() if v != 0.0}


# ---------------------------------------------------------------------------
# SVM training and evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvmConfig:
    epochs: int = 100
    C: float = 1.0
    seed: int = 0
    class_weight: Optional[str] = "balanced"


class _Rows:
    """(sorted features, +1/-1) per example, made as the kernel reads them,
    so no fit holds every row's (name, value) pairs at once. Sized, because
    bench/tracer.py counts SGD steps as len(rows) x epochs."""

    def __init__(self, examples: Sequence[LabeledExample]):
        self._examples = examples

    def __len__(self) -> int:
        return len(self._examples)

    def __iter__(self) -> Iterator[tuple[tuple, int]]:
        for e in self._examples:
            yield tuple(sorted(e.features.items())), 1 if e.label else -1


def train_svm(
    examples: Sequence[LabeledExample], config: SvmConfig | None = None
) -> LinearModel:
    """Binary linear SVM via Pegasos-style SGD (hinge + L2, eta = 1/(lambda t)).

    The regularizer is lambda = 1/(C n). Deterministic given the seed; the
    regularized objective after the first and last epochs lands in
    train_meta for monitoring.
    """
    cfg = config or SvmConfig()
    labels = {e.label for e in examples}
    if len(labels) < 2:
        raise DegenerateLabels("SVM training needs both classes")
    lam = 1.0 / (cfg.C * len(examples)) if cfg.C > 0 else math.nan
    if not (math.isfinite(lam) and lam > 0.0):
        raise SchemaMismatch(
            f"svm C={cfg.C} over {len(examples)} examples gives l2={lam}; "
            "it must be a positive finite number"
        )
    sgd = SGDConfig(
        epochs=cfg.epochs,
        seed=cfg.seed,
        l2=lam,
        learning_rate=None,
        class_weight=cfg.class_weight,
    )
    weights, bias, obj_first, obj_last = train_binary_hinge(_Rows(examples), sgd)
    if not all(map(math.isfinite, (bias, obj_first, obj_last, *weights.values()))):
        raise SchemaMismatch(f"svm C={cfg.C} overflows the SGD weights or objective; lower C")
    meta = {
        "epochs": cfg.epochs,
        "C": cfg.C,
        "l2": lam,
        "seed": cfg.seed,
        "class_weight": cfg.class_weight,
        "objective_first": obj_first,
        "objective_last": obj_last,
        "n_examples": len(examples),
    }
    return LinearModel(
        kind="svm",
        classes=(POSITIVE_CLASS,),
        weights={POSITIVE_CLASS: weights},
        bias={POSITIVE_CLASS: bias},
        train_meta=meta,
    )


def svm_predict(model: LinearModel, features: Mapping[str, float]) -> bool:
    return model.decision(features)[POSITIVE_CLASS] >= 0.0


@dataclass
class EvalReport:
    """Pooled precision/recall/F1 (percent) over held-out predictions."""

    precision: float
    recall: float
    f1: float
    folds: list[dict] = field(default_factory=list)
    group_weights: dict[str, tuple[float, float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "folds": self.folds,
            "group_weights": {k: list(v) for k, v in self.group_weights.items()},
            "counts": self.counts,
        }
        return json.dumps(payload, sort_keys=True)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return 100.0 * p, 100.0 * r, 100.0 * f


def _fold_seed(seed: int, fold: int) -> int:
    return seed * 1009 + fold


def _stratified_split(
    examples: Sequence[LabeledExample], split: float, rng: random.Random
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    train: list[LabeledExample] = []
    test: list[LabeledExample] = []
    for cls in (True, False):
        idx = [i for i, e in enumerate(examples) if e.label is cls]
        rng.shuffle(idx)
        n_train = int(round(split * len(idx)))
        n_train = max(1, min(len(idx) - 1, n_train)) if len(idx) >= 2 else len(idx)
        train.extend(examples[i] for i in idx[:n_train])
        test.extend(examples[i] for i in idx[n_train:])
    return train, test


def cross_validate(
    examples: Sequence[LabeledExample],
    folds: int = 10,
    split: float = 0.8,
    seed: int = 0,
    config: SvmConfig | None = None,
) -> EvalReport:
    """Repeated seeded 80/20 resampling (stratified), pooled P/R/F.

    Fold seeds derive from the master seed, so the whole report is
    bit-reproducible. No model is fitted on all examples here, so
    group_weights stay empty; the caller that fits the final model fills
    them with feature_group_weights.
    """
    if len(examples) < folds * 2:
        raise InsufficientData(f"{len(examples)} examples for {folds} folds")
    base = config or SvmConfig()
    tp = fp = fn = tn = 0
    fold_rows = []
    for fold in range(folds):
        fseed = _fold_seed(seed, fold)
        rng = random.Random(fseed)
        train, test = _stratified_split(examples, split, rng)
        model = train_svm(
            train,
            SvmConfig(epochs=base.epochs, C=base.C, seed=fseed, class_weight=base.class_weight),
        )
        ftp = ffp = ffn = ftn = 0
        for e in test:
            pred = svm_predict(model, e.features)
            if pred and e.label:
                ftp += 1
            elif pred and not e.label:
                ffp += 1
            elif not pred and e.label:
                ffn += 1
            else:
                ftn += 1
        tp, fp, fn, tn = tp + ftp, fp + ffp, fn + ffn, tn + ftn
        p, r, f = _prf(ftp, ffp, ffn)
        fold_rows.append(
            {"fold": fold, "seed": fseed, "precision": p, "recall": r, "f1": f,
             "tp": ftp, "fp": ffp, "fn": ffn, "tn": ftn}
        )
    p, r, f = _prf(tp, fp, fn)
    return EvalReport(
        precision=p,
        recall=r,
        f1=f,
        folds=fold_rows,
        counts={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    )


def restrict_features(
    examples: Sequence[LabeledExample], groups: Sequence[str]
) -> list[LabeledExample]:
    """Keep only feature families named in groups."""
    unknown = set(groups) - set(FEATURE_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}")
    prefixes = tuple(FEATURE_GROUPS[g] for g in groups)
    out = []
    for e in examples:
        kept = {f: v for f, v in e.features.items() if f.startswith(prefixes)}
        out.append(
            LabeledExample(
                post_id=e.post_id,
                features=kept,
                label=e.label,
                label_provenance=e.label_provenance,
            )
        )
    return out


def ablate(
    examples: Sequence[LabeledExample],
    feature_groups: Sequence[Sequence[str]],
    folds: int = 10,
    seed: int = 0,
    config: SvmConfig | None = None,
) -> list[tuple[tuple[str, ...], EvalReport]]:
    """cross_validate restricted to each requested group union."""
    out = []
    for groups in feature_groups:
        if not groups:
            raise NoFeatures("empty feature-group set")
        restricted = restrict_features(examples, list(groups))
        report = cross_validate(restricted, folds=folds, seed=seed, config=config)
        out.append((tuple(groups), report))
    return out


def feature_group_weights(model: LinearModel) -> dict[str, tuple[float, float]]:
    """Signed weight sums per feature family: (positive sum, negative sum)."""
    sums = {group: [0.0, 0.0] for group in FEATURE_GROUPS}
    weights = model.weights.get(POSITIVE_CLASS, {})
    for feature, w in weights.items():
        for group, prefix in FEATURE_GROUPS.items():
            if feature.startswith(prefix):
                if w > 0:
                    sums[group][0] += w
                else:
                    sums[group][1] += w
                break
    return {group: (pos, neg) for group, (pos, neg) in sums.items()}

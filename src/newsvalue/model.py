"""Assemble per-post feature vectors, train the linear SVM over them, and
evaluate it with repeated 80/20 resampling and feature-group ablations.

Feature names carry a family prefix (text_, topic_, scope_, impact_,
loc_, rarity) so the model's learned weights can be reported per family
and whole families can be switched off for ablation runs.
"""

from __future__ import annotations

import math
import random
import zlib
from itertools import compress
from operator import is_
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DegenerateLabels, SchemaMismatch
from .geo import Gazetteer, _best_entry, first_place
from .impact import bootstrap_impact_model, impact_labels, numeric_phrases
from .labeling import masked_text
from .linear import (
    InternedRow, LinearModel, SGDConfig, epoch_orders, intern, largest_row_norm, train_binary_hinge,
)
from .rarity import BackgroundIndex, grid_cell, rarity
from .records import LabeledExample, Post, SourceProfile
from .scope import ScopeFeatures, TextAnalysis, lexicon
from .textvec import Centroids, TfidfModel, nearest_centroid, tokenize, vectorize

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

COUNTS = ("tp", "fp", "fn", "tn")


class FeatureContext(NamedTuple):
    """Everything feature assembly needs beyond the shipped lexicons,
    built once and shared."""

    gazetteer: Gazetteer
    tfidf: TfidfModel
    centroids: Centroids
    impact_model: LinearModel
    background: Optional[BackgroundIndex] = None


def build_context(
    gazetteer: Gazetteer,
    tfidf: TfidfModel,
    centroids: Centroids,
    background: Optional[BackgroundIndex] = None,
    *,
    seed: int,
) -> FeatureContext:
    return FeatureContext(
        gazetteer=gazetteer,
        tfidf=tfidf,
        centroids=centroids,
        impact_model=bootstrap_impact_model(seed),
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
    Every family reads one TextAnalysis of the text.
    """
    features: dict[str, float] = {}

    a = TextAnalysis(post.text)
    masked = masked_text(a)
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

    features.update(_scope_features(a.scope()))

    claimed = [(s, e) for s, e, _ in a.pattern_spans]
    phrases = [p for p in numeric_phrases(a) if not _overlaps(p.span, claimed)]
    labels = impact_labels(a, phrases, ctx.impact_model)
    human_count = 0
    financial_count = 0
    human_max = 0.0
    for phrase, label in zip(phrases, labels):
        if label == "human_impact":
            human_count += 1
            human_max = max(human_max, phrase.value)
        elif label == "financial_impact":
            financial_count += 1
    if human_count:
        features["impact_human_count"] = float(human_count)
        if human_max > 0.0:
            features["impact_human_max"] = math.log1p(human_max)
    if financial_count:
        features["impact_financial_count"] = float(financial_count)
    site_hits = lexicon("site_terms").match(a.tokens)
    if site_hits:
        features["impact_site_count"] = float(len(site_hits))

    loc = _best_entry(first_place(a.tokens, ctx.gazetteer))
    if loc is None and source is not None and source.locally_focused:
        loc = source.resolved_location
    if loc is not None:
        features["loc_present"] = 1.0
        # unit-scaled so coordinates are commensurate with other features
        features["loc_lat"] = loc.lat / 90.0
        features["loc_lon"] = loc.lon / 180.0
        bucket = zlib.crc32(loc.name.lower().encode("utf-8")) % NAME_BUCKETS
        features[f"loc_name_b{bucket}"] = 1.0
        features[f"loc_country_{loc.country_code}"] = 1.0

    if ctx.background is not None and topic is not None and loc is not None:
        score = rarity(
            (grid_cell(loc.lat, loc.lon), loc.country_code, topic), ctx.background
        )
        features["rarity_present"] = 1.0
        if score != 0.0:
            features["rarity"] = score

    return {k: v for k, v in features.items() if v != 0.0}


# ---------------------------------------------------------------------------
# SVM training and evaluation
# ---------------------------------------------------------------------------

def svm_design(examples: Sequence[LabeledExample]) -> tuple[list[InternedRow], list[str]]:
    """The examples' interned rows (sorted features, label +1/-1) and names,
    built once per verb and shared by its fits."""
    return intern((sorted(e.features.items()), 1 if e.label else -1) for e in examples)


def train_svm(
    design: tuple[Sequence[InternedRow], Sequence[str]], *, epochs: int, C: float, seed: int,
    orders: Optional[Iterable[Sequence[int]]] = None,
    max_row_norm: Optional[float] = None,
) -> LinearModel:
    """Binary linear SVM via Pegasos-style SGD (hinge + L2, eta = 1/(lambda t)).

    design is `svm_design(examples)`, the n examples' interned rows and
    names. Class weights are balanced (inverse to class frequency). The
    regularizer is lambda = 1/(C n). The fit visits the rows in the epoch
    orders given (default drawn from the seed), so it is deterministic
    given the seed; the regularized objective after the first and last
    epochs lands in train_meta for monitoring.

    A fit that is not saved passes max_row_norm (`largest_row_norm` of
    the design's rows): its objectives are then None wherever that bound
    proves them finite, and computed otherwise, so the overflow check
    below rejects exactly the fits it would reject with both computed.
    """
    rows, names = design
    if len({y for *_, y in rows}) < 2:
        raise DegenerateLabels("SVM training needs both classes")
    n = len(rows)
    lam = 1.0 / (C * n) if C > 0 else math.nan
    if not (math.isfinite(lam) and lam > 0.0):
        raise SchemaMismatch(
            f"svm C={C} over {n} examples gives l2={lam}; "
            "it must be a positive finite number"
        )
    orders = epoch_orders(seed, n, epochs) if orders is None else orders
    sgd = SGDConfig(epochs=epochs, l2=lam, class_weight="balanced")
    weights, bias, obj_first, obj_last = train_binary_hinge(rows, sgd, names, orders, max_row_norm)
    computed = [obj for obj in (obj_first, obj_last) if obj is not None]
    if not all(map(math.isfinite, (bias, *computed, *weights.values()))):
        raise SchemaMismatch(f"svm C={C} overflows the SGD weights or objective; lower C")
    meta = {
        "epochs": epochs,
        "C": C,
        "l2": lam,
        "seed": seed,
        "class_weight": "balanced",
        "objective_first": obj_first,
        "objective_last": obj_last,
        "n_examples": n,
    }
    return LinearModel(
        kind="svm",
        classes=(POSITIVE_CLASS,),
        weights={POSITIVE_CLASS: weights},
        bias={POSITIVE_CLASS: bias},
        train_meta=meta,
    )


def prf(counts: dict[str, int]) -> tuple[float, float, float]:
    """Precision, recall and F1 (percent) of tp/fp/fn/tn counts (tn unread)."""
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return 100.0 * p, 100.0 * r, 100.0 * f


def _fold_seed(seed: int, fold: int) -> int:
    return seed * 1009 + fold


def cross_validate(
    examples: Sequence[LabeledExample], set_rows: Sequence[Sequence[InternedRow]],
    names: Sequence[str], *, folds: int, seed: int, epochs: int, C: float,
) -> list[tuple[dict[str, int], list[dict]]]:
    """One (counts, folds) pair per row set over the same repeated seeded
    80/20 resamples (stratified: 80% of each class to train): the
    tp/fp/fn/tn pooled over the held-out predictions, and one record per
    resample with its seed, counts and `prf`.

    set_rows holds row sets of the examples, each in the ids of names
    (`svm_design(examples)`, or rows of it restricted). A fold draws its
    split and epoch orders once for all sets, and only one fold's orders
    are alive at a time. Fold seeds derive from the master seed, so every
    result is bit-reproducible.
    """
    if len(examples) < folds * 2:
        raise DegenerateLabels(f"{len(examples)} examples for {folds} folds")
    fold_rows: list[list[dict]] = [[] for _ in set_rows]
    bound = largest_row_norm(row for rows in set_rows for row in rows)
    for fold in range(folds):
        fseed = _fold_seed(seed, fold)
        rng = random.Random(fseed)
        train: list[int] = []
        test: list[int] = []
        for cls in (True, False):
            idx = [i for i, e in enumerate(examples) if e.label is cls]
            rng.shuffle(idx)
            n_train = int(round(0.8 * len(idx)))
            n_train = max(1, min(len(idx) - 1, n_train)) if len(idx) >= 2 else len(idx)
            train += idx[:n_train]
            test += idx[n_train:]
        # rebinding orders to a generator frees the last fold's copy first
        orders: Iterable[Sequence[int]] = epoch_orders(fseed, len(train), epochs)
        if len(set_rows) > 1:  # every set's fit reads the same orders
            orders = [tuple(order) for order in orders]
        for rows, folds_of_set in zip(set_rows, fold_rows):
            model = train_svm(([rows[i] for i in train], names), epochs=epochs, C=C,
                              seed=fseed, orders=orders, max_row_norm=bound)
            # a model's weights hold only its set's names, so the full
            # features score as the restricted ones would, term for term
            c = [0, 0, 0, 0]  # tp, fp, fn, tn: at 2 * (not predicted) + (not label)
            for i in test:
                predicted = model.decision(examples[i].features)[POSITIVE_CLASS] >= 0.0
                c[2 * (not predicted) + (not examples[i].label)] += 1
            counts = dict(zip(COUNTS, c))
            p, r, f = prf(counts)
            folds_of_set.append({"fold": fold, "seed": fseed, "precision": p, "recall": r,
                                 "f1": f, **counts})
    return [({k: sum(r[k] for r in folds_of_set) for k in COUNTS}, folds_of_set)
            for folds_of_set in fold_rows]


def _restrict(
    rows: Sequence[InternedRow], names: Sequence[str], groups: Sequence[str]
) -> list[InternedRow]:
    """The rows with only the named families' features and the bias (each
    row's last id): svm_design of the examples so restricted, in the ids
    of the full design. A row that keeps every feature is returned itself."""
    if not groups:
        raise DegenerateLabels("empty feature-group set")
    unknown = set(groups) - set(FEATURE_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}")
    prefixes = tuple(FEATURE_GROUPS[g] for g in groups)
    keep = [name.startswith(prefixes) for name in names]
    out = []
    for row in rows:
        ids, vals, y = row
        mask = [keep[j] for j in ids[:-1]] + [True]
        # tuple(list): see linear.intern
        out.append(row if all(mask) else (
            tuple(list(compress(ids, mask))), tuple(list(compress(vals, mask))), y))
    return out


def ablate(
    examples: Sequence[LabeledExample],
    feature_groups: Sequence[Sequence[str]],
    *,
    folds: int,
    seed: int,
    epochs: int,
    C: float,
    full: Optional[dict[str, int]] = None,
) -> list[tuple[tuple[str, ...], dict[str, int]]]:
    """(groups, pooled counts) of cross_validate restricted to each
    requested group union; every union is fitted on a fold's split and
    epoch orders before the next fold.

    full, if given, holds the pooled tp/fp/fn/tn counts of cross_validate
    over these examples' full design with the same folds, seed, epochs and
    C. A union whose restriction returns every row of that design is not
    fitted: its counts are full itself."""
    rows, names = svm_design(examples)
    set_rows = [_restrict(rows, names, groups) for groups in feature_groups]
    served = [full is not None and all(map(is_, restricted, rows)) for restricted in set_rows]
    fitted = iter(cross_validate(
        examples, [r for r, s in zip(set_rows, served) if not s], names,
        folds=folds, seed=seed, epochs=epochs, C=C,
    ))
    return [(tuple(groups), full if s else next(fitted)[0])
            for groups, s in zip(feature_groups, served)]


def feature_group_weights(model: LinearModel) -> dict[str, list[float]]:
    """Signed weight sums per feature family: [positive sum, negative sum]."""
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
    return sums

"""Linear classifiers trained by stochastic (sub)gradient descent on hinge
loss. Shared by the numeric-impact classifier (one-vs-rest, constant rate)
and the news-value SVM (binary, 1/(lambda*t) schedule).

Training is single-threaded and fully determined by (data, config, seed);
the bias enters as a regularized constant feature so the weight-decay
trick keeps every step O(nnz).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import DegenerateLabels, SchemaMismatch

BIAS_KEY = "__bias__"

FORMAT = "linear-model/1"

FeatureRow = Sequence[tuple[str, float]]


@dataclass(frozen=True)
class SGDConfig:
    epochs: int
    seed: int
    l2: float
    learning_rate: float | None = None  # None -> 1/(l2 * t) schedule
    class_weight: str | None = None     # None | "balanced"


@dataclass
class LinearModel:
    """Per-class weight maps plus bias and training metadata."""

    kind: str
    classes: tuple[str, ...]
    weights: dict[str, dict[str, float]]
    bias: dict[str, float]
    train_meta: dict = field(default_factory=dict)

    def decision(self, features: dict[str, float]) -> dict[str, float]:
        if not self.classes:
            raise SchemaMismatch("model has no classes")
        scores = {}
        for cls in self.classes:
            w = self.weights.get(cls)
            if w is None:
                raise SchemaMismatch(f"no weights for class {cls!r}")
            scores[cls] = sum(
                w[f] * v for f, v in features.items() if f in w
            ) + self.bias.get(cls, 0.0)
        return scores

    def predict(self, features: dict[str, float]) -> str:
        """Argmax class; ties break by the fixed class order."""
        scores = self.decision(features)
        best = self.classes[0]
        best_score = scores[best]
        for cls in self.classes[1:]:
            if scores[cls] > best_score:
                best, best_score = cls, scores[cls]
        return best

    def save(self, path) -> None:
        payload = {
            "format": FORMAT,
            "kind": self.kind,
            "classes": list(self.classes),
            "weights": self.weights,
            "bias": self.bias,
            "train_meta": self.train_meta,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path, expect_kind: str | None = None) -> "LinearModel":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise SchemaMismatch(f"unreadable model file: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != FORMAT:
            raise SchemaMismatch(
                f"expected model format {FORMAT!r}, got {payload.get('format')!r}"
                if isinstance(payload, dict)
                else "model file is not an object"
            )
        kind = payload.get("kind")
        if expect_kind is not None and kind != expect_kind:
            raise SchemaMismatch(f"expected a {expect_kind!r} model, got {kind!r}")
        classes = payload.get("classes")
        weights = payload.get("weights")
        bias = payload.get("bias")
        train_meta = payload.get("train_meta", {})
        if not isinstance(kind, str) or not isinstance(train_meta, dict):
            raise SchemaMismatch("model 'kind' must be a string and 'train_meta' an object")
        if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
            raise SchemaMismatch("model 'classes' must be a list of strings")
        if not isinstance(weights, dict) or not all(map(_finite_numbers, weights.values())):
            raise SchemaMismatch("model 'weights' must map classes to objects of finite numbers")
        if not _finite_numbers(bias):
            raise SchemaMismatch("model 'bias' must be an object of finite numbers")
        return cls(
            kind=kind,
            classes=tuple(classes),
            weights=weights,
            bias=bias,
            train_meta=train_meta,
        )


def _finite_numbers(value) -> bool:
    """True for a JSON object whose values are all finite numbers."""
    if not isinstance(value, dict):
        return False
    try:
        return all(not isinstance(x, bool) and math.isfinite(x) for x in value.values())
    except (TypeError, OverflowError):  # not a number, or an int past float range
        return False


def _objective(
    rows: list[tuple[tuple[int, ...], tuple[float, ...], int]],
    cs: tuple[float, float],
    v: list[float],
    touched: dict[int, None],
    scale: float,
    l2: float,
) -> float:
    """Regularized hinge objective at the current effective weights."""
    sq_norm = scale * scale * sum(v[j] * v[j] for j in touched)
    hinge = 0.0
    weight = v.__getitem__
    for ids, vals, y in rows:
        margin = y * scale * sum(map(mul, map(weight, ids), vals))
        hinge += cs[y > 0] * max(0.0, 1.0 - margin)
    return 0.5 * l2 * sq_norm + hinge / len(rows)


def _shuffler(rng: random.Random, n: int) -> Callable[[list], None]:
    """`rng.shuffle` for lists of n items, written out: the same Fisher-Yates
    swaps and `getrandbits` draws, so the same permutations and generator
    state, without two method calls per swap."""
    getrandbits = rng.getrandbits
    swaps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]

    def shuffle(order: list) -> None:
        for i, k in swaps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]

    return shuffle


def train_binary_hinge(
    rows: Iterable[tuple[FeatureRow, int]], cfg: SGDConfig
) -> tuple[dict[str, float], float, float, float]:
    """Train one binary hinge classifier over (+1/-1)-labeled sparse rows.

    Rows hold features only; BIAS_KEY is appended to each row here, so the
    bias is a regularized weight like any other. Returns
    (weights, bias, objective_first_epoch, objective_last_epoch).

    The kernel reads `rows` once and interns feature names to dense ids in
    first-seen order. It is exact against a dict of weights keyed by name:
    - a margin is `sum()` over the row's products in row order, the same
      floats in the same order. Keep it a `sum()`: from Python 3.12 a float
      `sum()` is compensated, and a `+=` loop would round differently;
    - an update adds `g * val` to each id in row order, and an id no step
      has touched holds 0.0, which is what a missing key reads as;
    - `touched` keeps ids in first-update order, the order a dict inserts
      keys, so the returned weights and the objective's squared norm
      iterate as that dict would. A row adds its ids once per clear, which
      a per-row stamp records; a clear (decay <= 0) zeroes the touched
      weights, empties the order and starts a new stamp.
    """
    index: dict[str, int] = {}
    prepared = []
    for x, y in rows:
        x = tuple(x) + ((BIAS_KEY, 1.0),)
        # tuple(list), not tuple(genexpr): CPython parks a tuple grown in place
        # in a free list that later allocations never reuse, raising peak RSS
        ids = tuple([index.setdefault(f, len(index)) for f, _ in x])
        prepared.append((ids, tuple([val for _, val in x]), y))
    n = len(prepared)
    if n == 0:
        raise DegenerateLabels("no training rows")
    if cfg.class_weight == "balanced":
        n_pos = sum(1 for *_, y in prepared if y > 0)
        n_neg = n - n_pos
        pos_w = n / (2.0 * n_pos) if n_pos else 0.0
        neg_w = n / (2.0 * n_neg) if n_neg else 0.0
    else:
        pos_w = neg_w = 1.0
    cs = (neg_w, pos_w)

    v = [0.0] * len(index)
    weight = v.__getitem__
    touched: dict[int, None] = {}
    stamp = 0
    row_stamp = [-1] * n
    scale = 1.0
    shuffle = _shuffler(random.Random(cfg.seed), n)
    order = list(range(n))
    l2 = cfg.l2
    t = 0
    obj_first = obj_last = 0.0
    for epoch in range(cfg.epochs):
        shuffle(order)
        for i in order:
            t += 1
            if cfg.learning_rate is None:
                eta = 1.0 / (l2 * t)
                decay = 1.0 - 1.0 / t  # algebraically eta*l2 == 1/t; exact at t=1
            else:
                eta = cfg.learning_rate
                decay = 1.0 - eta * l2
            ids, vals, y = prepared[i]
            margin = y * scale * sum(map(mul, map(weight, ids), vals))
            if decay <= 0.0:
                for j in touched:
                    v[j] = 0.0
                touched.clear()
                stamp += 1
                scale = 1.0
            else:
                scale *= decay
            if margin < 1.0:
                g = eta * cs[y > 0] * y / scale
                for j, val in zip(ids, vals):
                    v[j] += g * val
                if row_stamp[i] != stamp:
                    row_stamp[i] = stamp
                    touched.update(zip(ids, repeat(None)))
        if epoch == 0:
            obj_first = _objective(prepared, cs, v, touched, scale, l2)
        if epoch == cfg.epochs - 1:
            obj_last = _objective(prepared, cs, v, touched, scale, l2)

    names = list(index)
    weights = {names[j]: scale * v[j] for j in touched if scale * v[j] != 0.0}
    bias = weights.pop(BIAS_KEY, 0.0)
    return weights, bias, obj_first, obj_last


def train_one_vs_rest(
    rows: Iterable[tuple[FeatureRow, str]],
    classes: Sequence[str],
    cfg: SGDConfig,
    kind: str,
) -> LinearModel:
    """One binary hinge classifier per class, deterministic per seed."""
    rows = list(rows)
    weights: dict[str, dict[str, float]] = {}
    bias: dict[str, float] = {}
    obj_first: dict[str, float] = {}
    obj_last: dict[str, float] = {}
    for idx, cls in enumerate(classes):
        binary = [(x, 1 if label == cls else -1) for x, label in rows]
        sub_cfg = SGDConfig(
            epochs=cfg.epochs,
            seed=cfg.seed * 31 + idx,
            l2=cfg.l2,
            learning_rate=cfg.learning_rate,
            class_weight=cfg.class_weight,
        )
        w, b, first, last = train_binary_hinge(binary, sub_cfg)
        weights[cls] = w
        bias[cls] = b
        obj_first[cls] = first
        obj_last[cls] = last
    meta = {
        "epochs": cfg.epochs,
        "learning_rate": cfg.learning_rate,
        "l2": cfg.l2,
        "seed": cfg.seed,
        "class_weight": cfg.class_weight,
        "objective_first": obj_first,
        "objective_last": obj_last,
        "n_rows": len(rows),
    }
    return LinearModel(kind=kind, classes=tuple(classes), weights=weights, bias=bias, train_meta=meta)

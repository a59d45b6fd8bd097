"""Linear classifiers trained by stochastic (sub)gradient descent on hinge
loss. Shared by the numeric-impact classifier (one-vs-rest, constant rate)
and the news-value SVM (binary, 1/(lambda*t) schedule).

Training is single-threaded and fully determined by (data, config, seed);
the bias enters as a regularized constant feature so the weight-decay
trick keeps every step O(nnz). Most steps leave the weights alone (only
the decay factor moves), so each row keeps its last dot product with them
and a step recomputes it only after an update or a clear: the same
`sum()` over the same floats, so a reused value is the one a recompute
would return, on every Python version.

The objective after the first and last epochs costs a pass over the rows
each; only the fit whose objective is read (the saved SVM) always pays
it, see `train_binary_hinge`.
"""

from __future__ import annotations

import json
import math
import random
from itertools import repeat
from operator import mul
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DegenerateLabels, SchemaMismatch

BIAS_KEY = "__bias__"

FORMAT = "linear-model/1"

FeatureRow = Sequence[tuple[str, float]]
InternedRow = tuple[tuple[int, ...], tuple[float, ...], Any]  # (ids, values, label)


class SGDConfig(NamedTuple):
    epochs: int
    l2: float
    learning_rate: float | None = None  # None -> 1/(l2 * t) schedule
    class_weight: str | None = None     # None | "balanced"


class LinearModel:
    """Per-class weight maps plus bias and training metadata."""

    def __init__(
        self, kind: str, classes: tuple[str, ...], weights: dict[str, dict[str, float]],
        bias: dict[str, float], train_meta: dict | None = None,
    ):
        if not classes:
            raise SchemaMismatch("model has no classes")
        for cls in classes:
            if cls not in weights:
                raise SchemaMismatch(f"no weights for class {cls!r}")
        self.kind = kind
        self.classes = classes
        self.weights = weights
        self.bias = bias
        self.train_meta = {} if train_meta is None else train_meta

    def decision(self, features: dict[str, float]) -> dict[str, float]:
        scores = {}
        for cls in self.classes:
            w = self.weights[cls]
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
        # one write: json.dump with an indent writes once per chunk
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")

    @classmethod
    def load(cls, path, expect_kind: str) -> "LinearModel":
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
        if kind != expect_kind:
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
    rows: Sequence[InternedRow],
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


def _objective_unless_bounded(
    rows: Sequence[InternedRow],
    cs: tuple[float, float],
    v: list[float],
    touched: dict[int, None],
    scale: float,
    l2: float,
    max_row_norm: float | None,
) -> float | None:
    """`_objective`, or None where max_row_norm (`largest_row_norm` of the
    rows or of a superset) proves it finite in O(touched) without a pass
    over the rows.

    Each margin is scale * (v . row) and |v . row| <= ||v||_2 * ||row||_1,
    repeated ids included, so the objective is at most
    0.5*l2*||w||^2 + max(cs) * (1 + scale * ||v||_2 * max_row_norm). Both
    that dot bound and the whole bound must stay under 1e300: rounding,
    underflowed squares and up to 1e8 rows' hinge terms summed before the
    mean fit in the rest of the float range. A NaN or inf fails either
    test, and a failed test runs the exact pass, so a caller that checks
    the objective for finiteness decides as if it had always computed it.
    """
    if max_row_norm is not None:
        sq_sum = sum(v[j] * v[j] for j in touched)
        dot = math.sqrt(sq_sum) * max_row_norm
        bound = 0.5 * l2 * (scale * scale * sq_sum) + max(cs) * (1.0 + scale * dot)
        if dot < 1e300 and bound < 1e300:
            return None
    return _objective(rows, cs, v, touched, scale, l2)


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


def intern(rows: Iterable[tuple[FeatureRow, Any]]) -> tuple[list[InternedRow], list[str]]:
    """Rows of (name, value) pairs as (ids, values, label), BIAS_KEY appended
    to each, and the names by id, interned in first-seen order."""
    index: dict[str, int] = {}
    out = []
    for x, y in rows:
        x = tuple(x) + ((BIAS_KEY, 1.0),)
        # tuple(list), not tuple(genexpr): CPython parks a tuple grown in place
        # in a free list that later allocations never reuse, raising peak RSS
        ids = tuple([index.setdefault(f, len(index)) for f, _ in x])
        out.append((ids, tuple([val for _, val in x]), y))
    return out, list(index)


def largest_row_norm(rows: Iterable[InternedRow]) -> float:
    """The largest L1 norm of a row's values, the bias's included:
    `train_binary_hinge`'s max_row_norm for these rows or any subset."""
    return max((sum(map(abs, vals)) for _, vals, _ in rows), default=0.0)


def epoch_orders(seed: int, n: int, epochs: int) -> Iterator[list[int]]:
    """The visiting order of n rows in each epoch, drawn from Random(seed):
    one list shuffled in place per epoch, so copy an order to keep it."""
    shuffle = _shuffler(random.Random(seed), n)
    order = list(range(n))
    for _ in range(epochs):
        shuffle(order)
        yield order


def train_binary_hinge(
    rows: Sequence[InternedRow], cfg: SGDConfig, names: Sequence[str],
    orders: Iterable[Sequence[int]], max_row_norm: float | None = None,
) -> tuple[dict[str, float], float, float | None, float | None]:
    """Train one binary hinge classifier over interned (+1/-1)-labeled rows.

    Rows come from `intern`, so BIAS_KEY ends each and the bias is a
    regularized weight like any other; `names` maps ids to names and may
    hold names no row uses. `orders` gives each epoch's visiting order
    (`epoch_orders`). Returns
    (weights, bias, objective_first_epoch, objective_last_epoch).

    Without max_row_norm both objectives are computed. With it (a bound
    from `largest_row_norm`), an objective is None where the bound proves
    it finite and the exact value otherwise; the weights are the same.

    The kernel is exact against a dict of weights keyed by name:
    - a margin is `y * scale * dot`, dot being `sum()` over the row's
      products in row order, the same floats in the same order. Keep it a
      `sum()`: from Python 3.12 a float `sum()` is compensated, and a `+=`
      loop (or the bias's product split off and added after) would round
      differently;
    - a row's dot is stored with the `version` it was computed at, and
      `version` moves on every update and every clear, the only writes to
      v. A step whose row holds the current version reads the stored dot:
      it is the same `sum()` over the same unchanged floats, so it equals
      the recomputed one bit for bit, compensated or not;
    - an update adds `g * val` to each id in row order, and an id no step
      has touched holds 0.0, which is what a missing key reads as;
    - `touched` keeps ids in first-update order, the order a dict inserts
      keys, so the returned weights and the objective's squared norm
      iterate as that dict would. A row adds its ids once per clear, which
      a per-row stamp records; a clear (decay <= 0) zeroes the touched
      weights, empties the order and starts a new stamp.
    """
    n = len(rows)
    if n == 0:
        raise DegenerateLabels("no training rows")
    if cfg.class_weight == "balanced":
        n_pos = sum(1 for *_, y in rows if y > 0)
        n_neg = n - n_pos
        pos_w = n / (2.0 * n_pos) if n_pos else 0.0
        neg_w = n / (2.0 * n_neg) if n_neg else 0.0
    else:
        pos_w = neg_w = 1.0
    cs = (neg_w, pos_w)

    v = [0.0] * len(names)
    weight = v.__getitem__
    touched: dict[int, None] = {}
    stamp = 0
    row_stamp = [-1] * n
    version = 0  # bumped whenever v changes: an update or a clear
    dots = [0.0] * n
    dot_version = [-1] * n
    scale = 1.0
    l2 = cfg.l2
    rate = cfg.learning_rate
    t = 0
    obj_first = obj_last = 0.0
    for epoch, order in enumerate(orders):
        for i in order:
            t += 1
            if rate is None:
                decay = 1.0 - 1.0 / t  # algebraically eta*l2 == 1/t; exact at t=1
            else:
                decay = 1.0 - rate * l2
            ids, vals, y = rows[i]
            if dot_version[i] == version:
                dot = dots[i]
            else:
                dot = dots[i] = sum(map(mul, map(weight, ids), vals))
                dot_version[i] = version
            margin = y * scale * dot
            if decay <= 0.0:
                for j in touched:
                    v[j] = 0.0
                touched.clear()
                stamp += 1
                version += 1
                scale = 1.0
            else:
                scale *= decay
            if margin < 1.0:
                eta = 1.0 / (l2 * t) if rate is None else rate
                g = eta * cs[y > 0] * y / scale
                for j, val in zip(ids, vals):
                    v[j] += g * val
                version += 1
                if row_stamp[i] != stamp:
                    row_stamp[i] = stamp
                    touched.update(zip(ids, repeat(None)))
        if epoch == 0:
            obj_first = _objective_unless_bounded(rows, cs, v, touched, scale, l2, max_row_norm)
        if epoch == cfg.epochs - 1:
            obj_last = _objective_unless_bounded(rows, cs, v, touched, scale, l2, max_row_norm)

    weights = {names[j]: scale * v[j] for j in touched if scale * v[j] != 0.0}
    bias = weights.pop(BIAS_KEY, 0.0)
    return weights, bias, obj_first, obj_last


"""The interned-id SGD kernel against the dict-keyed kernel it replaced.

`reference_train_binary_hinge` is that kernel, kept here as the oracle: the
interned kernel must return repr-identical weights (same key order), bias
and objectives for every input, because the artifacts hash its floats.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsvalue.errors import DegenerateLabels, SchemaMismatch
from newsvalue.linear import (
    BIAS_KEY,
    SGDConfig,
    _shuffler,
    train_binary_hinge,
    train_one_vs_rest,
)
from newsvalue.model import POSITIVE_CLASS, train_svm
from newsvalue.records import LabeledExample


def reference_objective(rows, v, scale, l2):
    sq_norm = scale * scale * sum(x * x for x in v.values())
    hinge = 0.0
    for x, y, c in rows:
        margin = y * scale * sum(v.get(f, 0.0) * val for f, val in x)
        hinge += c * max(0.0, 1.0 - margin)
    return 0.5 * l2 * sq_norm + hinge / len(rows)


def reference_train_binary_hinge(rows, cfg):
    n = len(rows)
    if n == 0:
        raise DegenerateLabels("no training rows")
    if cfg.class_weight == "balanced":
        n_pos = sum(1 for _, y in rows if y > 0)
        n_neg = n - n_pos
        pos_w = n / (2.0 * n_pos) if n_pos else 0.0
        neg_w = n / (2.0 * n_neg) if n_neg else 0.0
    else:
        pos_w = neg_w = 1.0
    prepared = [
        (tuple(x) + ((BIAS_KEY, 1.0),), y, pos_w if y > 0 else neg_w)
        for x, y in rows
    ]

    v = {}
    scale = 1.0
    rng = random.Random(cfg.seed)
    order = list(range(n))
    l2 = cfg.l2
    t = 0
    obj_first = obj_last = 0.0
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        for i in order:
            t += 1
            if cfg.learning_rate is None:
                eta = 1.0 / (l2 * t)
                decay = 1.0 - 1.0 / t
            else:
                eta = cfg.learning_rate
                decay = 1.0 - eta * l2
            x, y, c = prepared[i]
            margin = y * scale * sum(v.get(f, 0.0) * val for f, val in x)
            if decay <= 0.0:
                v.clear()
                scale = 1.0
            else:
                scale *= decay
            if margin < 1.0:
                g = eta * c * y / scale
                for f, val in x:
                    v[f] = v.get(f, 0.0) + g * val
        if epoch == 0:
            obj_first = reference_objective(prepared, v, scale, l2)
        if epoch == cfg.epochs - 1:
            obj_last = reference_objective(prepared, v, scale, l2)

    weights = {f: scale * w for f, w in v.items() if scale * w != 0.0}
    bias = weights.pop(BIAS_KEY, 0.0)
    return weights, bias, obj_first, obj_last


NAMES = ("a", "b", "c", "d", "e", BIAS_KEY)
values = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.1, 1e-9, 3e7)),
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)
feature_rows = st.lists(st.tuples(st.sampled_from(NAMES), values), max_size=6)
labeled_rows = st.lists(st.tuples(feature_rows, st.sampled_from((1, -1))), min_size=1, max_size=10)
configs = st.builds(
    SGDConfig,
    epochs=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    l2=st.floats(1e-4, 2.0),
    learning_rate=st.one_of(st.none(), st.floats(1e-3, 4.0)),
    class_weight=st.sampled_from((None, "balanced")),
)

CLEAR_EVERY_STEP = SGDConfig(epochs=3, seed=5, l2=1.0, learning_rate=1.5)


def assert_same_fit(rows, cfg):
    expected = reference_train_binary_hinge(list(rows), cfg)
    got = train_binary_hinge(iter(rows), cfg)
    assert repr(got) == repr(expected)
    assert list(got[0]) == list(expected[0])


@settings(max_examples=300, deadline=None)
@given(labeled_rows, configs)
@example([([("a", 1.0), ("b", 2.0)], 1), ([("b", -1.0)], -1), ([], 1)], CLEAR_EVERY_STEP)
@example(
    [([("a", 0.5), ("a", 0.25), (BIAS_KEY, 3.0)], 1), ([("c", 1.0)], 1)],
    SGDConfig(epochs=1, seed=0, l2=0.01, class_weight="balanced"),
)
@example(
    [([("c", 1e-9), ("a", 3e7), ("b", -3e7)], -1), ([("b", 0.1), ("c", 1.0)], 1)],
    SGDConfig(epochs=2, seed=3, l2=0.5, learning_rate=0.3),
)
def test_interned_kernel_matches_dict_kernel(rows, cfg):
    assert_same_fit(rows, cfg)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 160, 257])
def test_shuffler_equals_random_shuffle(n):
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        shuffle = _shuffler(rng, n)
        order, expected = list(range(n)), list(range(n))
        for _ in range(3):
            shuffle(order)
            ref.shuffle(expected)
            assert order == expected
            assert rng.getstate() == ref.getstate()


def test_clear_every_step_resets_weights_and_order():
    cfg = CLEAR_EVERY_STEP
    assert cfg.learning_rate * cfg.l2 >= 1.0
    rows = [([("a", 1.0), ("b", 2.0)], 1), ([("c", 1.0), ("a", -1.0)], -1), ([], 1)]
    assert_same_fit(rows, cfg)


def test_balanced_with_one_class_absent():
    rows = [([("a", 1.0)], 1), ([("b", 0.5), ("a", 0.2)], 1)]
    cfg = SGDConfig(epochs=3, seed=1, l2=0.1, class_weight="balanced")
    assert_same_fit(rows, cfg)


def test_no_rows_raise_degenerate_labels():
    with pytest.raises(DegenerateLabels, match="no training rows"):
        train_binary_hinge([], SGDConfig(epochs=100, seed=0, l2=1e-4))
    with pytest.raises(DegenerateLabels, match="no training rows"):
        train_binary_hinge(iter(()), SGDConfig(epochs=100, seed=0, l2=1e-4))


def test_one_vs_rest_fed_a_generator():
    rng = random.Random(4)
    classes = ("x", "y", "z")
    rows = [
        ([(f"f{j}", rng.uniform(-2, 2)) for j in rng.sample(range(8), 3)], rng.choice(classes))
        for _ in range(30)
    ]
    cfg = SGDConfig(epochs=5, seed=2, l2=1e-3, learning_rate=0.05)
    from_list = train_one_vs_rest(rows, classes, cfg, kind="toy")
    from_gen = train_one_vs_rest((r for r in rows), classes, cfg, kind="toy")
    assert repr(from_gen) == repr(from_list)
    for idx, cls in enumerate(classes):
        binary = [(x, 1 if label == cls else -1) for x, label in rows]
        sub = SGDConfig(epochs=5, seed=2 * 31 + idx, l2=1e-3, learning_rate=0.05)
        w, b, _, _ = reference_train_binary_hinge(binary, sub)
        assert repr((from_gen.weights[cls], from_gen.bias[cls])) == repr((w, b))


def test_train_svm_matches_reference_kernel():
    rng = random.Random(9)
    examples = [
        LabeledExample(
            post_id=f"p{i}",
            features={f"text_{j}": rng.uniform(0, 1) for j in rng.sample(range(12), 4)},
            label=i % 3 == 0,
        )
        for i in range(40)
    ]
    model = train_svm(examples, epochs=7, C=2.0, seed=3)
    rows = [(tuple(sorted(e.features.items())), 1 if e.label else -1) for e in examples]
    cfg = SGDConfig(epochs=7, seed=3, l2=1.0 / (2.0 * 40), class_weight="balanced")
    w, b, first, last = reference_train_binary_hinge(rows, cfg)
    assert repr(model.weights[POSITIVE_CLASS]) == repr(w)
    assert repr(model.bias[POSITIVE_CLASS]) == repr(b)
    assert repr((model.train_meta["objective_first"], model.train_meta["objective_last"])) == repr(
        (first, last)
    )


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, 1e308])
def test_train_svm_rejects_c_without_positive_finite_l2(c):
    examples = [
        LabeledExample(post_id="a", features={"text_x": 1.0}, label=True),
        LabeledExample(post_id="b", features={"text_y": 1.0}, label=False),
    ]
    with pytest.raises(SchemaMismatch):
        train_svm(examples, epochs=2, C=c, seed=0)

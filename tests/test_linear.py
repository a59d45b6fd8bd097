"""The interned-id SGD kernel against the dict-keyed kernel it replaced.

`reference_train_binary_hinge` is that kernel, kept here as the oracle: the
interned kernel (`intern`, then `train_binary_hinge` over `epoch_orders`)
must return repr-identical weights (same key order), bias and objectives
for every input, because the artifacts hash its floats. The reference
computes every margin afresh, so it also checks the kernel's reuse of a
row's stored dot product.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import newsvalue.linear
from newsvalue.errors import DegenerateLabels, SchemaMismatch
from newsvalue.impact import IMPACT_CLASSES, ImpactFeatureRow, train_impact_classifier
from newsvalue.linear import (
    BIAS_KEY,
    SGDConfig,
    _shuffler,
    epoch_orders,
    intern,
    largest_row_norm,
    train_binary_hinge,
)
from newsvalue.model import POSITIVE_CLASS, svm_design, train_svm
from newsvalue.records import LabeledExample


def reference_objective(rows, v, scale, l2):
    sq_norm = scale * scale * sum(x * x for x in v.values())
    hinge = 0.0
    for x, y, c in rows:
        margin = y * scale * sum(v.get(f, 0.0) * val for f, val in x)
        hinge += c * max(0.0, 1.0 - margin)
    return 0.5 * l2 * sq_norm + hinge / len(rows)


def reference_train_binary_hinge(rows, cfg, seed, steps=None):
    """The dict-keyed kernel; with a `steps` list, it also appends one
    (epoch, row, cleared, updated) tuple per step."""
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
    rng = random.Random(seed)
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
            if steps is not None:
                steps.append((epoch, i, decay <= 0.0, margin < 1.0))
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
    l2=st.floats(1e-4, 2.0),
    learning_rate=st.one_of(st.none(), st.floats(1e-3, 4.0)),
    class_weight=st.sampled_from((None, "balanced")),
)

CLEAR_EVERY_STEP = SGDConfig(epochs=3, l2=1.0, learning_rate=1.5)
SEPARABLE = [([("a", 1.0)], 1), ([("b", 2.0)], -1)]
# Under CLEAR_EVERY_STEP the row's margin after its own update is at least
# 1, so every second step clears the weights without updating them, and the
# next step must see the cleared weights.
CLEARS_WITHOUT_UPDATES = [([("a", 1.0), ("b", 2.0)], 1)]


def interned_fit(rows, cfg, seed, keep_orders=False):
    """train_binary_hinge over intern(rows), its epoch orders drawn lazily
    or, with keep_orders, copied up front as a shared schedule is."""
    rows, names = intern(rows)
    orders = epoch_orders(seed, len(rows), cfg.epochs)
    if keep_orders:
        orders = [tuple(order) for order in orders]
    return train_binary_hinge(rows, cfg, names, orders)


def assert_same_fit(rows, cfg, seed):
    expected = reference_train_binary_hinge(list(rows), cfg, seed)
    for keep_orders in (False, True):
        got = interned_fit(iter(rows), cfg, seed, keep_orders)
        assert repr(got) == repr(expected)
        assert list(got[0]) == list(expected[0])


@settings(max_examples=300, deadline=None)
@given(labeled_rows, configs, st.integers(0, 2**32))
@example([([("a", 1.0), ("b", 2.0)], 1), ([("b", -1.0)], -1), ([], 1)], CLEAR_EVERY_STEP, 5)
@example(
    [([("a", 0.5), ("a", 0.25), (BIAS_KEY, 3.0)], 1), ([("c", 1.0)], 1)],
    SGDConfig(epochs=1, l2=0.01, class_weight="balanced"), 0,
)
@example(
    [([("c", 1e-9), ("a", 3e7), ("b", -3e7)], -1), ([("b", 0.1), ("c", 1.0)], 1)],
    SGDConfig(epochs=2, l2=0.5, learning_rate=0.3), 3,
)
# Stored dot products reused: a separable design that stops updating, rows
# with repeated ids and BIAS_KEY as a feature, a bias-only row, and clears
# that come without an update.
@example(SEPARABLE, SGDConfig(epochs=4, l2=0.5), 1)
@example(
    [([("a", 0.5), ("a", 0.25), (BIAS_KEY, 3.0)], 1), ([("c", 2.0), ("c", -0.5)], -1)],
    SGDConfig(epochs=4, l2=0.2, class_weight="balanced"), 2,
)
@example([([], 1), ([("a", 2.0)], -1), ([], 1)], SGDConfig(epochs=4, l2=0.3), 2)
@example(CLEARS_WITHOUT_UPDATES, CLEAR_EVERY_STEP, 0)
def test_interned_kernel_matches_dict_kernel(rows, cfg, seed):
    assert_same_fit(rows, cfg, seed)


class VisitedRows(list):
    """Interned rows that open one log entry, [row], per `rows[i]` read:
    the kernel reads its row once per step."""

    def __init__(self, rows, log):
        super().__init__(rows)
        self.log = log

    def __getitem__(self, i):
        self.log.append([i])
        return super().__getitem__(i)


def computed_dot_products(rows, cfg, seed):
    """(row, values multiplied) per step of train_binary_hinge: a dot
    product's `sum()` calls `mul` with each of the row's values in order, so
    a step that reuses its row's stored dot product multiplies nothing."""
    log = []

    def logged_mul(w, val):
        log[-1].append(val)
        return w * val

    rows, names = intern(rows)
    with mock.patch.object(newsvalue.linear, "mul", logged_mul):
        *_, first, last = train_binary_hinge(
            VisitedRows(rows, log), cfg, names, epoch_orders(seed, len(rows), cfg.epochs),
            max_row_norm=largest_row_norm(rows),
        )
    assert first is None and last is None  # no objective pass calls `mul`
    return [(i, tuple(vals)) for i, *vals in log]


@pytest.mark.parametrize(
    "rows, cfg, seed",
    [(SEPARABLE, SGDConfig(epochs=8, l2=0.05), 1), (CLEARS_WITHOUT_UPDATES, CLEAR_EVERY_STEP, 0)],
    ids=["separable", "clear-every-step"],
)
def test_dot_product_recomputed_only_after_a_weight_changes(rows, cfg, seed):
    """Replayed from the reference kernel's steps: a row's dot product is
    computed on its first visit and on every visit after an update or a
    clear, and reused otherwise. So the step after an update or a clear
    computes, and an epoch with neither, after one with neither, computes
    nothing."""
    steps = []
    reference_train_binary_hinge(rows, cfg, seed, steps)
    interned, _ = intern(rows)
    expected = []
    fresh = set()
    for _, i, cleared, updated in steps:
        expected.append((i, () if i in fresh else interned[i][1]))
        fresh.add(i)
        if cleared or updated:
            fresh.clear()
    got = computed_dot_products(rows, cfg, seed)
    assert got == expected

    changed = [cleared or updated for _, _, cleared, updated in steps]
    assert all(vals for (_, vals), after in zip(got[1:], changed) if after)
    by_epoch = [[k for k, (epoch, *_) in enumerate(steps) if epoch == e] for e in range(cfg.epochs)]
    quiet = [not any(changed[k] for k in ks) for ks in by_epoch]
    for e in range(1, cfg.epochs):
        if quiet[e - 1] and quiet[e]:
            assert not any(got[k][1] for k in by_epoch[e])
    if cfg.learning_rate is None:
        assert any(a and b for a, b in zip(quiet, quiet[1:]))  # the case has such epochs
    else:
        assert all(changed)  # a clear on every step


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


@pytest.mark.parametrize("n", [0, 1, 5, 257])
def test_epoch_orders_are_one_generators_shuffles(n):
    ref = random.Random(7)
    expected = list(range(n))
    orders = list(map(tuple, epoch_orders(7, n, 4)))
    assert len(orders) == 4
    for order in orders:
        ref.shuffle(expected)
        assert order == tuple(expected)


def test_clear_every_step_resets_weights_and_order():
    cfg = CLEAR_EVERY_STEP
    assert cfg.learning_rate * cfg.l2 >= 1.0
    rows = [([("a", 1.0), ("b", 2.0)], 1), ([("c", 1.0), ("a", -1.0)], -1), ([], 1)]
    assert_same_fit(rows, cfg, 5)


def test_balanced_with_one_class_absent():
    rows = [([("a", 1.0)], 1), ([("b", 0.5), ("a", 0.2)], 1)]
    cfg = SGDConfig(epochs=3, l2=0.1, class_weight="balanced")
    assert_same_fit(rows, cfg, 1)


def test_no_rows_raise_degenerate_labels():
    with pytest.raises(DegenerateLabels, match="no training rows"):
        interned_fit([], SGDConfig(epochs=100, l2=1e-4), 0)
    with pytest.raises(DegenerateLabels, match="no training rows"):
        interned_fit(iter(()), SGDConfig(epochs=100, l2=1e-4), 0)


def test_impact_classifier_matches_reference_kernel():
    rng = random.Random(4)
    rows = [
        (ImpactFeatureRow(mixed_alnum=rng.random() < 0.5, human_terms_hits=rng.randrange(3),
                          tfidf_triple=(rng.uniform(0, 2), rng.uniform(0, 2), 0.0)),
         rng.choice(IMPACT_CLASSES))
        for _ in range(30)
    ]
    cfg = SGDConfig(epochs=5, l2=1e-3, learning_rate=0.05)
    model = train_impact_classifier(rows, cfg, 2)
    assert (model.kind, model.classes) == ("impact", IMPACT_CLASSES)
    for idx, cls in enumerate(IMPACT_CLASSES):
        binary = [(row.as_features(), 1 if label == cls else -1) for row, label in rows]
        w, b, _, _ = reference_train_binary_hinge(binary, cfg, 2 * 31 + idx)
        assert repr((model.weights[cls], model.bias[cls])) == repr((w, b))


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
    model = train_svm(svm_design(examples), epochs=7, C=2.0, seed=3)
    rows = [(tuple(sorted(e.features.items())), 1 if e.label else -1) for e in examples]
    cfg = SGDConfig(epochs=7, l2=1.0 / (2.0 * 40), class_weight="balanced")
    w, b, first, last = reference_train_binary_hinge(rows, cfg, 3)
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
        train_svm(svm_design(examples), epochs=2, C=c, seed=0)


# Fits a cross-validation resample makes: train_svm given a row-norm bound,
# as (examples' (features, label) pairs, C, epochs, seed).
BOUND_HOLDS = ([({"text_a": 1.0}, True), ({"scope_b": 1.0}, False)], 1.0, 2, 0)
BOUND_FAILS_OBJECTIVE_OVERFLOWS = ([({"text_a": 1.0}, True), ({"scope_b": 1.0}, False)], 1e200, 2, 0)
BOUND_FAILS_OBJECTIVE_FINITE = (
    [({"text_a": 1e290}, True), ({"scope_b": -1e58}, False), ({}, True), ({}, True)], 1e60, 1, 0
)


def bounded_fit(data, c, epochs, seed):
    examples = [LabeledExample(f"p{i}", x, y) for i, (x, y) in enumerate(data)]
    design = svm_design(examples)
    return train_svm(design, epochs=epochs, C=c, seed=seed,
                     max_row_norm=largest_row_norm(design[0]))


# BIAS_KEY as a feature repeats an id within a row
svm_data = st.lists(
    st.tuples(
        st.dictionaries(
            st.sampled_from(("text_a", "scope_b", "loc_c", BIAS_KEY)),
            st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
        st.booleans(),
    ),
    min_size=2,
    max_size=8,
).filter(lambda data: len({y for _, y in data}) == 2)


@settings(max_examples=300, deadline=None)
@given(svm_data, st.floats(-3.0, 308.0).map(lambda e: 10.0 ** e), st.integers(1, 4),
       st.integers(0, 2**32))
@example(*BOUND_FAILS_OBJECTIVE_OVERFLOWS)
@example(*BOUND_FAILS_OBJECTIVE_FINITE)
def test_bounded_fit_rejects_iff_the_reference_overflows(data, c, epochs, seed):
    """With a row-norm bound, train_svm rejects a fit exactly when the
    reference kernel, which computes both objectives, returns a non-finite
    weight, bias or objective; an accepted fit has the reference's weights
    and bias, and each objective is None or the reference's."""
    lam = 1.0 / (c * len(data))
    expected = None
    if math.isfinite(lam) and lam > 0.0:
        rows = [(tuple(sorted(x.items())), 1 if y else -1) for x, y in data]
        cfg = SGDConfig(epochs=epochs, l2=lam, class_weight="balanced")
        expected = reference_train_binary_hinge(rows, cfg, seed)
        w, b, first, last = expected
        if not all(map(math.isfinite, (b, first, last, *w.values()))):
            expected = None
    if expected is None:
        with pytest.raises(SchemaMismatch):
            bounded_fit(data, c, epochs, seed)
        return
    model = bounded_fit(data, c, epochs, seed)
    assert repr((model.weights[POSITIVE_CLASS], model.bias[POSITIVE_CLASS])) == repr((w, b))
    for key, objective in (("objective_first", first), ("objective_last", last)):
        assert model.train_meta[key] is None or repr(model.train_meta[key]) == repr(objective)


@pytest.mark.parametrize(
    "case, passes, accepted",
    [(BOUND_HOLDS, 0, True), (BOUND_FAILS_OBJECTIVE_OVERFLOWS, 2, False),
     (BOUND_FAILS_OBJECTIVE_FINITE, 2, True)],
    ids=["bound-holds", "objective-overflows", "objective-finite"],
)
def test_objective_pass_runs_only_where_the_bound_fails(case, passes, accepted):
    with mock.patch.object(newsvalue.linear, "_objective", wraps=newsvalue.linear._objective) as objective:
        try:
            model = bounded_fit(*case)
        except SchemaMismatch:
            model = None
    assert objective.call_count == passes
    assert (model is not None) == accepted

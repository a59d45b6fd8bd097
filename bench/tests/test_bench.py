"""Tests of the benchmark itself: generator, checker, tracer, contract.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import check  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402

GAZETTEER = ROOT / "src" / "newsvalue" / "data" / "world_cities.txt"


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(tmp_path, workload):
    gen.generate(workload, 7, 0.2, tmp_path / "a", GAZETTEER)
    gen.generate(workload, 7, 0.2, tmp_path / "b", GAZETTEER)
    gen.generate(workload, 8, 0.2, tmp_path / "c", GAZETTEER)
    first = _files(tmp_path / "a")
    assert set(first) >= {"config.json", "posts.ndjson", "headlines.ndjson", "profiles.ndjson"}
    assert first == _files(tmp_path / "b")
    assert first["posts.ndjson"] != _files(tmp_path / "c")["posts.ndjson"]


def test_scale_halves_record_counts(tmp_path):
    gen.generate("wire-dense", 3, 1.0, tmp_path / "full", GAZETTEER)
    gen.generate("wire-dense", 3, 0.5, tmp_path / "half", GAZETTEER)
    for name in ("posts.ndjson", "headlines.ndjson"):
        full = (tmp_path / "full" / name).read_text().count("\n")
        half = (tmp_path / "half" / name).read_text().count("\n")
        assert half == pytest.approx(full / 2, abs=1)


@pytest.fixture()
def corpus(tmp_path, monkeypatch):
    """A small feed-rich corpus; verbs chdir into it, so restore cwd after."""
    monkeypatch.chdir(tmp_path)
    directory = tmp_path / "feed"
    gen.generate("feed-rich", 5, 0.1, directory, GAZETTEER)
    posts = len(child._post_ids(directory))
    return {"dir": str(directory), "scale": 1.0, "posts": posts, "key": "k"}


def test_clean_pass_has_no_failures(corpus):
    store: dict = {}
    record, _ = child.run_pass(corpus, traced=False, store=store)
    assert record["failed"] == {}
    assert [verb for verb, _ in record["runs"]] == list(check.VERBS)
    assert len(record["refs"]) == len(record["runs"]) + 1
    assert set(store["k"]) == {n for names in check.ARTIFACTS.values() for n in names}
    again, _ = child.run_pass(corpus, traced=False, store=store, repeats={"train": 2})
    assert again["failed"] == {}
    assert [verb for verb, _ in again["runs"]].count("train") == 2
    assert run._tally([record, again])[:2] == (13, 0)


def test_checker_flags_corrupted_artifacts(corpus):
    child.run_pass(corpus, traced=False, store={})
    out = Path(corpus["dir"]) / "out"
    post_ids = child._post_ids(Path(corpus["dir"]))
    label_stdout = "matched: 0 (direct 0, via link 0)\ntardy: 0\nunmatched: 0\n"
    reference = check.digests(out)

    with open(out / "features.tsv", "a", encoding="utf-8") as fh:
        fh.write("p999999\ttext_x\tnan\n")
    lines = (out / "labeled.ndjson").read_text().splitlines()
    (out / "labeled.ndjson").write_text("\n".join(lines[1:]) + "\n")
    (out / "report.json").write_text('{"precision": 120, "recall": 1, "f1": 1}')

    problems = check.check_outputs(out, post_ids, label_stdout)
    assert any("not finite" in p for p in problems["extract"])
    assert any("rows for" in p for p in problems["label"])
    assert problems["train"]
    assert any("featured posts" in p for p in problems["predict"])
    assert problems["curate"] == [] and problems["evaluate"] == []

    ok = {"rc": 0, "error": ""}
    outcomes = {verb: ok for verb in check.VERBS}
    reasons = check.judge(outcomes, problems, check.digests(out), reference)
    assert any("digest differs" in r for r in reasons["extract"])
    assert reasons["evaluate"] == []


def test_checker_flags_exit_code_and_traceback():
    outcomes = {verb: {"rc": 0, "error": ""} for verb in check.VERBS}
    outcomes["train"] = {"rc": 3, "error": ""}
    outcomes["evaluate"] = {"rc": 1, "error": "Traceback (most recent call last):\nKeyError: 'x'\n"}
    del outcomes["predict"]
    reasons = check.judge(outcomes, {}, {}, {})
    assert reasons["train"] == ["exit code 3"]
    assert "traceback: KeyError: 'x'" in reasons["evaluate"]
    assert reasons["predict"] == ["not run"]
    assert reasons["label"] == []


def _bindings() -> dict:
    """Identity of every attribute of every newsvalue module and class."""
    snapshot = {}
    for mod in tracer.modules():
        snapshot[mod.__name__] = dict(vars(mod))
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                snapshot[value.__qualname__ + "@" + mod.__name__] = dict(vars(value))
    return snapshot


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(a[k][n] is b[k][n] for n in a[k]) for k in a
    )


def test_tracer_wraps_every_binding_and_restores():
    import newsvalue.labeling as labeling
    import newsvalue.textvec as textvec
    from newsvalue.linear import LinearModel
    from newsvalue.records import Post

    before = _bindings()
    original_cosine = textvec.cosine
    with Tracer():
        assert textvec.cosine is not original_cosine
        assert labeling.cosine is textvec.cosine  # the second binding, same wrapper
        assert LinearModel.decision is not before["LinearModel@newsvalue.linear"]["decision"]
        assert isinstance(vars(Post)["from_record"], classmethod)
    assert _same(before, _bindings())


def test_tracer_restores_after_a_failing_verb(corpus):
    before = _bindings()
    traced = Tracer()
    traced.install()
    try:
        with pytest.raises(ZeroDivisionError):
            traced.run_verb("label", lambda: 1 / 0)
    finally:
        traced.uninstall()
    assert _same(before, _bindings())
    assert traced.stats["cli.label"].calls == 1


def test_traced_counts_repeat_and_fit_counts(corpus):
    first, _ = child.run_pass(corpus, traced=True, store={})
    second, _ = child.run_pass(corpus, traced=True, store={})
    assert first["failed"] == {}
    calls = {n: v[0] for n, v in first["layers"].items()}
    assert calls == {n: v[0] for n, v in second["layers"].items()}
    fits = {v: c.get("linear.train_binary_hinge", 0) for v, c in first["by_verb_calls"].items()}
    # feed-rich uses 3 folds: train = 3 folds + CV final + the saved model,
    # evaluate = 4 ablations x (3 folds + final), extract = 4 impact classes.
    assert fits == {"curate": 0, "label": 0, "extract": 4, "train": 5, "predict": 0, "evaluate": 16}
    assert calls["textvec.cosine"] > 0 and calls["model.assemble_features"] == corpus["posts"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(gen.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "feed-rich", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_pinning_holds_for_started_processes():
    """The verbs and the reference loop must share one CPU, so the pin is
    inherited by every process the benchmark starts."""
    code = ("import subprocess, sys, run; run.pin_to_one_cpu(); "
            "subprocess.run([sys.executable, '-c', "
            "'import os; print(sorted(os.sched_getaffinity(0)))'])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == str([max(os.sched_getaffinity(0))])


def test_verbs_leave_no_state_in_the_client(corpus):
    """Each verb runs in a fork that ends with it, so no cache it fills
    carries over to the next verb or pass."""
    child.run_pass(corpus, traced=False, store={})
    child.run_pass(corpus, traced=True, store={})
    caches = [f for mod in tracer.modules() for f in vars(mod).values() if hasattr(f, "cache_info")]
    assert caches and all(f.cache_info().currsize == 0 for f in caches)

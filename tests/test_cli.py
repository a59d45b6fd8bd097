"""End-to-end CLI runs over synthetic corpora, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    BASE_TS,
    EXPECTED_SURVIVORS,
    GAZETTEER_PATH,
    curation_fixture,
    headline_record,
    make_wire_headlines,
    write_ndjson_file,
    write_pipeline_inputs,
)
import newsvalue.linear
import newsvalue.model
from newsvalue import errors
from newsvalue.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DEGENERATE_LABELS,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_SCHEMA_MISMATCH,
    VERBS,
    _read_features,
    load_config,
    main,
)
from newsvalue.linear import BIAS_KEY, LinearModel
from newsvalue.model import feature_group_weights
from newsvalue.records import Headline, Post, _is_utf8

SRC = Path(__file__).resolve().parents[1] / "src"


def make_event_posts() -> tuple[list[Post], list[Headline]]:
    """Posts engineered against the wire: echoes before their headline
    (matched), unique chatter (unmatched), and one story that only broke
    earlier (tardy)."""
    headlines = make_wire_headlines()
    posts = []
    users = list(EXPECTED_SURVIVORS)
    for i, h in enumerate(headlines[:12]):
        posts.append(
            Post(f"echo{i:02d}", users[i % len(users)], h.published_at - 1800, h.text)
        )
    chatter = [
        "bake sale at the community hall",
        "new mural painted on elm street",
        "library hours change next week",
        "lost dog found safe and sound",
        "farmers market opens saturday morning",
        "choir practice moved to thursday",
        "pothole repairs scheduled downtown soon",
        "school play tickets now available",
        "garden club meets this weekend",
        "city council agenda posted online",
    ]
    for i, text in enumerate(chatter * 3):
        posts.append(Post(f"noise{i:02d}", "quakebot", BASE_TS + i * 900, f"{text} item {i}"))
    breaking = Headline("parliament dissolves amid midnight crisis vote", "bbc", BASE_TS)
    headlines = headlines + [breaking]
    posts.append(
        Post("late00", "city_reporter", BASE_TS + 7200,
             "parliament dissolves amid midnight crisis vote")
    )
    return posts, headlines


@pytest.fixture()
def pipeline(tmp_path):
    posts, headlines = make_event_posts()
    config_path = write_pipeline_inputs(tmp_path, posts=posts, headlines=headlines)
    return tmp_path, config_path


class TestCurateCommand:
    def test_fixture_survivors_and_counts(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "input: 12" in out
        assert "curated: 7" in out
        rows = [
            json.loads(line)
            for line in (tmp_path / "out" / "curated.ndjson").read_text().splitlines()
        ]
        assert {r["user_id"]: r["category"] for r in rows} == EXPECTED_SURVIVORS

    def test_missing_file_exit_2(self, pipeline, capsys):
        tmp_path, config = pipeline
        cfg = json.loads(config.read_text())
        cfg["paths"]["profiles"] = str(tmp_path / "nope.ndjson")
        config.write_text(json.dumps(cfg))
        assert main(["curate", "--config", str(config)]) == EXIT_MISSING_INPUT
        assert "missing input" in capsys.readouterr().err

    def test_bad_record_warns_with_line_number(self, pipeline, capsys):
        tmp_path, config = pipeline
        profiles = tmp_path / "profiles.ndjson"
        with open(profiles, "a", encoding="utf-8") as fh:
            fh.write('{"display_name": "broken, no user_id"}\n')
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "line 13" in captured.err
        assert "skipped" in captured.err
        assert "curated: 7" in captured.out

    def test_skipped_account_is_one_warning_line(self, pipeline, capsys):
        """A profile whose location does not resolve, readmitted as topical,
        with no tweets to type it by, is skipped with one warning line."""
        tmp_path, config = pipeline
        ghost = {"user_id": "ghost\nfeed", "profile_location": "Atlantis"}
        with open(tmp_path / "profiles.ndjson", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(ghost) + "\n")
        with open(tmp_path / "assignments.ndjson", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"user_id": ghost["user_id"], "topic": "Crisis/War/Disaster",
                                 "count": 500}) + "\n")
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: skipping ghost\\nfeed: account 'ghost\\nfeed' has no tweets to sample\n"
        )
        assert "skipped_errors: 1" in captured.out

    def test_empty_inputs_exit_0(self, pipeline, capsys):
        tmp_path, config = pipeline
        (tmp_path / "profiles.ndjson").write_text("")
        (tmp_path / "tweets.ndjson").write_text("")
        (tmp_path / "assignments.ndjson").write_text("")
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        assert "curated: 0" in capsys.readouterr().out


class TestLabelCommand:
    def test_engineered_counts(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        labeled = [
            json.loads(line)
            for line in (tmp_path / "out" / "labeled.ndjson").read_text().splitlines()
        ]
        by_status = {}
        for rec in labeled:
            by_status.setdefault(rec["status"], []).append(rec["post_id"])
        assert len(by_status.get("matched", [])) >= 12
        assert "late00" in by_status.get("tardy", [])
        assert all(p.startswith("noise") for p in by_status.get("unmatched", []))
        assert "matched:" in out and "tardy:" in out

    def test_byte_identical_reruns(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        first = (tmp_path / "out" / "labeled.ndjson").read_bytes()
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert (tmp_path / "out" / "labeled.ndjson").read_bytes() == first

    def test_zero_matched_exit_3(self, tmp_path, capsys):
        posts = [Post(f"n{i}", "u", BASE_TS + i, f"quiet village notes {i}") for i in range(5)]
        config = write_pipeline_inputs(tmp_path, posts=posts)
        assert main(["label", "--config", str(config)]) == EXIT_DEGENERATE_LABELS


class TestFullPipeline:
    def test_extract_train_predict_evaluate(self, pipeline, capsys):
        tmp_path, config = pipeline
        started = time.monotonic()
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert main(["predict", "--config", str(config)]) == EXIT_OK
        assert main(["evaluate", "--config", str(config)]) == EXIT_OK
        elapsed = time.monotonic() - started
        assert elapsed < 60.0

        out_dir = tmp_path / "out"
        assert (out_dir / "features.tsv").exists()
        model = json.loads((out_dir / "model.json").read_text())
        assert model["format"] == "linear-model/1"
        assert model["kind"] == "svm"
        report = json.loads((out_dir / "report.json").read_text())
        assert 0.0 <= report["f1"] <= 100.0
        predictions = [
            json.loads(line)
            for line in (out_dir / "predictions.ndjson").read_text().splitlines()
        ]
        assert predictions and all("newsworthy" in p for p in predictions)
        ablation = json.loads((out_dir / "ablation.json").read_text())
        assert len(ablation) == 4
        assert ablation[0]["groups"] == ["text", "topic"]
        # locally-focused survivors lend their home location to posts with
        # no tagged place (curated round-trip keeps the resolved entry)
        features = (out_dir / "features.tsv").read_text()
        echo_rows = [l for l in features.splitlines() if l.startswith("echo")]
        assert any("\tloc_country_" in l for l in echo_rows)

    def test_byte_identical_reruns_without_non_finite_json(self, pipeline, capsys):
        tmp_path, config = pipeline
        out_dir = tmp_path / "out"
        artifacts = ("curated.ndjson", "labeled.ndjson", "features.tsv", "model.json",
                     "report.json", "predictions.ndjson", "ablation.json")

        def run_chain():
            for verb in ("curate", "label", "extract", "train", "predict", "evaluate"):
                assert main([verb, "--config", str(config)]) == EXIT_OK
            return {name: (out_dir / name).read_bytes() for name in artifacts}

        first = run_chain()
        assert run_chain() == first

        def no_constant(name):
            raise AssertionError(f"non-finite number {name} in a JSON artifact")

        for name, data in first.items():
            if name.endswith(".json"):
                json.loads(data, parse_constant=no_constant)
            elif name.endswith(".ndjson"):
                for line in data.decode().splitlines():
                    json.loads(line, parse_constant=no_constant)

    def test_seed_option_overrides_the_config_seed(self, pipeline, capsys):
        # The fixture config says "seed": 7; the second chain reads a seed-0
        # config with --seed 7 and must write and print the same bytes.
        tmp_path, config = pipeline
        out_dir = tmp_path / "out"
        artifacts = ("curated.ndjson", "labeled.ndjson", "features.tsv", "model.json",
                     "report.json", "predictions.ndjson", "ablation.json")

        def run_chain(*extra):
            shutil.rmtree(out_dir, ignore_errors=True)
            capsys.readouterr()
            for verb in ("curate", "label", "extract", "train", "predict", "evaluate"):
                assert main([verb, "--config", str(config), *extra]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            return captured.out, {name: (out_dir / name).read_bytes() for name in artifacts}

        seeded = run_chain()
        raw = json.loads(config.read_text())
        assert raw["seed"] == 7
        config.write_text(json.dumps(dict(raw, seed=0)))
        assert run_chain("--seed", "7") == seeded
        # the seed reaches the artifacts: without the option, train's differ
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert (out_dir / "model.json").read_bytes() != seeded[1]["model.json"]

    def test_overflowing_quantities_leave_every_feature_finite(self, tmp_path, capsys):
        """A hail size or burnt area too long for a float is no scope value,
        so extract writes only finite features and train and predict read them."""
        posts, headlines = make_event_posts()
        nines = "9" * 400
        texts = {"noise00": f"{nines} inch hail reported",
                 "noise01": f"wildfire burns {nines} acres"}
        posts = [p._replace(text=texts.get(p.post_id, p.text)) for p in posts]
        config = write_pipeline_inputs(tmp_path, posts=posts, headlines=headlines)
        for verb in ("label", "extract", "train", "predict"):
            assert main([verb, "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = [line.split("\t") for line in
                (tmp_path / "out" / "features.tsv").read_text().splitlines()]
        assert {post_id for post_id, _, _ in rows} >= set(texts)
        assert all(math.isfinite(float(value)) for _, _, value in rows)

    def test_predict_schema_mismatch_exit_4(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        bogus = tmp_path / "bogus_model.json"
        bogus.write_text(json.dumps({"format": "something-else/9", "kind": "svm"}))
        assert (
            main(["predict", "--config", str(config), "--model", str(bogus)])
            == EXIT_SCHEMA_MISMATCH
        )
        wrong_kind = tmp_path / "impact_model.json"
        wrong_kind.write_text(
            json.dumps(
                {"format": "linear-model/1", "kind": "impact", "classes": [],
                 "weights": {}, "bias": {}}
            )
        )
        assert (
            main(["predict", "--config", str(config), "--model", str(wrong_kind)])
            == EXIT_SCHEMA_MISMATCH
        )

    def test_train_without_label_exit_2(self, pipeline):
        _, config = pipeline
        assert main(["train", "--config", str(config)]) == EXIT_MISSING_INPUT

    def test_svm_fit_counts(self, pipeline, capsys, monkeypatch):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        folds = json.loads(config.read_text())["svm"]["folds"]
        calls = dict.fromkeys(("train_binary_hinge", "intern", "epoch_orders", "_objective"), 0)
        for name in calls:
            module = newsvalue.linear if name == "_objective" else newsvalue.model
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        # the folds and the saved model: one design, one schedule per fit;
        # only the saved model computes its two objectives
        assert list(calls.values()) == [folds + 1, 1, folds + 1, 2]
        calls.update(dict.fromkeys(calls, 0))
        assert main(["evaluate", "--config", str(config)]) == EXIT_OK
        # two feature sets per fold, sharing the fold's schedule: the posts
        # hold only text, topic and impact features, so the sets with
        # scope and impact and with every family keep every row, and
        # their rows are train's, from its report.json
        assert list(calls.values()) == [2 * folds, 1, folds, 0]
        calls.update(dict.fromkeys(calls, 0))
        (tmp_path / "out" / "report.json").unlink()
        assert main(["evaluate", "--config", str(config)]) == EXIT_OK
        # without it, all four
        assert list(calls.values()) == [4 * folds, 1, folds, 0]

    @pytest.mark.parametrize("post_id", ["a\rb", "a\tb", "a\nb"])
    def test_id_with_tab_or_line_break_skipped_by_extract(self, tmp_path, capsys, post_id):
        """features.tsv is tab-separated and read by lines, so extract skips
        a post whose id holds a tab or line break, and train reads the rest."""
        posts, headlines = make_event_posts()
        posts[0] = Post(post_id, posts[0].user_id, posts[0].created_at, posts[0].text)
        config = write_pipeline_inputs(tmp_path, posts=posts, headlines=headlines)
        errs = []
        for verb in ("label", "extract", "train"):
            assert main([verb, "--config", str(config)]) == EXIT_OK
            errs += capsys.readouterr().err.splitlines()
        assert errs == [f"warning: post {post_id!r}: tab or line break in its id (skipped)"]
        lines = (tmp_path / "out" / "features.tsv").read_text().splitlines()
        assert {line.split("\t")[0] for line in lines} <= {p.post_id for p in posts[1:]}

    def test_report_group_weights_are_the_saved_models(self, pipeline, capsys):
        tmp_path, config = pipeline
        for verb in ("label", "extract", "train"):
            assert main([verb, "--config", str(config)]) == EXIT_OK
        out_dir = tmp_path / "out"
        report = json.loads((out_dir / "report.json").read_text())
        model = LinearModel.load(out_dir / "model.json", expect_kind="svm")
        expected = feature_group_weights(model)
        assert set(report["group_weights"]) == set(expected)
        for group, (pos, neg) in expected.items():
            assert report["group_weights"][group] == [
                pytest.approx(pos, rel=1e-12, abs=1e-15),
                pytest.approx(neg, rel=1e-12, abs=1e-15),
            ]
        assert any(pos > 0.0 for pos, _ in expected.values())

    def test_labeled_row_without_post_id_skipped(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        labeled = tmp_path / "out" / "labeled.ndjson"
        n = len(labeled.read_text().splitlines())
        with open(labeled, "a", encoding="utf-8") as fh:
            fh.write('{"status": "matched"}\n')
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == EXIT_OK
        err = capsys.readouterr().err
        assert f"warning: labeled line {n + 1}: " in err
        assert "(record skipped)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("status", ["null", '["matched"]', "1"])
    def test_labeled_row_with_wrong_typed_status_skipped(self, pipeline, capsys, status):
        # A status that is not a string is not read as unmatched.
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        labeled = tmp_path / "out" / "labeled.ndjson"
        n = len(labeled.read_text().splitlines())
        with open(labeled, "a", encoding="utf-8") as fh:
            fh.write(f'{{"post_id": "echo00", "status": {status}}}\n')
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == EXIT_OK
        err = capsys.readouterr().err
        assert err == f"warning: labeled line {n + 1}: status is not a string (record skipped)\n"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The CLI fixture's config and out_dir after curate, label, extract and
    train; a test copies out_dir before it changes anything. Its features
    hold every family but scope and rarity, so only the all-families set
    keeps every row."""
    root = tmp_path_factory.mktemp("trained")
    posts, headlines = make_event_posts()
    config_path = write_pipeline_inputs(root, posts=posts, headlines=headlines)
    for verb in ("curate", "label", "extract", "train"):
        assert main([verb, "--config", str(config_path)]) == EXIT_OK
    return json.loads(config_path.read_text()), root / "out"


# Pooled counts whose P/R/F (100, 100, 100) no fit of the fixture gives.
TAMPERED = {"tp": 1, "fp": 0, "fn": 0, "tn": 0}


def _with(report: dict, **changes) -> dict:
    """The report with these keys set, and those set to None left out."""
    return {k: v for k, v in {**report, **changes}.items() if v is not None}


# report.json contents evaluate does not read, made from train's report;
# each would give the last row 100, 100, 100 if it were read.
BAD_REPORTS = {
    "directory": lambda report: "dir",
    "not-json": lambda report: b"{",
    "not-utf8": lambda report: b"\xff" + json.dumps(_with(report, counts=TAMPERED)).encode(),
    "too-deep": lambda report: b"[" * 100_000,
    "a-list": lambda report: [_with(report, counts=TAMPERED)],
    "no-inputs": lambda report: _with(report, counts=TAMPERED, inputs=None),
    "bool-count": lambda report: _with(report, counts=dict(TAMPERED, tp=True)),
    "negative-count": lambda report: _with(report, counts=dict(TAMPERED, tn=-1)),
    "float-count": lambda report: _with(report, counts=dict(TAMPERED, tp=1.0)),
    "missing-count": lambda report: _with(report, counts={"tp": 1, "fp": 0, "fn": 0}),
    "counts-list": lambda report: _with(report, counts=[1, 0, 0, 0]),
}


class TestEvaluateReusesTrainsReport:
    """evaluate takes its all-families row from train's report.json when
    the report's inputs equal its own, and fits it otherwise, with the same
    output either way."""

    @staticmethod
    def _evaluate(trained, run: Path, capsys, report=..., config=None, files=None) -> dict:
        """evaluate on a copy of the trained out_dir in run: with report.json
        as train wrote it (report=...), deleted (None), a directory ("dir"),
        these bytes or this JSON object; the config's keys or sections
        updated by config, and out_dir files replaced by files (name ->
        bytes). Its exit code, stdout with the out_dir path replaced,
        stderr and ablation.json."""
        base, out_dir = trained
        out = run / "out"
        shutil.copytree(out_dir, out)
        settings = json.loads(json.dumps(base))
        settings["paths"]["out_dir"] = str(out)
        for key, value in (config or {}).items():
            if isinstance(value, dict):
                settings.setdefault(key, {}).update(value)
            else:
                settings[key] = value
        for name, data in (files or {}).items():
            (out / name).write_bytes(data)
        path = out / "report.json"
        if report is None:
            path.unlink()
        elif report == "dir":
            path.unlink()
            path.mkdir()
        elif isinstance(report, bytes):
            path.write_bytes(report)
        elif report is not ...:
            path.write_text(json.dumps(report), encoding="utf-8")
        (run / "config.json").write_text(json.dumps(settings), encoding="utf-8")
        capsys.readouterr()
        code = main(["evaluate", "--config", str(run / "config.json")])
        stdout, stderr = capsys.readouterr()
        return {"exit": code, "stdout": stdout.replace(str(out), "OUT"), "stderr": stderr,
                "ablation": (out / "ablation.json").read_bytes()}

    @staticmethod
    def _report(trained, **changes) -> dict:
        report = json.loads((trained[1] / "report.json").read_text(encoding="utf-8"))
        report.update(changes)
        return report

    @staticmethod
    def _last_row(result) -> list:
        row = json.loads(result["ablation"])[-1]
        return [row["precision"], row["recall"], row["f1"]]

    def test_output_is_the_same_with_the_report_present_deleted_or_stale(
            self, trained, tmp_path, capsys):
        stale = self._report(trained)
        stale["inputs"]["svm_c"] = 2.0
        present = self._evaluate(trained, tmp_path / "present", capsys)
        assert present["exit"] == EXIT_OK and present["stderr"] == ""
        assert self._evaluate(trained, tmp_path / "deleted", capsys, report=None) == present
        assert self._evaluate(trained, tmp_path / "stale", capsys, report=stale) == present

    def test_counts_of_a_matching_report_make_the_last_row(self, trained, tmp_path, capsys):
        fitted = self._evaluate(trained, tmp_path / "fitted", capsys, report=None)
        served = self._evaluate(trained, tmp_path / "served", capsys,
                                report=self._report(trained, counts=TAMPERED))
        assert self._last_row(served) == [100.0, 100.0, 100.0] != self._last_row(fitted)
        assert json.loads(served["ablation"])[:-1] == json.loads(fitted["ablation"])[:-1]

    @pytest.mark.parametrize("change", ["seed", "svm.epochs", "svm.C", "svm.folds",
                                        "undersample_ratio", "labeled", "features"])
    def test_a_report_of_other_inputs_is_not_read(self, trained, tmp_path, capsys, change):
        labeled = (trained[1] / "labeled.ndjson").read_bytes()
        at = labeled.index(b'"text": "') + len(b'"text": "')  # a letter of a post's text
        features = (trained[1] / "features.tsv").read_bytes()
        end = features.index(b"\n")  # after the last digit of the first value
        changed = {
            "seed": {"config": {"seed": 8}},
            "svm.epochs": {"config": {"svm": {"epochs": 31}}},
            "svm.C": {"config": {"svm": {"C": 2.0}}},
            "svm.folds": {"config": {"svm": {"folds": 4}}},
            "undersample_ratio": {"config": {"thresholds": {"undersample_ratio": 2}}},
            "labeled": {"files": {"labeled.ndjson": labeled[:at] + bytes([labeled[at] ^ 1])
                                  + labeled[at + 1:]}},
            "features": {"files": {"features.tsv": features[:end - 1] + bytes([features[end - 1] ^ 1])
                                   + features[end:]}},
        }[change]
        tampered = self._report(trained, counts=TAMPERED)
        stale = self._evaluate(trained, tmp_path / "stale", capsys, report=tampered, **changed)
        fitted = self._evaluate(trained, tmp_path / "fitted", capsys, report=None, **changed)
        assert stale == fitted
        assert self._last_row(stale) != [100.0, 100.0, 100.0]

    @pytest.mark.parametrize("bad", sorted(BAD_REPORTS))
    def test_a_report_that_cannot_be_read_is_fitted_again(self, trained, tmp_path, capsys, bad):
        report = BAD_REPORTS[bad](self._report(trained))
        fitted = self._evaluate(trained, tmp_path / "fitted", capsys, report=None)
        result = self._evaluate(trained, tmp_path / "bad", capsys, report=report)
        assert result == fitted
        assert result["exit"] == EXIT_OK and result["stderr"] == ""


class TestRepeatedIds:
    """Of the records that share an id, the first is read and each later one
    is skipped with a warning, so no label or feature row of one record
    lands on another."""

    def test_repeated_post_id(self, tmp_path, capsys):
        posts, headlines = make_event_posts()
        first = posts[0]
        cat = Post(first.post_id, first.user_id, first.created_at, "cat rescued from a tree")
        runs = {}
        for name, corpus in (("plain", posts), ("repeated", posts + [cat])):
            (tmp_path / name).mkdir()
            config = write_pipeline_inputs(tmp_path / name, posts=corpus, headlines=headlines)
            for verb in ("label", "extract"):
                assert main([verb, "--config", str(config)]) == EXIT_OK
            captured = capsys.readouterr()
            runs[name] = (captured.out.replace(str(tmp_path / name), ""), captured.err)
        warning = (f"warning: posts.ndjson line {len(posts) + 1}: "
                   f"duplicate post_id {first.post_id!r} (record skipped)")
        assert runs["repeated"] == (runs["plain"][0], f"{warning}\n{warning}\n")
        for artifact in ("labeled.ndjson", "features.tsv"):
            plain = (tmp_path / "plain" / "out" / artifact).read_bytes()
            assert (tmp_path / "repeated" / "out" / artifact).read_bytes() == plain

    @pytest.mark.parametrize("before, path, verb, name, key", [
        ((), "profiles.ndjson", "curate", "profiles", "user_id"),
        (("curate",), "out/curated.ndjson", "extract", "curated", "user_id"),
        (("label", "extract"), "out/labeled.ndjson", "train", "labeled", "post_id"),
    ])
    def test_repeated_record_id_skipped(self, pipeline, capsys, before, path, verb, name, key):
        tmp_path, config = pipeline
        for step in before:
            assert main([step, "--config", str(config)]) == EXIT_OK
        records = (tmp_path / path).read_text().splitlines()
        with open(tmp_path / path, "a", encoding="utf-8") as fh:
            fh.write(records[0] + "\n")
        capsys.readouterr()
        assert main([verb, "--config", str(config)]) == EXIT_OK
        ident = json.loads(records[0])[key]
        warning = (f"warning: {name} line {len(records) + 1}: "
                   f"duplicate {key} {ident!r} (record skipped)")
        assert warning in capsys.readouterr().err.splitlines()

    def test_repeated_event_id_keeps_the_first(self, tmp_path, capsys):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [{"event_id": "e1", "first_tweet_at": 0},
                                 {"event_id": "e1", "first_tweet_at": 600}])
        write_ndjson_file(wire, [{"event_id": "e1", "wire_alert_at": 1800}])
        assert main(["timeliness", "--feed", str(feed), "--wire", str(wire)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "e1: lead +30.0 min" in captured.out
        assert captured.err == "warning: feed line 2: duplicate event_id 'e1' (record skipped)\n"


class TestErrorExitCodes:
    """Toolkit errors end in a documented exit code and one error line."""

    def _assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_bad_gazetteer_exit_4(self, pipeline, capsys):
        tmp_path, config = pipeline
        gazetteer = tmp_path / "gazetteer.txt"
        gazetteer.write_text("Paris|x|1\n")
        cfg = json.loads(config.read_text())
        cfg["paths"]["gazetteer"] = str(gazetteer)
        config.write_text(json.dumps(cfg))
        assert main(["curate", "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("verb", ["train", "evaluate"])
    def test_too_few_examples_exit_3(self, pipeline, capsys, verb):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        cfg = json.loads(config.read_text())
        cfg["svm"]["folds"] = 500
        config.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([verb, "--config", str(config)]) == EXIT_DEGENERATE_LABELS
        self._assert_one_line_error(capsys)

    def test_model_without_positive_weights_exit_4(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format": "linear-model/1", "kind": "svm", "classes": ["matched"],
            "weights": {}, "bias": {},
        }))
        capsys.readouterr()
        assert (
            main(["predict", "--config", str(config), "--model", str(model)])
            == EXIT_SCHEMA_MISMATCH
        )
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("features", ["", None], ids=["empty-features", "no-features"])
    def test_model_without_weights_exit_4_whatever_the_features(self, pipeline, capsys, features):
        # The model is checked when it is loaded, before features.tsv is read.
        tmp_path, config = pipeline
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format": "linear-model/1", "kind": "svm", "classes": ["matched"],
            "weights": {}, "bias": {},
        }))
        if features is not None:
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "features.tsv").write_text(features)
        assert (
            main(["predict", "--config", str(config), "--model", str(model)])
            == EXIT_SCHEMA_MISMATCH
        )
        assert capsys.readouterr().err == "error: no weights for class 'matched'\n"
        assert not (tmp_path / "out" / "predictions.ndjson").exists()

    def test_model_without_positive_class_exit_4(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format": "linear-model/1", "kind": "svm", "classes": ["other"],
            "weights": {"other": {}}, "bias": {},
        }))
        capsys.readouterr()
        assert (
            main(["predict", "--config", str(config), "--model", str(model)])
            == EXIT_SCHEMA_MISMATCH
        )
        assert capsys.readouterr().err == "error: model has no 'matched' class\n"
        assert not (tmp_path / "out" / "predictions.ndjson").exists()

    @pytest.mark.parametrize("verb", ["train", "evaluate", "predict"])
    def test_reserved_bias_feature_name_exit_4(self, pipeline, capsys, verb):
        # Training appends its own __bias__ entry to every row, so a feature of
        # that name would train the intercept, and predict would drop it.
        tmp_path, config = pipeline
        for step in ("label", "extract", "train"):
            assert main([step, "--config", str(config)]) == EXIT_OK
        features = tmp_path / "out" / "features.tsv"
        lines = features.read_text(encoding="utf-8").splitlines()
        post_id = lines[0].split("\t")[0]
        lines.append(f"{post_id}\t__bias__\t1.0")
        features.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main([verb, "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        assert capsys.readouterr().err == (
            f"error: features line {len(lines)}: reserved feature name '__bias__'\n"
        )

    @pytest.mark.parametrize("verb", ["train", "evaluate", "predict"])
    def test_repeated_feature_line_exit_4(self, pipeline, capsys, verb):
        # A second value for one (post, feature) pair would silently replace
        # the first; both line numbers are named.
        tmp_path, config = pipeline
        for step in ("label", "extract", "train"):
            assert main([step, "--config", str(config)]) == EXIT_OK
        features = tmp_path / "out" / "features.tsv"
        lines = features.read_text(encoding="utf-8").splitlines()
        post_id, name, _ = lines[1].split("\t")
        lines.append(f"{post_id}\t{name}\t0.5")
        features.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main([verb, "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        assert capsys.readouterr().err == (
            f"error: features line {len(lines)}: feature {name!r} of post {post_id!r} "
            "repeats line 2\n"
        )

    def test_extract_without_topic_headlines_exit_3(self, tmp_path, capsys):
        posts, _ = make_event_posts()
        config = write_pipeline_inputs(tmp_path, posts=posts, headlines=[])
        assert main(["extract", "--config", str(config)]) == EXIT_DEGENERATE_LABELS
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("verb", ["curate", "extract"])
    def test_tokenless_topic_headline_exit_3(self, tmp_path, capsys, verb):
        # The only topic-coded headline has no word token, so its code gets
        # a document but no centroid can be built (DegenerateLabels).
        posts, _ = make_event_posts()
        wire = [Headline("!!! ???", "ap", BASE_TS, frozenset({"floods"}))]
        config = write_pipeline_inputs(tmp_path, posts=posts, headlines=wire)
        assert main([verb, "--config", str(config)]) == EXIT_DEGENERATE_LABELS
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "content",
        [
            '{"seed": 1e400}',
            '{"svm": {"epochs": -1e400}}',
            '{"svm": {"C": Infinity}}',
            '{"svm": {"C": NaN}}',
            '{"svm": {"C": 1' + "0" * 400 + "}}",
        ],
        ids=["int-field-1e400", "epochs--1e400", "C-Infinity", "C-NaN", "C-int-overflow"],
    )
    def test_non_finite_config_number_exit_4(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_text(content)
        assert main(["train", "--config", str(path)]) == EXIT_SCHEMA_MISMATCH
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("verb", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "c",
        [1e308, 1e300],
        ids=["l2-underflows-to-0", "objective-overflows"],
    )
    def test_svm_c_too_large_exit_4(self, pipeline, capsys, verb, c):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        cfg = json.loads(config.read_text())
        cfg["svm"]["C"] = c
        config.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main([verb, "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        self._assert_one_line_error(capsys)
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize(
        "change",
        [
            {"weights": {"matched": {"text_fire": "1.0"}}},
            {"weights": [["text_fire", 1.0]]},
            {"weights": {"matched": {"text_fire": True}}},
            {"weights": {"matched": {"text_fire": 10**400}}},
            {"bias": {"matched": float("nan")}},
            {"bias": {"matched": float("inf")}},
            {"bias": 0.5},
            {"classes": "matched"},
            {"classes": [1]},
            {"kind": None},
            {"train_meta": []},
            {"weights": {"matched": {"text_accident": 1e308}}},
        ],
        ids=["string-weight", "weights-list", "bool-weight", "huge-int-weight", "nan-bias",
             "inf-bias", "bias-number", "classes-string", "classes-int", "kind-null",
             "meta-list", "score-overflows"],
    )
    def test_malformed_model_file_exit_4(self, pipeline, capsys, change):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        payload = {
            "format": "linear-model/1", "kind": "svm", "classes": ["matched"],
            "weights": {"matched": {"text_fire": 1.0}}, "bias": {"matched": 0.0},
        }
        payload.update(change)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert (
            main(["predict", "--config", str(config), "--model", str(model)])
            == EXIT_SCHEMA_MISMATCH
        )
        self._assert_one_line_error(capsys)
        assert not (tmp_path / "out" / "predictions.ndjson").exists()

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("verb, artifact", [("label", "out/labeled.ndjson"),
                                                ("evaluate", "out/ablation.json"),
                                                ("timeliness", "rows.ndjson")])
    def test_closed_stdout_exits_141_after_writing(self, pipeline, verb, artifact, unbuffered):
        # `newsvalue label ... | head -1` once head has exited: the read end
        # of the pipe is closed before the verb prints a line.
        tmp_path, config = pipeline
        argv = [verb, "--config", str(config)]
        if verb == "evaluate":
            for prior in ("label", "extract"):
                assert main([prior, "--config", str(config)]) == EXIT_OK
        if verb == "timeliness":
            feed, wire = tmp_path / "feed.ndjson", tmp_path / "wire.ndjson"
            write_ndjson_file(feed, [{"event_id": "e1", "first_tweet_at": 0}])
            write_ndjson_file(wire, [{"event_id": "e1", "wire_alert_at": 60}])
            out = tmp_path / artifact
            argv = [verb, "--feed", str(feed), "--wire", str(wire), "--out", str(out)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "newsvalue.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
        assert done.returncode == EXIT_BROKEN_PIPE == 141
        # every artifact is written before the first line on stdout
        written = (tmp_path / artifact).read_bytes()
        assert main(argv) == EXIT_OK
        assert (tmp_path / artifact).read_bytes() == written


class TestInputRecordChecks:
    """Input the readers cannot represent is skipped with a warning, or, for
    the gazetteer and out_dir, ends in exit 4; never a traceback."""

    def _append(self, path, line: bytes) -> int:
        n = len(path.read_bytes().splitlines())
        with open(path, "ab") as fh:
            fh.write(line + b"\n")
        return n + 1

    def _assert_skipped(self, capsys, name, lineno, reason=""):
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert f"warning: {name} line {lineno}: {reason}" in captured.err
        assert "(record skipped)" in captured.err
        return captured

    def test_infinite_assignment_count_skipped(self, pipeline, capsys):
        tmp_path, config = pipeline
        lineno = self._append(
            tmp_path / "assignments.ndjson",
            b'{"user_id": "foodie_fan", "topic": "Law/Crime", "count": 1e400}',
        )
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        captured = self._assert_skipped(capsys, "assignments", lineno)
        assert "curated: 7" in captured.out

    @pytest.mark.parametrize("count", ["1" + "0" * 400, str(2**53 + 1)])
    def test_huge_assignment_count_skipped(self, pipeline, capsys, count):
        """A target-topic count whose tf * idf would overflow is skipped,
        not a traceback."""
        tmp_path, config = pipeline
        lineno = self._append(
            tmp_path / "assignments.ndjson",
            b'{"user_id": "foodie_fan", "topic": "Law/Crime", "count": %s}' % count.encode(),
        )
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        captured = self._assert_skipped(capsys, "assignments", lineno,
                                        "assignment count is above 2**53")
        assert "curated: 7" in captured.out

    def test_assignment_count_of_2_to_the_53_is_read(self, pipeline, capsys):
        tmp_path, config = pipeline
        self._append(
            tmp_path / "assignments.ndjson",
            b'{"user_id": "foodie_fan", "topic": "Law/Crime", "count": %d}' % 2**53,
        )
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "ts", ["1e300", "-1e300", "1" + "0" * 30, "253402300800", "-62135596801", "true"]
    )
    @pytest.mark.parametrize(
        "name, row",
        [
            ("posts.ndjson", '{"post_id": "far", "user_id": "u", "created_at": %s, "text": "x"}'),
            ("headlines.ndjson", '{"text": "x", "outlet": "ap", "published_at": %s}'),
        ],
        ids=["post", "headline"],
    )
    def test_unrepresentable_timestamp_skipped(self, pipeline, capsys, name, row, ts):
        tmp_path, config = pipeline
        for edge in ("253402300799", "-62135596800"):  # 9999-12-31T23:59:59Z, 0001-01-01Z
            self._append(tmp_path / name, (row % edge).replace('"far"', f'"e{edge}"').encode())
        lineno = self._append(tmp_path / name, (row % ts).encode())
        assert main(["label", "--config", str(config)]) == EXIT_OK
        captured = self._assert_skipped(capsys, name, lineno, "timestamp ")
        assert captured.err.count("warning:") == 1
        labeled = (tmp_path / "out" / "labeled.ndjson").read_text()
        assert '"far"' not in labeled

    def test_unrepresentable_background_timestamp_skipped(self, pipeline, capsys):
        tmp_path, config = pipeline
        background = tmp_path / "background.ndjson"
        write_ndjson_file(background, [
            {"created_at": BASE_TS, "lat": 48.9, "lon": 2.3, "country": "FR",
             "topic": "floods"},
            {"created_at": 1e300, "lat": 48.9, "lon": 2.3, "country": "FR",
             "topic": "floods"},
        ])
        cfg = json.loads(config.read_text())
        cfg["paths"]["background"] = str(background)
        config.write_text(json.dumps(cfg))
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        self._assert_skipped(capsys, "background", 2, "timestamp ")

    def test_invalid_utf8_line_skipped(self, pipeline, capsys):
        tmp_path, config = pipeline
        posts = tmp_path / "posts.ndjson"
        with open(posts, "ab") as fh:
            fh.write('{"post_id": "caf\u00e9", "user_id": "u", "created_at": 1, '
                     '"text": "caf\u00e9 \u26a1"}\r\n'.encode("utf-8"))
        lineno = self._append(
            posts, b'{"post_id": "bad", "user_id": "u", "created_at": 1, "text": "\xff"}'
        )
        assert main(["label", "--config", str(config)]) == EXIT_OK
        self._assert_skipped(capsys, "posts.ndjson", lineno, "invalid UTF-8")
        rows = [
            json.loads(line)
            for line in (tmp_path / "out" / "labeled.ndjson").read_text("utf-8").splitlines()
        ]
        by_id = {r["post_id"]: r for r in rows}
        assert "bad" not in by_id
        assert by_id["caf\u00e9"]["text"] == "caf\u00e9 \u26a1"
        assert len(rows) == lineno - 1

    @pytest.mark.parametrize(
        "lat, lon",
        [(91, 0), (-90.5, 0), (0, 500), (0, -180.001), ("NaN", 0), (0, "-Infinity")],
    )
    def test_post_coordinates_out_of_range_skipped(self, pipeline, capsys, lat, lon):
        tmp_path, config = pipeline
        posts = tmp_path / "posts.ndjson"
        self._append(
            posts, b'{"post_id": "edge", "user_id": "u", "created_at": 1, "text": "x", '
            b'"lat": 90, "lon": -180}'
        )
        lineno = self._append(
            posts, b'{"post_id": "far", "user_id": "u", "created_at": 1, "text": "x", '
            b'"lat": %s, "lon": %s}' % (str(lat).encode(), str(lon).encode())
        )
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        self._assert_skipped(capsys, "posts.ndjson", lineno)
        ids = {line.split("\t")[0] for line in (tmp_path / "out" / "features.tsv").open()}
        assert "edge" in ids
        assert "far" not in ids

    @pytest.mark.parametrize(
        "key, value", [("resolved_lat", math.nan), ("resolved_lon", -math.inf), ("resolved_lat", 90.5)]
    )
    def test_bad_resolved_coordinate_skipped(self, pipeline, capsys, key, value):
        tmp_path, config = pipeline
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        curated = tmp_path / "out" / "curated.ndjson"
        records = [json.loads(line) for line in curated.read_text().splitlines()]
        lineno = next(i for i, rec in enumerate(records, 1) if "resolved_lat" in rec)
        records[lineno - 1][key] = value
        curated.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        capsys.readouterr()
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        self._assert_skipped(capsys, "curated", lineno, f"{key} ")
        for line in (tmp_path / "out" / "features.tsv").open():
            assert math.isfinite(float(line.split("\t")[2]))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_informativeness_skipped(self, pipeline, capsys, literal):
        # json.loads reads each literal as a float nan or inf
        tmp_path, config = pipeline
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        curated = tmp_path / "out" / "curated.ndjson"
        records = [json.loads(line) for line in curated.read_text().splitlines()]
        records[-1]["informativeness"] = "LITERAL"
        text = "".join(json.dumps(rec) + "\n" for rec in records)
        curated.write_text(text.replace('"LITERAL"', literal))
        capsys.readouterr()
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        captured = self._assert_skipped(capsys, "curated", len(records), "informativeness ")
        assert captured.err.count("\n") == 1
        assert "not finite" in captured.err

    @pytest.mark.parametrize(
        "key, value",
        [*(("resolved_country", c) for c in ("U\tS", "US\n", "us", "USA", "", None)),
         ("resolved_lat", None), ("resolved_lon", None)],
        ids=["U\tS", "US\n", "us", "USA", "", "None", "no-resolved_lat", "no-resolved_lon"],
    )
    def test_resolved_country_not_two_capitals_skipped(self, pipeline, capsys, key, value):
        # The code names the feature loc_country_<code>, a field of a
        # features.tsv line; None drops the key. A place without one of its
        # coordinates is skipped, not read as a place at (0, 0).
        tmp_path, config = pipeline
        assert main(["curate", "--config", str(config)]) == EXIT_OK
        curated = tmp_path / "out" / "curated.ndjson"
        records = [json.loads(line) for line in curated.read_text().splitlines()]
        bad = [i for i, rec in enumerate(records, 1) if "resolved_country" in rec]
        assert bad
        for i in bad:
            if value is None:
                del records[i - 1][key]
            else:
                records[i - 1][key] = value
        curated.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert main(["label", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        if key != "resolved_country":
            reason = "resolved_lat and resolved_lon are required with resolved_name"
        elif value is None:
            reason = "'resolved_country'"
        else:
            reason = f"resolved_country {value!r} is not two upper-case letters"
        assert capsys.readouterr().err.splitlines() == [
            f"warning: curated line {i}: {reason} (record skipped)" for i in bad
        ]
        assert main(["train", "--config", str(config)]) == EXIT_OK

    @pytest.mark.parametrize("key, value", [("lat", math.nan), ("lon", math.inf), ("lat", -91.0)])
    def test_bad_background_coordinate_skipped(self, pipeline, capsys, key, value):
        tmp_path, config = pipeline
        background = tmp_path / "background.ndjson"
        row = {"created_at": BASE_TS, "lat": 48.9, "lon": 2.3, "country": "FR", "topic": "floods"}
        write_ndjson_file(background, [row, dict(row, **{key: value})])
        cfg = json.loads(config.read_text())
        cfg["paths"]["background"] = str(background)
        config.write_text(json.dumps(cfg))
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        self._assert_skipped(capsys, "background", 2, f"{key} ")

    @pytest.mark.parametrize("verb", ["train", "predict"])
    def test_invalid_utf8_features_exit_4(self, pipeline, capsys, verb):
        tmp_path, config = pipeline
        for step in ("label", "extract", "train"):
            assert main([step, "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        lineno = self._append(tmp_path / "out" / "features.tsv", b"p\xff\tloc_lat\t1.0")
        assert main([verb, "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        assert capsys.readouterr().err == f"error: features line {lineno}: invalid UTF-8\n"

    def test_invalid_utf8_gazetteer_exit_4(self, pipeline, capsys):
        tmp_path, config = pipeline
        gazetteer = tmp_path / "gazetteer.txt"
        gazetteer.write_bytes(
            "France||46.2|2.2|FR||1\nZ\u00fcrich||47.4|8.5|CH||1\n".encode("utf-8")
            + b"Par\xffis||48.86|2.35|FR|France|1\n"
        )
        cfg = json.loads(config.read_text())
        cfg["paths"]["gazetteer"] = str(gazetteer)
        config.write_text(json.dumps(cfg))
        assert main(["curate", "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        err = capsys.readouterr().err
        assert err == "error: line 3: invalid UTF-8\n"

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize(
        "verb", ["curate", "label", "extract", "train", "predict", "evaluate"]
    )
    def test_out_dir_names_a_file_exit_4(self, pipeline, capsys, verb, nested):
        tmp_path, config = pipeline
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        cfg = json.loads(config.read_text())
        cfg["paths"]["out_dir"] = str(blocker / "out" if nested else blocker)
        config.write_text(json.dumps(cfg))
        assert main([verb, "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        err = capsys.readouterr().err
        assert err.startswith("error: out_dir ")
        assert err.count("\n") == 1
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "verb", ["curate", "label", "extract", "train", "predict", "evaluate"]
    )
    def test_out_dir_with_nul_byte_exit_4(self, pipeline, capsys, verb):
        tmp_path, config = pipeline
        cfg = json.loads(config.read_text())
        cfg["paths"]["out_dir"] = str(tmp_path / "o\u0000ut")
        config.write_text(json.dumps(cfg))
        assert main([verb, "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        err = capsys.readouterr().err
        assert err.startswith("error: out_dir ") and "null byte" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, reason", [("o\x00ut.ndjson", "embedded null byte"), ("x" * 300, "too long")]
    )
    def test_timeliness_out_that_cannot_be_written_exit_4(self, tmp_path, capsys, name, reason):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [{"event_id": "e1", "first_tweet_at": 0}])
        write_ndjson_file(wire, [{"event_id": "e1", "wire_alert_at": 1800}])
        out = str(tmp_path / name)
        argv = ["timeliness", "--feed", str(feed), "--wire", str(wire), "--out", out]
        assert main(argv) == EXIT_SCHEMA_MISMATCH
        err = capsys.readouterr().err
        assert err.startswith(f"error: output {out!r} cannot be written: ") and reason in err
        assert err.count("\n") == 1


class TestDirectoryPaths:
    """A path that names a directory is a missing input or, for an output
    name, exit 4: one error line, never a traceback."""

    def _set_path(self, config, key, value):
        cfg = json.loads(config.read_text())
        cfg["paths"][key] = str(value)
        config.write_text(json.dumps(cfg))

    @pytest.mark.parametrize(
        "verb, key",
        [
            ("label", "posts"), ("label", "headlines"), ("curate", "gazetteer"),
            ("extract", "background"), ("curate", "profiles"), ("curate", "tweets"),
            ("curate", "assignments"), ("train", "labeled"), ("train", "features"),
            ("extract", "curated"),
        ],
    )
    def test_input_key_names_a_directory_exit_2(self, pipeline, capsys, verb, key):
        tmp_path, config = pipeline
        if key == "features":
            assert main(["label", "--config", str(config)]) == EXIT_OK
        folder = tmp_path / "folder"
        folder.mkdir()
        self._set_path(config, key, folder)
        assert main([verb, "--config", str(config)]) == EXIT_MISSING_INPUT
        err = capsys.readouterr().err
        assert err == f"error: missing input file: {folder} (not a regular file)\n"

    @pytest.mark.parametrize("key", ["background", "curated"])
    def test_named_optional_input_that_does_not_exist_exit_2(self, pipeline, capsys, key):
        # Both inputs are optional only when the config does not name them.
        tmp_path, config = pipeline
        missing = tmp_path / "missing.ndjson"
        self._set_path(config, key, missing)
        assert main(["extract", "--config", str(config)]) == EXIT_MISSING_INPUT
        assert capsys.readouterr().err == f"error: missing input file: {missing}\n"
        assert not (tmp_path / "out" / "features.tsv").exists()

    def test_config_names_a_directory_exit_2(self, tmp_path, capsys):
        assert main(["label", "--config", str(tmp_path)]) == EXIT_MISSING_INPUT
        assert capsys.readouterr().err == (
            f"error: missing input file: {tmp_path} (not a regular file)\n"
        )

    def test_model_names_a_directory_exit_2(self, pipeline, capsys):
        tmp_path, config = pipeline
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        (tmp_path / "out" / "model.json").mkdir()
        assert main(["predict", "--config", str(config)]) == EXIT_MISSING_INPUT
        assert "(not a regular file)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, name",
        [("curate", "curated.ndjson"), ("train", "model.json"), ("evaluate", "ablation.json")],
    )
    def test_output_name_is_a_directory_exit_4(self, pipeline, capsys, verb, name):
        tmp_path, config = pipeline
        if verb != "curate":
            for prior in ("label", "extract"):
                assert main([prior, "--config", str(config)]) == EXIT_OK
        target = tmp_path / "out" / name
        target.mkdir(parents=True)
        capsys.readouterr()
        assert main([verb, "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        assert capsys.readouterr().err == f"error: output {target} is a directory\n"
        assert target.is_dir() and not any(target.iterdir())

    def test_timeliness_out_is_a_directory_exit_4(self, tmp_path, capsys):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [{"event_id": "e1", "first_tweet_at": 0}])
        write_ndjson_file(wire, [{"event_id": "e1", "wire_alert_at": 1800}])
        argv = ["timeliness", "--feed", str(feed), "--wire", str(wire), "--out", str(tmp_path)]
        assert main(argv) == EXIT_SCHEMA_MISMATCH
        assert capsys.readouterr().err == f"error: output {tmp_path} is a directory\n"


class TestTimelinessCommand:
    def test_mean_and_beat_fraction(self, tmp_path, capsys):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [
            {"event_id": "e1", "first_tweet_at": 0},
            {"event_id": "e2", "first_tweet_at": 600},
            {"event_id": "feed_only", "first_tweet_at": 1},
        ])
        write_ndjson_file(wire, [
            {"event_id": "e1", "wire_alert_at": 1800},
            {"event_id": "e2", "wire_alert_at": 0},
        ])
        assert main(["timeliness", "--feed", str(feed), "--wire", str(wire)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mean lead: +10.0 min" in out
        assert "beat fraction: 0.50" in out
        assert "feed_only" in out

    def test_tie_is_not_a_beat(self, tmp_path, capsys):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [{"event_id": "e", "first_tweet_at": 100}])
        write_ndjson_file(wire, [{"event_id": "e", "wire_alert_at": 100}])
        assert main(["timeliness", "--feed", str(feed), "--wire", str(wire)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "beat fraction: 0.00" in out

    def test_empty_intersection_exit_0(self, tmp_path, capsys):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [{"event_id": "a", "first_tweet_at": 0}])
        write_ndjson_file(wire, [{"event_id": "b", "wire_alert_at": 0}])
        assert main(["timeliness", "--feed", str(feed), "--wire", str(wire)]) == EXIT_OK
        assert "events: 0" in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path):
        feed = tmp_path / "feed.ndjson"
        write_ndjson_file(feed, [{"event_id": "a", "first_tweet_at": 0}])
        assert (
            main(["timeliness", "--feed", str(feed), "--wire", str(tmp_path / "nope")])
            == EXIT_MISSING_INPUT
        )

    @pytest.mark.parametrize(
        "bad_row",
        [
            {"event_id": "e2"},
            {"event_id": "e2", "first_tweet_at": "soon"},
            {"event_id": "e2", "first_tweet_at": None},
            {"first_tweet_at": 0},
            {"event_id": "e2", "first_tweet_at": 1e308},
            {"event_id": "e2", "first_tweet_at": True},
            {"event_id": [1], "first_tweet_at": True},
            {"event_id": True, "first_tweet_at": 0},
        ],
    )
    def test_bad_feed_row_skipped(self, tmp_path, capsys, bad_row):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [{"event_id": "e1", "first_tweet_at": 0}, bad_row])
        write_ndjson_file(wire, [
            {"event_id": "e1", "wire_alert_at": 600},
            {"event_id": "e2", "wire_alert_at": 600},
        ])
        assert main(["timeliness", "--feed", str(feed), "--wire", str(wire)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning: feed line 2: " in captured.err
        assert "(record skipped)" in captured.err
        assert "Traceback" not in captured.err
        assert "events: 1" in captured.out
        assert "skipped (present on one side only): e2" in captured.out

    def test_bad_wire_row_skipped(self, tmp_path, capsys):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        write_ndjson_file(feed, [{"event_id": "e1", "first_tweet_at": 0}])
        write_ndjson_file(wire, [{"event_id": "e1", "wire_alert_at": "12:00"}])
        assert main(["timeliness", "--feed", str(feed), "--wire", str(wire)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning: wire line 1: " in captured.err
        assert "events: 0" in captured.out

    def test_writes_rows(self, tmp_path, capsys):
        feed = tmp_path / "feed.ndjson"
        wire = tmp_path / "wire.ndjson"
        out = tmp_path / "rows.ndjson"
        write_ndjson_file(feed, [{"event_id": "e1", "first_tweet_at": 0}])
        write_ndjson_file(wire, [{"event_id": "e1", "wire_alert_at": 1800}])
        assert main([
            "timeliness", "--feed", str(feed), "--wire", str(wire), "--out", str(out)
        ]) == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0]["lead_minutes"] == 30.0


class TestConfigValidation:
    def _write(self, tmp_path, overrides):
        base = {"seed": 1, "thresholds": {}, "paths": {}}
        base.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base))
        return path

    def test_out_of_range_threshold_exit_4(self, tmp_path):
        cfg = self._write(tmp_path, {"thresholds": {"match": 1.5}})
        assert main(["label", "--config", str(cfg)]) == EXIT_SCHEMA_MISMATCH

    def test_nonpositive_ratio_exit_4(self, tmp_path):
        cfg = self._write(tmp_path, {"thresholds": {"undersample_ratio": 0}})
        assert main(["train", "--config", str(cfg)]) == EXIT_SCHEMA_MISMATCH

    def test_unparseable_config_exit_4(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["curate", "--config", str(path)]) == EXIT_SCHEMA_MISMATCH

    def test_bad_feature_value_exit_4(self, pipeline):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        out_dir = tmp_path / "out"
        (out_dir / "features.tsv").write_text("p1\tloc_lat\tnot_a_number\n")
        assert main(["train", "--config", str(config)]) == EXIT_SCHEMA_MISMATCH

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_feature_value_exit_4(self, pipeline, capsys, value):
        tmp_path, config = pipeline
        assert main(["label", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        out_dir = tmp_path / "out"
        (out_dir / "features.tsv").write_text(f"p1\tloc_lat\t0.5\np1\tloc_lon\t{value}\n")
        assert main(["train", "--config", str(config)]) == EXIT_SCHEMA_MISMATCH
        err = capsys.readouterr().err
        assert err.startswith("error: features line 2: non-finite value")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [
            "[1, 2]",
            '"config"',
            "null",
            '{"thresholds": [0.5]}',
            '{"thresholds": 0.5}',
            '{"svm": "fast"}',
            '{"svm": [100]}',
            '{"paths": ["posts.ndjson"]}',
            '{"paths": null}',
        ],
    )
    def test_non_object_config_exit_4(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_text(content)
        assert main(["label", "--config", str(path)]) == EXIT_SCHEMA_MISMATCH
        err = capsys.readouterr().err
        assert err.startswith("error: config ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": "7"},
            {"seed": True},
            {"seed": 7.0},
            {"svm": {"epochs": 1.9}},
            {"svm": {"C": True}},
            {"thresholds": {"match": "0.7"}},
            {"thresholds": {"follower_cap": 1e6}},
            {"paths": {"posts": 5}},
            {"paths": {"out_dir": None}},
        ],
        ids=json.dumps,
    )
    def test_wrong_typed_config_value_exit_4(self, tmp_path, capsys, overrides):
        # Each value has another JSON type than its field: none is converted.
        path = self._write(tmp_path, overrides)
        assert main(["label", "--config", str(path)]) == EXIT_SCHEMA_MISMATCH
        err = capsys.readouterr().err
        assert err.startswith("error: bad config value: ")
        assert err.count("\n") == 1

    def test_integer_for_float_field_reads_as_float(self, tmp_path):
        cfg = load_config(self._write(tmp_path, {"thresholds": {"match": 1}, "svm": {"C": 2}}))
        assert (cfg.match_threshold, cfg.svm_c) == (1.0, 2.0)
        assert type(cfg.svm_c) is float  # model.json writes C as 2.0, as before


# The documented exit code of each exception a command may raise: every
# class in newsvalue.errors, and the built-in errors main maps.
EXCEPTION_EXITS = [
    (errors.DegenerateLabels("too few\nexamples"), EXIT_DEGENERATE_LABELS,
     "error: too few\\nexamples\n"),
    (errors.SchemaMismatch("bad model"), EXIT_SCHEMA_MISMATCH, "error: bad model\n"),
    (FileNotFoundError("posts.ndjson"), EXIT_MISSING_INPUT,
     "error: missing input file: posts.ndjson\n"),
    (IsADirectoryError(21, "Is a directory", "out/model.json"), EXIT_SCHEMA_MISMATCH,
     "error: output out/model.json is a directory\n"),
]


def test_errors_module_holds_one_class_per_exit_code():
    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert classes == {type(exc).__name__ for exc, *_ in EXCEPTION_EXITS[:2]}


@pytest.mark.parametrize("verb", list(VERBS))
@pytest.mark.parametrize(
    "exc, code, err", EXCEPTION_EXITS, ids=[type(exc).__name__ for exc, *_ in EXCEPTION_EXITS]
)
def test_each_exception_exits_with_its_code(tmp_path, capsys, monkeypatch, verb, exc, code, err):
    def command(cfg, args):
        raise exc

    monkeypatch.setitem(VERBS, verb, ("", command))
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    assert main([verb, "--config", str(config)]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == ""


# The config keys the property below sets.
CONFIG_KEYS = ["seed"] + [
    f"thresholds.{k}" for k in (
        "match", "link", "same_user_link", "local_focus", "follower_cap", "undersample_ratio",
    )
] + [f"svm.{k}" for k in ("epochs", "C", "folds")] + [
    f"paths.{k}" for k in (
        "gazetteer", "profiles", "tweets", "assignments", "headlines", "posts",
        "background", "curated", "labeled", "features", "out_dir",
    )
]
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(["o\x00ut", "\ud800", "x\udcff", "a\nb", "", ".", "1e400", "nan", "-1"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _few_epochs(value) -> bool:
    """False for a value the config reads as more than 5 epochs: a huge
    epoch count is valid and only slow, so the draw is bounded instead."""
    try:
        return int(value) <= 5
    except (TypeError, ValueError, OverflowError):
        return True


config_entries = st.sampled_from(CONFIG_KEYS).flatmap(
    lambda key: st.tuples(
        st.just(key), json_values.filter(_few_epochs) if key == "svm.epochs" else json_values
    )
)


@pytest.fixture(scope="module")
def fixture_config(tmp_path_factory):
    """The CLI fixture's inputs and its labeled posts and features, written
    once, and a directory for the examples' working directories; outputs go
    to a relative out_dir, so each example writes into its own."""
    posts, headlines = make_event_posts()
    inputs = tmp_path_factory.mktemp("inputs")
    config_path = write_pipeline_inputs(inputs, posts, headlines)
    for verb in ("label", "extract"):
        assert main([verb, "--config", str(config_path)]) == EXIT_OK
    config = json.loads(config_path.read_text())
    config["paths"]["labeled"] = str(inputs / "out" / "labeled.ndjson")
    config["paths"]["features"] = str(inputs / "out" / "features.tsv")
    config["paths"]["out_dir"] = "out"
    return config, tmp_path_factory.mktemp("work")


def _run_in_work_dir(work_root, config, verb, files=None):
    """main() for verb on config (timeliness: on feed.ndjson and
    wire.ndjson), in a new directory under work_root that holds files
    (name -> bytes); returns the exit code and stderr."""
    argv = [verb, "--config", "config.json"]
    if verb == "timeliness":
        argv = [verb, "--feed", "feed.ndjson", "--wire", "wire.ndjson"]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        os.chdir(work)
        try:
            for name, content in (files or {}).items():
                with open(name, "wb") as fh:
                    fh.write(content)
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
    return code, stderr.getvalue()


def _assert_exit_code_contract(code, stderr):
    assert code in (EXIT_OK, EXIT_MISSING_INPUT, EXIT_DEGENERATE_LABELS, EXIT_SCHEMA_MISMATCH)
    for line in stderr.splitlines():
        assert line.startswith(("error:", "warning:")), line


@pytest.mark.parametrize("verb", ["curate", "label", "extract", "train", "evaluate", "predict"])
@settings(max_examples=60, deadline=None)
@given(overrides=st.lists(config_entries, min_size=1, max_size=3).map(dict))
@example(overrides={"paths.out_dir": "o\x00ut"})
@example(overrides={"paths.headlines": "a\nb"})
@example(overrides={"paths.posts": 10**300})
@example(overrides={"svm.C": 1e-300, "svm.epochs": 5})
def test_any_config_value_keeps_the_exit_code_contract(fixture_config, fixture_model, verb,
                                                       overrides):
    """An arbitrary JSON value at any config key exits 0, 2, 3 or 4 with
    no uncaught exception, and every stderr line is an error or a warning.
    predict reads the model train writes for the unchanged config."""
    base, work_root = fixture_config
    config = json.loads(json.dumps(base))
    files = None
    if verb == "predict":
        config["paths"]["out_dir"] = "."
        files = {"model.json": fixture_model}
    for key, value in overrides.items():
        section, _, name = key.rpartition(".")
        if section == "paths":
            # Keep every path inside the example's working directory.
            assume(not str(value).startswith("/") and ".." not in str(value))
        (config[section] if section else config)[name] = value
    _assert_exit_code_contract(*_run_in_work_dir(work_root, config, verb, files))


POSTS, HEADLINES = make_event_posts()
PROFILE = curation_fixture()[0][3].to_record()  # houston_fire
# A well-formed record of each NDJSON input; an input the CLI fixture does
# not hold is this one record.
GOOD_RECORDS = {
    "posts": POSTS[0].to_record(),
    "headlines": headline_record(HEADLINES[0]),
    "profiles": PROFILE,
    "tweets": POSTS[1].to_record(),
    "assignments": {"user_id": PROFILE["user_id"], "topic": "Crisis/War/Disaster", "count": 2},
    "background": {"created_at": BASE_TS, "lat": 29.76, "lon": -95.37, "country": "US",
                   "topic": "fires_explosions"},
    "curated": dict(PROFILE, category="fire_emergency", locally_focused=True, informativeness=2.5,
                    resolved_name="Houston", resolved_country="US", resolved_lat=29.76,
                    resolved_lon=-95.37),
    "labeled": dict(POSTS[0].to_record(), status="matched", best_score=1.0, best_headline=0,
                    via_link=False),
    "feed": {"event_id": "e1", "first_tweet_at": BASE_TS},
    "wire": {"event_id": "e1", "wire_alert_at": BASE_TS + 600},
}
# The NDJSON inputs of each verb.
VERB_INPUTS = {
    "curate": ("profiles", "tweets", "assignments", "headlines"),
    "label": ("posts", "headlines"),
    "extract": ("posts", "headlines", "background", "curated"),
    "train": ("labeled",),
    "evaluate": ("labeled",),
    "timeliness": ("feed", "wire"),
}
RECORD_FIELDS = sorted(set().union(*GOOD_RECORDS.values()))
# Values no well-formed record holds: numbers past every int and float
# field's range, a 100,000-character string, a long list.
huge_values = st.sampled_from(
    [10**400, -(10**400), 2**63, 1e308, -1e308, 5e-324, "x" * 100_000, [0] * 1000]
)
record_values = json_values | huge_values


@st.composite
def ndjson_lines(draw, base):
    """One line: arbitrary bytes (invalid UTF-8 among them), any JSON value,
    or base with keys dropped and others set to arbitrary values."""
    kind = draw(st.sampled_from(["bytes", "value", "record"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40)).replace(b"\n", b" ")
    if kind == "value":
        value = draw(record_values)
    else:
        dropped = draw(st.sets(st.sampled_from(sorted(base)), max_size=2))
        value = {k: v for k, v in base.items() if k not in dropped}
        value.update(draw(st.dictionaries(st.sampled_from(RECORD_FIELDS), record_values, max_size=2)))
    text = json.dumps(value, ensure_ascii=draw(st.booleans()))
    return text.encode("utf-8", "surrogatepass")


@pytest.mark.parametrize("verb", sorted(VERB_INPUTS))
@settings(max_examples=40, deadline=None)
@given(lines=st.fixed_dictionaries(
    {name: st.lists(ndjson_lines(record), max_size=3) for name, record in GOOD_RECORDS.items()}
))
@example(lines=dict.fromkeys(GOOD_RECORDS, [b"[]", b"null"]))
@example(lines=dict.fromkeys(GOOD_RECORDS, [b"\xff\xfe", b'{"post_id": 1e400}', b"{}"]))
def test_any_ndjson_line_keeps_the_exit_code_contract(fixture_config, verb, lines):
    """Arbitrary lines appended to any NDJSON input of any verb exit 0, 2, 3
    or 4 with no uncaught exception, and every stderr line is an error or a
    warning."""
    base, work_root = fixture_config
    config = json.loads(json.dumps(base))
    files = {}
    for name in VERB_INPUTS[verb]:
        path = base["paths"].get(name)
        good = Path(path).read_bytes() if path else json.dumps(GOOD_RECORDS[name]).encode() + b"\n"
        files[f"{name}.ndjson"] = good + b"".join(line + b"\n" for line in lines[name])
        config["paths"][name] = f"{name}.ndjson"
    _assert_exit_code_contract(*_run_in_work_dir(work_root, config, verb, files))


def _assert_ok_or_schema_mismatch(code, stderr):
    """Exit 0 with no error line, or exit 4 with exactly one; every other
    stderr line is a warning."""
    _assert_exit_code_contract(code, stderr)
    assert code in (EXIT_OK, EXIT_SCHEMA_MISMATCH)
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == (code == EXIT_SCHEMA_MISMATCH), stderr


GAZETTEER_LINES = [
    line for line in GAZETTEER_PATH.read_text(encoding="utf-8").splitlines()
    if not line.startswith("#")
]
# Field values a gazetteer line may hold: names the fixture geocodes, and
# numbers float() and int() read or refuse (non-finite, out of range,
# non-ASCII digits, past int()'s digit limit).
gazetteer_fields = st.text(max_size=8) | st.sampled_from([
    "", " ", "Houston", "Texas", "London", "Atlantis", "US", "us", "nan", "inf", "-1e400",
    "90.0000001", "-180", "1_0", "\uff11\uff12", "\u0663", "9" * 5000, "-5",
])


@st.composite
def gazetteer_lines(draw):
    """One line: arbitrary bytes (invalid UTF-8 among them), arbitrary
    pipe-separated fields, or, as often as both, a shipped line with one
    field replaced."""
    kind = draw(st.sampled_from(["bytes", "fields", "edited", "edited"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40)).replace(b"\n", b" ")
    if kind == "fields":
        fields = draw(st.lists(gazetteer_fields, max_size=9))
    else:
        fields = draw(st.sampled_from(GAZETTEER_LINES)).split("|")
        fields[draw(st.integers(0, 6))] = draw(gazetteer_fields)
    return "|".join(fields).replace("\n", " ").encode("utf-8", "surrogatepass")


@pytest.mark.parametrize("verb", ["curate", "extract"])
@settings(max_examples=25, deadline=None)
@given(lines=st.lists(gazetteer_lines(), max_size=4))
@example(lines=[b"Houston|texas|0|0|US|Texas|9", b"Texas|houston|0|0|US|Houston|"])
@example(lines=[b"!!!||1|1|US|Houston|1", b"Mars|houston|91|0|US||1"])
def test_any_gazetteer_line_keeps_the_exit_code_contract(fixture_config, verb, lines):
    """Arbitrary lines appended to the gazetteer exit 0, or 4 with one error
    line, and never raise."""
    base, work_root = fixture_config
    config = json.loads(json.dumps(base))
    config["paths"]["gazetteer"] = "gazetteer.txt"
    content = GAZETTEER_PATH.read_bytes() + b"".join(line + b"\n" for line in lines)
    _assert_ok_or_schema_mismatch(
        *_run_in_work_dir(work_root, config, verb, {"gazetteer.txt": content})
    )


MODEL_CLASSES = ["matched", "other", ""]
model_weights = st.dictionaries(
    st.sampled_from(["text_fire", "text_accident", "loc_present", ""]),
    st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**300), 10**300),
    max_size=2,
)


@st.composite
def model_files(draw):
    """A model file: arbitrary bytes, any JSON value, or, as often as both,
    a linear-model/1 object whose classes, weights and bias are drawn
    together, with a key dropped or set to an arbitrary value."""
    kind = draw(st.sampled_from(["bytes", "value", "model", "model"]))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    if kind == "value":
        value = draw(record_values)
    else:
        classes = draw(st.lists(st.sampled_from(MODEL_CLASSES), max_size=3))
        value = {
            "format": "linear-model/1", "kind": "svm", "classes": classes,
            "weights": {c: draw(model_weights) for c in classes},
            "bias": {c: draw(st.floats(-1.0, 1.0)) for c in classes},
        }
        for key in draw(st.sets(st.sampled_from(sorted(value)), max_size=1)):
            del value[key]
        value.update(draw(st.dictionaries(
            st.sampled_from(["format", "kind", "classes", "weights", "bias", "train_meta"]),
            record_values, max_size=1,
        )))
    text = json.dumps(value, ensure_ascii=draw(st.booleans()))
    return text.encode("utf-8", "surrogatepass")


@settings(max_examples=60, deadline=None)
@given(model=model_files())
@example(model=json.dumps({"format": "linear-model/1", "kind": "svm", "classes": ["other"],
                           "weights": {"other": {}}, "bias": {}}).encode())
@example(model=b"[" * 100_000)
def test_any_model_file_keeps_the_exit_code_contract(fixture_config, model):
    """An arbitrary model.json exits predict with 0, or 4 with one error
    line, and never raises."""
    base, work_root = fixture_config
    config = json.loads(json.dumps(base))
    config["paths"]["out_dir"] = "."
    _assert_ok_or_schema_mismatch(
        *_run_in_work_dir(work_root, config, "predict", {"model.json": model})
    )


@pytest.fixture(scope="module")
def fixture_model(fixture_config, tmp_path_factory):
    """The model.json that train writes for the CLI fixture."""
    base, _ = fixture_config
    out = tmp_path_factory.mktemp("model")
    config = json.loads(json.dumps(base))
    config["paths"]["out_dir"] = str(out)
    path = out / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(path)]) == EXIT_OK
    return (out / "model.json").read_bytes()


# Field values a features.tsv line may hold: the fixture's post ids and
# feature names, the reserved bias name, empty fields, and numbers float()
# reads or refuses (underscores, overflow, non-finite, non-ASCII digits).
features_fields = st.text(max_size=8) | st.sampled_from(
    [p.post_id for p in POSTS[:3]]
    + ["", " ", "__bias__", "loc_lat", "text_fire", "1.5", "-2", "1_000", "1e400", "-1e400",
       "nan", "inf", "0x10", "\u0663", "\r", "1\r"]
)


@st.composite
def features_lines(draw):
    """One line: arbitrary bytes (invalid UTF-8 among them), or arbitrary
    tab-separated fields, most often three."""
    kind = draw(st.sampled_from(["bytes", "fields", "three", "three"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40)).replace(b"\n", b" ")
    size = st.just(3) if kind == "three" else st.integers(0, 5)
    fields = draw(size.flatmap(lambda n: st.lists(features_fields, min_size=n, max_size=n)))
    return "\t".join(fields).replace("\n", " ").encode("utf-8", "surrogatepass")


@pytest.mark.parametrize("verb", ["train", "evaluate", "predict"])
@settings(max_examples=30, deadline=None)
@given(lines=st.lists(features_lines(), max_size=4))
@example(lines=[POSTS[0].post_id.encode() + b"\t__bias__\t1.0"])
@example(lines=[POSTS[0].post_id.encode() + b"\tloc_lat\t1_000", b"\t\t1.0", b"a\rb\t\t"])
@example(lines=[POSTS[0].post_id.encode() + b"\tloc_lat\t1e400"])
@example(lines=[b"p9\tloc_lat\t1.0", b"p9\tloc_lat\t2.0"])
def test_any_features_line_keeps_the_exit_code_contract(fixture_config, fixture_model, verb, lines):
    """Arbitrary lines appended to features.tsv exit train, evaluate and
    predict with 0, 2, 3 or 4, with no uncaught exception, and every stderr
    line is an error or a warning."""
    base, work_root = fixture_config
    config = json.loads(json.dumps(base))
    config["paths"]["features"] = "features.tsv"
    config["paths"]["out_dir"] = "."
    features = Path(base["paths"]["features"]).read_bytes()
    files = {
        "features.tsv": features + b"".join(line + b"\n" for line in lines),
        "model.json": fixture_model,
    }
    code, stderr = _run_in_work_dir(work_root, config, verb, files)
    _assert_exit_code_contract(code, stderr)
    assert "Traceback" not in stderr


def reference_read_features(path: Path) -> dict[str, dict[str, float]]:
    """features.tsv read line by line from the file, each line checked
    for undecodable bytes, and the file read again to name the first line
    of a repeat: the reader that _read_features replaced."""
    features: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if not _is_utf8(line):
                raise errors.SchemaMismatch(f"features line {lineno}: invalid UTF-8")
            parts = line.split("\t")
            if len(parts) != 3:
                raise errors.SchemaMismatch(f"features line {lineno}: expected 3 columns")
            post_id, name, value = parts
            if name == BIAS_KEY:
                raise errors.SchemaMismatch(
                    f"features line {lineno}: reserved feature name {name!r}")
            try:
                number = float(value)
            except ValueError:
                raise errors.SchemaMismatch(
                    f"features line {lineno}: bad value {value!r}") from None
            if not math.isfinite(number):
                raise errors.SchemaMismatch(
                    f"features line {lineno}: non-finite value {value!r}")
            row = features.setdefault(post_id, {})
            if name in row:
                with open(path, encoding="utf-8", errors="surrogateescape") as again:
                    first = next(
                        n for n, earlier in enumerate(again, start=1)
                        if earlier.rstrip("\n").split("\t")[:2] == [post_id, name]
                    )
                raise errors.SchemaMismatch(
                    f"features line {lineno}: feature {name!r} of post {post_id!r} "
                    f"repeats line {first}"
                )
            row[name] = number
    return features


def _read_outcome(reader, path):
    """repr of what reader returns (insertion order and float bits
    included), or the SchemaMismatch text it raises."""
    try:
        return repr(reader(path))
    except errors.SchemaMismatch as exc:
        return f"SchemaMismatch: {exc}"


# Few ids and names, so that pairs repeat; values that parse, that do
# not, and that are not finite.
features_cells = st.sampled_from(
    ["p1", "p2", "a", "b", "", " ", BIAS_KEY, "1.0", "-0.0", "2e-3", "1_0", "nan", "inf",
     "-Infinity", "1e400", "x", "\u0663", "\u00e9"]
)


@st.composite
def features_file(draw):
    """features.tsv bytes: rows of 2, 3 or 4 cells, blank lines and
    arbitrary bytes (invalid UTF-8, tabs and \\r among them), each line
    ended by \\n, \\r or \\r\\n, the last one maybe by nothing."""
    row = st.lists(features_cells, min_size=2, max_size=4).map(
        lambda cells: "\t".join(cells).encode("utf-8"))
    three = st.tuples(st.sampled_from(["p1", "p2"]), st.sampled_from(["a", "b", BIAS_KEY]),
                      features_cells).map(lambda cells: "\t".join(cells).encode("utf-8"))
    line = st.one_of(three, three, row, st.just(b""), st.binary(max_size=12))
    lines = draw(st.lists(st.tuples(line, st.sampled_from([b"\n", b"\r", b"\r\n"])),
                          max_size=8))
    data = b"".join(text + end for text, end in lines)
    if lines and draw(st.booleans()):
        data = data[: -len(lines[-1][1])]
    return data


@settings(max_examples=300, deadline=None)
@given(data=features_file())
@example(data=b"p1\ta\t1.0\np1\tb\t2.0\r\np2\ta\t3.0\rp1\ta\t4.0")
@example(data=b"p1\ta\t1.0\n\xff\n\np1\ta\t1.0\t\n")
@example(data=b"p1\ta\t1.0\n\n\xc3\xa9\ta\t2.0\np1\tb\tnan\n")
def test_features_reader_equals_line_by_line_reader(tmp_path_factory, data):
    """_read_features, which reads the file in one call and checks bytes
    only in a file that is not ASCII, returns the reference reader's dict
    or raises its SchemaMismatch text, line numbers included."""
    path = tmp_path_factory.getbasetemp() / "features-property.tsv"
    path.write_bytes(data)
    assert _read_outcome(_read_features, path) == _read_outcome(reference_read_features, path)


def test_json_nested_too_deep_is_bad_input_not_a_crash(fixture_config, tmp_path, capsys):
    """JSON nested past the recursion limit of the JSON parser is a bad
    config or model file (exit 4) or a skipped record line, never a raise."""
    base, work_root = fixture_config
    deep = b"[" * 100_000
    path = tmp_path / "config.json"
    path.write_bytes(deep)
    assert main(["label", "--config", str(path)]) == EXIT_SCHEMA_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1

    config = json.loads(json.dumps(base))
    config["paths"]["out_dir"] = "."
    code, err = _run_in_work_dir(work_root, config, "predict", {"model.json": deep})
    assert code == EXIT_SCHEMA_MISMATCH
    assert err.startswith("error: unreadable model file: ") and err.count("\n") == 1

    posts = Path(base["paths"]["posts"]).read_bytes()
    config["paths"]["posts"] = "posts.ndjson"
    code, err = _run_in_work_dir(work_root, config, "label", {"posts.ndjson": deep + b"\n" + posts})
    assert code == EXIT_OK
    assert err.startswith("warning: posts.ndjson line 1: ") and err.count("\n") == 1
    assert err.endswith(" (record skipped)\n")

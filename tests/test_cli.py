"""End-to-end CLI runs over synthetic corpora, exit codes, determinism."""

from __future__ import annotations

import json
import time

import pytest

from conftest import (
    BASE_TS,
    EXPECTED_SURVIVORS,
    make_wire_headlines,
    write_ndjson_file,
    write_pipeline_inputs,
)
import newsvalue.model
from newsvalue.cli import (
    EXIT_DEGENERATE_LABELS,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_SCHEMA_MISMATCH,
    main,
)
from newsvalue.linear import LinearModel
from newsvalue.model import feature_group_weights
from newsvalue.records import Headline, Post


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
        calls = []
        original = newsvalue.model.train_binary_hinge

        def counted(rows, cfg):
            calls.append(cfg.seed)
            return original(rows, cfg)

        monkeypatch.setattr(newsvalue.model, "train_binary_hinge", counted)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert len(calls) == folds + 1
        calls.clear()
        assert main(["evaluate", "--config", str(config)]) == EXIT_OK
        assert len(calls) == 4 * folds

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

    def test_extract_without_topic_headlines_exit_3(self, tmp_path, capsys):
        posts, _ = make_event_posts()
        config = write_pipeline_inputs(tmp_path, posts=posts, headlines=[])
        assert main(["extract", "--config", str(config)]) == EXIT_DEGENERATE_LABELS
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

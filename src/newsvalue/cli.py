"""Command-line pipeline over newline-delimited record files.

Verbs: curate, extract, label, train, predict, evaluate, timeliness.
Every command is deterministic given the config seed and input files.
Exit codes: 0 ok, 2 missing input file, 3 degenerate labels or too few
examples, 4 model/file schema mismatch (including a bad gazetteer or a
model without weights).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .curation import CurationConfig, build_trbc_centroids, curate
from .errors import (
    BadGazetteer,
    DegenerateLabels,
    InsufficientData,
    ModelNotFitted,
    NoDocuments,
    SchemaMismatch,
)
from .geo import load_gazetteer
from .labeling import label_corpus, undersample
from .linear import LinearModel
from .model import (
    POSITIVE_CLASS,
    SvmConfig,
    ablate,
    assemble_features,
    build_context,
    cross_validate,
    feature_group_weights,
    train_svm,
)
from .rarity import TaggedPost, build_background
from .records import (
    Headline,
    LabeledExample,
    Post,
    SourceProfile,
    TopicAssignment,
    read_ndjson,
    write_ndjson,
)

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_DEGENERATE_LABELS = 3
EXIT_SCHEMA_MISMATCH = 4

ABLATION_SETS = (
    ("text", "topic"),
    ("text", "topic", "scope", "impact"),
    ("text", "topic", "rarity", "location"),
    ("text", "topic", "scope", "impact", "rarity", "location"),
)


@dataclass
class PipelineConfig:
    """Seed, thresholds (all defaulting to the published operating points),
    and file paths."""

    seed: int = 0
    match_threshold: float = 0.5
    link_threshold: float = 0.5
    same_user_link_threshold: float = 0.3
    local_focus_threshold: float = 0.5
    follower_cap: int = 1_000_000
    undersample_ratio: int = 10
    svm_epochs: int = 100
    svm_c: float = 1.0
    folds: int = 10
    paths: dict[str, str] = field(default_factory=dict)

    def path(self, key: str) -> Path:
        if key not in self.paths:
            raise FileNotFoundError(f"config has no path for {key!r}")
        return Path(self.paths[key])

    def out_path(self, name: str) -> Path:
        out_dir = Path(self.paths.get("out_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir / name


def _finite_number(text: str) -> float:
    """JSON float hook: NaN, Infinity and overflowing literals are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaMismatch(f"config number {text} is not finite")
    return value


def load_config(path: str | Path, seed_override: int | None = None) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        except ValueError as exc:
            raise SchemaMismatch(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaMismatch("config must be a JSON object")
    for key in ("thresholds", "svm", "paths"):
        if not isinstance(raw.get(key, {}), dict):
            raise SchemaMismatch(f"config {key!r} must be a JSON object")
    thresholds = raw.get("thresholds", {})
    svm = raw.get("svm", {})
    try:
        cfg = PipelineConfig(
            seed=int(raw.get("seed", 0)),
            match_threshold=float(thresholds.get("match", 0.5)),
            link_threshold=float(thresholds.get("link", 0.5)),
            same_user_link_threshold=float(thresholds.get("same_user_link", 0.3)),
            local_focus_threshold=float(thresholds.get("local_focus", 0.5)),
            follower_cap=int(thresholds.get("follower_cap", 1_000_000)),
            undersample_ratio=int(thresholds.get("undersample_ratio", 10)),
            svm_epochs=int(svm.get("epochs", 100)),
            svm_c=float(svm.get("C", 1.0)),
            folds=int(svm.get("folds", 10)),
            paths={k: str(v) for k, v in raw.get("paths", {}).items()},
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"bad config value: {exc}") from None
    for name in ("match_threshold", "link_threshold", "same_user_link_threshold",
                 "local_focus_threshold"):
        value = getattr(cfg, name)
        if not 0.0 <= value <= 1.0:
            raise SchemaMismatch(f"config threshold {name}={value} outside [0, 1]")
    if cfg.follower_cap < 1 or cfg.undersample_ratio < 1:
        raise SchemaMismatch("follower_cap and undersample_ratio must be positive")
    if cfg.svm_epochs < 1 or cfg.svm_c <= 0 or cfg.folds < 1:
        raise SchemaMismatch("svm epochs/C/folds must be positive")
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(str(path))
    return path


def _warn_errors(name: str, errors: list[tuple[int, str]]) -> None:
    for lineno, message in errors:
        print(f"warning: {name} line {lineno}: {message} (record skipped)", file=sys.stderr)


def _read_posts(path: Path) -> list[Post]:
    posts, errors = read_ndjson(_require(path), Post.from_record)
    _warn_errors(path.name, errors)
    return posts


def _read_headlines(path: Path) -> list[Headline]:
    headlines, errors = read_ndjson(_require(path), Headline.from_record)
    _warn_errors(path.name, errors)
    return headlines


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_curate(cfg: PipelineConfig) -> int:
    gaz = load_gazetteer(_require(cfg.path("gazetteer")))
    profiles, errors = read_ndjson(_require(cfg.path("profiles")), SourceProfile.from_record)
    _warn_errors("profiles", errors)
    tweets = _read_posts(cfg.path("tweets"))
    assignments, errors = read_ndjson(
        _require(cfg.path("assignments")), TopicAssignment.from_record
    )
    _warn_errors("assignments", errors)
    headlines = _read_headlines(cfg.path("headlines"))

    tweets_by_user: dict[str, list[Post]] = {}
    for post in tweets:
        tweets_by_user.setdefault(post.user_id, []).append(post)

    tfidf, centroids = build_trbc_centroids(headlines, seed=cfg.seed)
    curated, stages = curate(
        profiles,
        tweets_by_user,
        assignments,
        gaz,
        centroids,
        tfidf,
        CurationConfig(
            seed=cfg.seed,
            follower_cap=cfg.follower_cap,
            local_focus_threshold=cfg.local_focus_threshold,
        ),
    )
    out = cfg.out_path("curated.ndjson")
    write_ndjson(out, (p.to_record() for p in curated))
    for stage in (
        "input",
        "removed_follower_cap",
        "removed_no_location",
        "removed_not_local",
        "readmitted_topical",
        "skipped_errors",
        "curated",
    ):
        print(f"{stage}: {stages[stage]}")
    print(f"wrote {out}")
    return EXIT_OK


def _load_context(cfg: PipelineConfig):
    gaz = load_gazetteer(_require(cfg.path("gazetteer")))
    headlines = _read_headlines(cfg.path("headlines"))
    tfidf, centroids = build_trbc_centroids(headlines, seed=cfg.seed)
    background = None
    if "background" in cfg.paths and Path(cfg.paths["background"]).exists():
        tagged, errors = read_ndjson(cfg.path("background"), TaggedPost.from_record)
        _warn_errors("background", errors)
        if tagged:
            start = min(p.created_at for p in tagged)
            end = max(p.created_at for p in tagged) + 1
            background = build_background(tagged, (start, end))
    return build_context(gaz, tfidf, centroids, background=background, seed=cfg.seed)


def _load_sources(cfg: PipelineConfig) -> dict[str, SourceProfile]:
    path = cfg.out_path("curated.ndjson")
    if "curated" in cfg.paths:
        path = cfg.path("curated")
    if not path.exists():
        return {}
    profiles, errors = read_ndjson(path, SourceProfile.from_record)
    _warn_errors("curated", errors)
    return {p.user_id: p for p in profiles}


def cmd_extract(cfg: PipelineConfig) -> int:
    posts = _read_posts(cfg.path("posts"))
    ctx = _load_context(cfg)
    sources = _load_sources(cfg)
    out = cfg.out_path("features.tsv")
    rows = 0
    with open(out, "w", encoding="utf-8") as fh:
        for post in sorted(posts, key=lambda p: p.post_id):
            features = assemble_features(post, sources.get(post.user_id), ctx)
            for name in sorted(features):
                fh.write(f"{post.post_id}\t{name}\t{features[name]!r}\n")
                rows += 1
    print(f"extracted features for {len(posts)} posts ({rows} rows)")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_label(cfg: PipelineConfig) -> int:
    posts = _read_posts(cfg.path("posts"))
    headlines = _read_headlines(cfg.path("headlines"))
    run = label_corpus(
        posts,
        headlines,
        threshold=cfg.match_threshold,
        link_threshold=cfg.link_threshold,
        same_user_threshold=cfg.same_user_link_threshold,
    )
    by_id = {p.post_id: p for p in posts}
    records = []
    for r in sorted(run.results, key=lambda r: r.post_id):
        rec = by_id[r.post_id].to_record()
        rec.update(
            {
                "status": r.status,
                "best_score": r.best_score,
                "best_headline": r.best_headline,
                "via_link": r.via_link,
            }
        )
        records.append(rec)
    out = cfg.out_path("labeled.ndjson")
    write_ndjson(out, records)
    s = run.stats
    print(
        f"matched: {s['matched']} (direct {s['matched_direct']}, via link {s['via_link']})"
    )
    print(f"tardy: {s['tardy']}")
    print(f"unmatched: {s['unmatched']}")
    print(f"wrote {out}")
    if s["matched"] == 0:
        print("error: no matched posts after propagation", file=sys.stderr)
        return EXIT_DEGENERATE_LABELS
    return EXIT_OK


def _read_features(path: Path) -> dict[str, dict[str, float]]:
    features: dict[str, dict[str, float]] = {}
    with open(_require(path), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SchemaMismatch(f"features line {lineno}: expected 3 columns")
            post_id, name, value = parts
            try:
                number = float(value)
            except ValueError:
                raise SchemaMismatch(f"features line {lineno}: bad value {value!r}") from None
            if not math.isfinite(number):
                raise SchemaMismatch(f"features line {lineno}: non-finite value {value!r}")
            features.setdefault(post_id, {})[name] = number
    return features


def _load_examples(cfg: PipelineConfig) -> list[LabeledExample]:
    labeled_path = cfg.out_path("labeled.ndjson")
    if "labeled" in cfg.paths:
        labeled_path = cfg.path("labeled")
    features_path = cfg.out_path("features.tsv")
    if "features" in cfg.paths:
        features_path = cfg.path("features")
    _require(labeled_path)
    features = _read_features(features_path)

    def parse(rec: dict) -> LabeledExample:
        post_id = str(rec["post_id"])
        return LabeledExample(
            post_id=post_id,
            features=features.get(post_id, {}),
            label=rec.get("status") == "matched",
            label_provenance="via_link" if rec.get("via_link") else "direct",
        )

    examples, errors = read_ndjson(labeled_path, parse)
    _warn_errors("labeled", errors)
    return sorted(examples, key=lambda e: e.post_id)


def cmd_train(cfg: PipelineConfig) -> int:
    examples = _load_examples(cfg)
    examples = undersample(examples, ratio=cfg.undersample_ratio, seed=cfg.seed)
    svm_cfg = SvmConfig(epochs=cfg.svm_epochs, C=cfg.svm_c, seed=cfg.seed)
    report = cross_validate(examples, folds=cfg.folds, seed=cfg.seed, config=svm_cfg)
    model = train_svm(examples, svm_cfg)
    report.group_weights = feature_group_weights(model)
    model_path = cfg.out_path("model.json")
    model.save(model_path)
    report_path = cfg.out_path("report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(
        f"cross-validation ({cfg.folds} resamples): "
        f"P={report.precision:.2f} R={report.recall:.2f} F={report.f1:.2f}"
    )
    print(f"wrote {model_path}")
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_predict(cfg: PipelineConfig, model_path: str | None = None) -> int:
    path = Path(model_path) if model_path else cfg.out_path("model.json")
    model = LinearModel.load(_require(path), expect_kind="svm")
    features = _read_features(
        cfg.path("features") if "features" in cfg.paths else cfg.out_path("features.tsv")
    )
    records = []
    for post_id in sorted(features):
        score = model.decision(features[post_id])[POSITIVE_CLASS]
        if not math.isfinite(score):
            raise SchemaMismatch(f"model score for {post_id!r} overflows to {score}")
        records.append({"post_id": post_id, "score": score, "newsworthy": score >= 0.0})
    out = cfg.out_path("predictions.ndjson")
    write_ndjson(out, records)
    positive = sum(1 for r in records if r["newsworthy"])
    print(f"predicted {len(records)} posts, {positive} flagged newsworthy")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_evaluate(cfg: PipelineConfig) -> int:
    examples = _load_examples(cfg)
    examples = undersample(examples, ratio=cfg.undersample_ratio, seed=cfg.seed)
    svm_cfg = SvmConfig(epochs=cfg.svm_epochs, C=cfg.svm_c, seed=cfg.seed)
    results = ablate(
        examples, ABLATION_SETS, folds=cfg.folds, seed=cfg.seed, config=svm_cfg
    )
    out = cfg.out_path("ablation.json")
    payload = []
    print(f"{'feature set':<42} {'P':>7} {'R':>7} {'F':>7}")
    for groups, report in results:
        name = "+".join(groups)
        print(f"{name:<42} {report.precision:7.2f} {report.recall:7.2f} {report.f1:7.2f}")
        payload.append(
            {
                "groups": list(groups),
                "precision": report.precision,
                "recall": report.recall,
                "f1": report.f1,
            }
        )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_timeliness(feed_path: str, wire_path: str, out_path: str | None = None) -> int:
    feed_rows, errors = read_ndjson(
        _require(Path(feed_path)), lambda r: (str(r["event_id"]), int(r["first_tweet_at"]))
    )
    _warn_errors("feed", errors)
    wire_rows, errors = read_ndjson(
        _require(Path(wire_path)), lambda r: (str(r["event_id"]), int(r["wire_alert_at"]))
    )
    _warn_errors("wire", errors)
    feed = dict(feed_rows)
    wire = dict(wire_rows)
    shared = sorted(set(feed) & set(wire))
    skipped = sorted((set(feed) | set(wire)) - set(shared))
    rows = []
    for event_id in shared:
        lead_minutes = (wire[event_id] - feed[event_id]) / 60.0
        rows.append(
            {
                "event_id": event_id,
                "first_tweet_at": feed[event_id],
                "wire_alert_at": wire[event_id],
                "lead_minutes": lead_minutes,
            }
        )
        print(f"{event_id}: lead {lead_minutes:+.1f} min")
    if rows:
        mean_lead = sum(r["lead_minutes"] for r in rows) / len(rows)
        beats = sum(1 for r in rows if r["lead_minutes"] > 0)
        beat_fraction = beats / len(rows)
        print(f"events: {len(rows)}")
        print(f"mean lead: {mean_lead:+.1f} min")
        print(f"beat fraction: {beat_fraction:.2f}")
    else:
        print("events: 0")
    if skipped:
        print("skipped (present on one side only): " + ", ".join(skipped))
    if out_path:
        write_ndjson(out_path, rows)
        print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsvalue",
        description="Predict which locally reported disasters will reach global news.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config JSON")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")

    for verb, help_text in (
        ("curate", "build the curated source list"),
        ("extract", "assemble feature vectors for posts"),
        ("label", "noisy-label posts against wire headlines"),
        ("train", "cross-validate and train the news-value SVM"),
        ("evaluate", "run feature-group ablations"),
    ):
        sub.add_parser(verb, parents=[common], help=help_text)

    predict = sub.add_parser(
        "predict", parents=[common], help="score posts with a trained model"
    )
    predict.add_argument("--model", default=None, help="model file (default: out_dir/model.json)")

    timeliness = sub.add_parser(
        "timeliness", help="compare feed lead times against wire alerts"
    )
    timeliness.add_argument("--feed", required=True, help="feed events ndjson")
    timeliness.add_argument("--wire", required=True, help="wire alerts ndjson")
    timeliness.add_argument("--out", default=None, help="optional output ndjson")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "timeliness":
            return cmd_timeliness(args.feed, args.wire, args.out)
        cfg = load_config(_require(Path(args.config)), args.seed)
        if args.command == "curate":
            return cmd_curate(cfg)
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "label":
            return cmd_label(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.model)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (DegenerateLabels, InsufficientData, NoDocuments) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_LABELS
    except (SchemaMismatch, BadGazetteer, ModelNotFitted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline over newline-delimited record files.

Verbs: curate, extract, label, train, predict, evaluate, timeliness.
Every command is deterministic given the config seed and input files.
Exit codes: 0 ok, 2 missing input file (or one that is not a regular
file), 3 degenerate labels or too few examples, 4 model/file schema
mismatch (including a bad gazetteer, a model without weights or an output
name that is a directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from .curation import build_trbc_centroids, curate
from .errors import DegenerateLabels, SchemaMismatch
from .geo import load_gazetteer
from .labeling import label_corpus, undersample
from .linear import LinearModel
from .model import (
    POSITIVE_CLASS,
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
    _field,
    _id,
    _is_utf8,
    _timestamp,
    read_ndjson,
    write_ndjson,
)

T = TypeVar("T")

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
    """Seed, thresholds and SVM settings, and file paths. The field defaults
    are the published operating points and the only default values of the
    pipeline: no library function has one of its own."""

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

    def input_path(self, key: str, name: str) -> Path:
        """paths.<key> if the config names it, else out_dir/<name>."""
        return self.path(key) if key in self.paths else self.out_path(name)

    def out_path(self, name: str) -> Path:
        out_dir = Path(self.paths.get("out_dir", "."))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise SchemaMismatch(f"out_dir {str(out_dir)!r} is not a directory") from None
        except (OSError, ValueError) as exc:  # a NUL byte, a lone surrogate, too long a name
            raise SchemaMismatch(f"out_dir {str(out_dir)!r} cannot be created: {exc}") from None
        return out_dir / name


def _finite_number(text: str) -> float:
    """JSON float hook: NaN, Infinity and overflowing literals are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise SchemaMismatch(f"config number {text} is not finite")
    return value


# (PipelineConfig field, config section or None for the top level, key)
CONFIG_KEYS = (
    ("seed", None, "seed"),
    ("match_threshold", "thresholds", "match"),
    ("link_threshold", "thresholds", "link"),
    ("same_user_link_threshold", "thresholds", "same_user_link"),
    ("local_focus_threshold", "thresholds", "local_focus"),
    ("follower_cap", "thresholds", "follower_cap"),
    ("undersample_ratio", "thresholds", "undersample_ratio"),
    ("svm_epochs", "svm", "epochs"),
    ("svm_c", "svm", "C"),
    ("folds", "svm", "folds"),
)


def load_config(path: str | Path, seed_override: int | None = None) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise SchemaMismatch(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaMismatch("config must be a JSON object")
    for key in ("thresholds", "svm", "paths"):
        if not isinstance(raw.get(key, {}), dict):
            raise SchemaMismatch(f"config {key!r} must be a JSON object")
    cfg = PipelineConfig()
    try:  # checked as record fields are, then given the type of the field's default
        for name, section, key in CONFIG_KEYS:
            values = raw.get(section, {}) if section else raw
            if key in values:
                kind = type(getattr(cfg, name))
                value = _field(values, key, "an integer" if kind is int else "a number")
                setattr(cfg, name, kind(value))
        paths = raw.get("paths", {})
        cfg.paths = {key: _field(paths, key, "a string") for key in paths}
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past float range
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
    # os.path, unlike Path, says False for a name too long to look up.
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{path} (not a regular file)" if os.path.exists(path) else str(path))
    return path


# The characters str.splitlines() ends a line at, escaped as repr() does.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def _report(kind: str, message: object) -> None:
    """One stderr line: a line break in a path or value cannot start another."""
    print(f"{kind}: {str(message).translate(_LINE_BREAKS)}", file=sys.stderr)


def _read(path: Path, parse: Callable[[dict], T], name: str | None = None) -> list[T]:
    """The records of one required input; each record parse rejects is
    skipped with a warning under name (default: the file name)."""
    records, errors = read_ndjson(_require(path), parse)
    for lineno, message in errors:
        _report("warning", f"{name or path.name} line {lineno}: {message} (record skipped)")
    return records


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_curate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    gaz = load_gazetteer(_require(cfg.path("gazetteer")))
    profiles = _read(cfg.path("profiles"), SourceProfile.from_record, "profiles")
    tweets = _read(cfg.path("tweets"), Post.from_record)
    assignments = _read(cfg.path("assignments"), TopicAssignment.from_record, "assignments")
    headlines = _read(cfg.path("headlines"), Headline.from_record)

    tweets_by_user: dict[str, list[Post]] = {}
    for post in tweets:
        tweets_by_user.setdefault(post.user_id, []).append(post)

    tfidf, centroids = build_trbc_centroids(headlines, seed=cfg.seed)
    curated, stages, skipped = curate(
        profiles,
        tweets_by_user,
        assignments,
        gaz,
        centroids,
        tfidf,
        seed=cfg.seed,
        follower_cap=cfg.follower_cap,
        local_focus_threshold=cfg.local_focus_threshold,
    )
    for message in skipped:
        _report("warning", message)
    out = cfg.out_path("curated.ndjson")
    write_ndjson(out, (p.to_record() for p in curated))
    for stage, count in stages.items():
        print(f"{stage}: {count}")
    print(f"wrote {out}")
    return EXIT_OK


def _load_context(cfg: PipelineConfig):
    gaz = load_gazetteer(_require(cfg.path("gazetteer")))
    headlines = _read(cfg.path("headlines"), Headline.from_record)
    tfidf, centroids = build_trbc_centroids(headlines, seed=cfg.seed)
    background = None
    if "background" in cfg.paths:  # optional, but a named one must exist
        tagged = _read(cfg.path("background"), TaggedPost.from_record, "background")
        if tagged:
            start = min(p.created_at for p in tagged)
            end = max(p.created_at for p in tagged) + 1
            background = build_background(tagged, (start, end))
    return build_context(gaz, tfidf, centroids, background=background, seed=cfg.seed)


def _load_sources(cfg: PipelineConfig) -> dict[str, SourceProfile]:
    path = cfg.input_path("curated", "curated.ndjson")
    if "curated" not in cfg.paths and not os.path.exists(path):
        return {}  # no curate run: posts carry no source profile
    return {p.user_id: p for p in _read(path, SourceProfile.from_record, "curated")}


def cmd_extract(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    posts = _read(cfg.path("posts"), Post.from_record)
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


def cmd_label(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    posts = _read(cfg.path("posts"), Post.from_record)
    headlines = _read(cfg.path("headlines"), Headline.from_record)
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
    with open(_require(path), encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if not _is_utf8(line):
                raise SchemaMismatch(f"features line {lineno}: invalid UTF-8")
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
    """Labeled posts with their features, by post id, the unmatched ones
    undersampled to the configured ratio."""
    labeled_path = _require(cfg.input_path("labeled", "labeled.ndjson"))
    features = _read_features(cfg.input_path("features", "features.tsv"))

    def parse(rec: dict) -> LabeledExample:
        post_id = _id(rec, "post_id")
        return LabeledExample(
            post_id=post_id,
            features=features.get(post_id, {}),
            label=_field(rec, "status", "a string") == "matched",
        )

    examples = sorted(_read(labeled_path, parse, "labeled"), key=lambda e: e.post_id)
    return undersample(examples, ratio=cfg.undersample_ratio, seed=cfg.seed)


def cmd_train(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    examples = _load_examples(cfg)
    report = cross_validate(
        examples, folds=cfg.folds, seed=cfg.seed, epochs=cfg.svm_epochs, C=cfg.svm_c
    )
    model = train_svm(examples, epochs=cfg.svm_epochs, C=cfg.svm_c, seed=cfg.seed)
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


def cmd_predict(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    path = Path(args.model) if args.model else cfg.out_path("model.json")
    model = LinearModel.load(_require(path), expect_kind="svm")
    if POSITIVE_CLASS not in model.classes:
        raise SchemaMismatch(f"model has no {POSITIVE_CLASS!r} class")
    features = _read_features(cfg.input_path("features", "features.tsv"))
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


def cmd_evaluate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    results = ablate(
        _load_examples(cfg), ABLATION_SETS,
        folds=cfg.folds, seed=cfg.seed, epochs=cfg.svm_epochs, C=cfg.svm_c,
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


def _event(time_key: str) -> Callable[[dict], tuple[str, int]]:
    """Parser of one timeliness row: (event_id, time_key's timestamp)."""

    def parse(rec: dict) -> tuple[str, int]:
        return _id(rec, "event_id"), _timestamp(rec[time_key])

    return parse


def cmd_timeliness(feed_path: str, wire_path: str, out_path: str | None = None) -> int:
    feed = dict(_read(Path(feed_path), _event("first_tweet_at"), "feed"))
    wire = dict(_read(Path(wire_path), _event("wire_alert_at"), "wire"))
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
        try:
            write_ndjson(out_path, rows)
        except IsADirectoryError:
            raise  # reported by main, as for every verb
        except (OSError, ValueError) as exc:  # a NUL byte, too long a name
            raise SchemaMismatch(f"output {out_path!r} cannot be written: {exc}") from None
        print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# Each verb that reads --config: its help line and its command.
VERBS = {
    "curate": ("build the curated source list", cmd_curate),
    "extract": ("assemble feature vectors for posts", cmd_extract),
    "label": ("noisy-label posts against wire headlines", cmd_label),
    "train": ("cross-validate and train the news-value SVM", cmd_train),
    "evaluate": ("run feature-group ablations", cmd_evaluate),
    "predict": ("score posts with a trained model", cmd_predict),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsvalue",
        description="Predict which locally reported disasters will reach global news.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config JSON")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")

    for verb, (help_text, command) in VERBS.items():
        sub.add_parser(verb, parents=[common], help=help_text).set_defaults(command=command)
    sub.choices["predict"].add_argument(
        "--model", default=None, help="model file (default: out_dir/model.json)"
    )

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
        if args.verb == "timeliness":
            return cmd_timeliness(args.feed, args.wire, args.out)
        return args.command(load_config(_require(Path(args.config)), args.seed), args)
    except FileNotFoundError as exc:
        _report("error", f"missing input file: {exc}")
        return EXIT_MISSING_INPUT
    except DegenerateLabels as exc:
        _report("error", exc)
        return EXIT_DEGENERATE_LABELS
    except (SchemaMismatch, IsADirectoryError) as exc:
        # inputs are regular files, so a directory stands where an output goes
        directory = isinstance(exc, IsADirectoryError)
        _report("error", f"output {exc.filename} is a directory" if directory else exc)
        return EXIT_SCHEMA_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

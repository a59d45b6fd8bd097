"""Command-line pipeline over newline-delimited record files.

Verbs: curate, extract, label, train, predict, evaluate, timeliness.
Every command is deterministic given the config seed and input files.
Exit codes: 0 ok, 2 missing input file (or one that is not a regular
file), 3 degenerate labels or too few examples, 4 model/file schema
mismatch (including a bad gazetteer, a model without weights or an output
name that is a directory), 141 standard output closed before the report
was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, TypeVar

from . import __version__
from .curation import build_trbc_centroids, curate
from .errors import DegenerateLabels, SchemaMismatch
from .geo import load_gazetteer
from .labeling import label_corpus, undersample
from .linear import BIAS_KEY, LinearModel
from .model import (
    COUNTS,
    POSITIVE_CLASS,
    ablate,
    assemble_features,
    build_context,
    cross_validate,
    feature_group_weights,
    prf,
    svm_design,
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command a closed pipe stops

ABLATION_SETS = (
    ("text", "topic"),
    ("text", "topic", "scope", "impact"),
    ("text", "topic", "rarity", "location"),
    ("text", "topic", "scope", "impact", "rarity", "location"),
)


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

    def __init__(self):
        self.paths: dict[str, str] = {}

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


def _read(
    path: Path, parse: Callable[[dict], T], name: str | None = None, key: str | None = None
) -> list[T]:
    """The records of one required input; each record parse rejects is
    skipped with a warning under name (default: the file name), and so is
    each record whose id under key an earlier record holds."""
    ids: set[str] = set()

    def parse_first(rec: dict) -> T:
        item = parse(rec)
        ident = _id(rec, key)
        if ident in ids:
            raise ValueError(f"duplicate {key} {ident!r}")
        ids.add(ident)
        return item

    records, errors = read_ndjson(_require(path), parse if key is None else parse_first)
    for lineno, message in errors:
        _report("warning", f"{name or path.name} line {lineno}: {message} (record skipped)")
    return records


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_curate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    gaz = load_gazetteer(_require(cfg.path("gazetteer")))
    profiles = _read(cfg.path("profiles"), SourceProfile.from_record, "profiles", "user_id")
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
    return {p.user_id: p for p in _read(path, SourceProfile.from_record, "curated", "user_id")}


def cmd_extract(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    posts = _read(cfg.path("posts"), Post.from_record, key="post_id")
    ctx = _load_context(cfg)
    sources = _load_sources(cfg)
    out = cfg.out_path("features.tsv")
    written = rows = 0
    with open(out, "w", encoding="utf-8") as fh:
        for post in sorted(posts, key=lambda p: p.post_id):
            if any(c in post.post_id for c in "\t\r\n"):  # would split its features.tsv line
                _report("warning", f"post {post.post_id!r}: tab or line break in its id (skipped)")
                continue
            features = assemble_features(post, sources.get(post.user_id), ctx)
            for name in sorted(features):
                fh.write(f"{post.post_id}\t{name}\t{features[name]!r}\n")
            rows += len(features)
            written += 1
    print(f"extracted features for {written} posts ({rows} rows)")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_label(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    posts = _read(cfg.path("posts"), Post.from_record, key="post_id")
    headlines = _read(cfg.path("headlines"), Headline.from_record)
    results, stats = label_corpus(
        posts,
        headlines,
        threshold=cfg.match_threshold,
        link_threshold=cfg.link_threshold,
        same_user_threshold=cfg.same_user_link_threshold,
    )
    records = []
    for post, r in sorted(zip(posts, results), key=lambda pr: pr[1].post_id):
        rec = post.to_record()
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
    print(
        f"matched: {stats['matched']} (direct {stats['matched_direct']}, "
        f"via link {stats['via_link']})"
    )
    print(f"tardy: {stats['tardy']}")
    print(f"unmatched: {stats['unmatched']}")
    print(f"wrote {out}")
    if stats["matched"] == 0:
        print("error: no matched posts after propagation", file=sys.stderr)
        return EXIT_DEGENERATE_LABELS
    return EXIT_OK


def _read_features(path: Path) -> dict[str, dict[str, float]]:
    with open(_require(path), encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()  # universal newlines: \r and \r\n end a line as \n does
    ascii_only = text.isascii()  # else each line is checked for undecodable bytes
    lines = text.split("\n")
    features: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if not ascii_only and not _is_utf8(line):
            raise SchemaMismatch(f"features line {lineno}: invalid UTF-8")
        try:
            post_id, name, value = line.split("\t")
        except ValueError:
            raise SchemaMismatch(f"features line {lineno}: expected 3 columns") from None
        if name == BIAS_KEY:
            raise SchemaMismatch(f"features line {lineno}: reserved feature name {name!r}")
        try:
            number = float(value)
        except ValueError:
            raise SchemaMismatch(f"features line {lineno}: bad value {value!r}") from None
        if not math.isfinite(number):
            raise SchemaMismatch(f"features line {lineno}: non-finite value {value!r}")
        row = features.get(post_id)
        if row is None:
            row = features[post_id] = {}
        elif name in row:
            # the first line is looked up only when a repeat is reported
            first = next(n for n, earlier in enumerate(lines, start=1)
                         if earlier.split("\t")[:2] == [post_id, name])
            raise SchemaMismatch(
                f"features line {lineno}: feature {name!r} of post {post_id!r} "
                f"repeats line {first}"
            )
        row[name] = number
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

    examples = sorted(_read(labeled_path, parse, "labeled", "post_id"), key=lambda e: e.post_id)
    return undersample(examples, ratio=cfg.undersample_ratio, seed=cfg.seed)


def _cv_inputs(cfg: PipelineConfig) -> dict[str, object]:
    """Everything train's cross-validation reads: a 256-bit BLAKE2b digest
    of each file _load_examples reads (its bytes, never its path), the
    settings that draw the examples, folds and fits, and the release."""
    import hashlib  # here, not at the top: it loads OpenSSL, and only train and evaluate hash

    def digest(key: str, name: str) -> str:
        # BLAKE2b is hashlib's own code, where sha256 would run OpenSSL's
        # and grow each process by its pages; read in blocks, not whole
        blake = hashlib.blake2b(digest_size=32)
        with open(cfg.input_path(key, name), "rb") as fh:
            while block := fh.read(1 << 16):
                blake.update(block)
        return blake.hexdigest()

    return {
        "features_blake2b": digest("features", "features.tsv"),
        "labeled_blake2b": digest("labeled", "labeled.ndjson"),
        "folds": cfg.folds,
        "seed": cfg.seed,
        "svm_epochs": cfg.svm_epochs,
        "svm_c": cfg.svm_c,
        "undersample_ratio": cfg.undersample_ratio,
        "version": __version__,
    }


def _train_counts(cfg: PipelineConfig) -> dict[str, int] | None:
    """The pooled tp/fp/fn/tn of the report.json that train wrote from
    _cv_inputs(cfg), or None: no such file, one that is not a UTF-8 JSON
    object, or one with other inputs or a count that is not a non-negative
    int."""
    # not out_path: a missing out_dir holds no report, and is not made here
    path = Path(cfg.paths.get("out_dir", "."), "report.json")
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):  # ValueError: bad JSON or UTF-8, a NUL byte
        return None
    if not isinstance(report, dict) or report.get("inputs") != _cv_inputs(cfg):
        return None
    counts = report.get("counts")
    if not isinstance(counts, dict):
        return None
    counts = {k: counts.get(k) for k in COUNTS}
    return counts if all(type(c) is int and c >= 0 for c in counts.values()) else None


def cmd_train(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    examples = _load_examples(cfg)
    inputs = _cv_inputs(cfg)
    rows, names = design = svm_design(examples)
    [(counts, folds)] = cross_validate(
        examples, [rows], names, folds=cfg.folds, seed=cfg.seed, epochs=cfg.svm_epochs,
        C=cfg.svm_c,
    )
    model = train_svm(design, epochs=cfg.svm_epochs, C=cfg.svm_c, seed=cfg.seed)
    model_path = cfg.out_path("model.json")
    model.save(model_path)
    p, r, f = prf(counts)
    report = {"precision": p, "recall": r, "f1": f, "folds": folds, "counts": counts,
              "group_weights": feature_group_weights(model), "inputs": inputs}
    report_path = cfg.out_path("report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
    print(f"cross-validation ({cfg.folds} resamples): P={p:.2f} R={r:.2f} F={f:.2f}")
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
    examples = _load_examples(cfg)
    # the all-families row is train's cross-validation when its report matches
    rows = [(groups, prf(counts)) for groups, counts in ablate(
        examples, ABLATION_SETS,
        folds=cfg.folds, seed=cfg.seed, epochs=cfg.svm_epochs, C=cfg.svm_c,
        full=_train_counts(cfg),
    )]
    out = cfg.out_path("ablation.json")
    payload = [{"groups": list(groups), "precision": p, "recall": r, "f1": f}
               for groups, (p, r, f) in rows]
    with open(out, "w", encoding="utf-8") as fh:  # one write, as in LinearModel.save
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    # every verb writes its artifacts before it prints, so a closed stdout cannot cut them
    print(f"{'feature set':<42} {'P':>7} {'R':>7} {'F':>7}")
    for groups, (p, r, f) in rows:
        print(f"{'+'.join(groups):<42} {p:7.2f} {r:7.2f} {f:7.2f}")
    print(f"wrote {out}")
    return EXIT_OK


def _event(time_key: str) -> Callable[[dict], tuple[str, int]]:
    """Parser of one timeliness row: (event_id, time_key's timestamp)."""

    def parse(rec: dict) -> tuple[str, int]:
        return _id(rec, "event_id"), _timestamp(rec[time_key])

    return parse


def cmd_timeliness(feed_path: str, wire_path: str, out_path: str | None = None) -> int:
    feed = dict(_read(Path(feed_path), _event("first_tweet_at"), "feed", "event_id"))
    wire = dict(_read(Path(wire_path), _event("wire_alert_at"), "wire", "event_id"))
    shared = sorted(set(feed) & set(wire))
    skipped = sorted((set(feed) | set(wire)) - set(shared))
    rows = [
        {"event_id": event_id, "first_tweet_at": feed[event_id],
         "wire_alert_at": wire[event_id], "lead_minutes": (wire[event_id] - feed[event_id]) / 60.0}
        for event_id in shared
    ]
    if out_path:
        try:
            write_ndjson(out_path, rows)
        except IsADirectoryError:
            raise  # reported by main, as for every verb
        except (OSError, ValueError) as exc:  # a NUL byte, too long a name
            raise SchemaMismatch(f"output {out_path!r} cannot be written: {exc}") from None
    for r in rows:
        print(f"{r['event_id']}: lead {r['lead_minutes']:+.1f} min")
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
        code = _run(args)
        sys.stdout.flush()  # here, not at exit, so that a closed pipe is caught
    except BrokenPipeError:
        # the exit flush writes what is left to devnull (Python signal docs, SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(args: argparse.Namespace) -> int:
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

"""Output checks and artifact digests for one pass of the verb chain.

A verb fails when it exits non-zero, raises (prints a traceback), breaks an
output check below, or writes an artifact whose sha256 differs from the
first pass recorded for the same code, workload, seed and scale.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

# Artifacts each verb writes under out_dir, verbs in the order they run.
ARTIFACTS = {
    "curate": ("curated.ndjson",),
    "label": ("labeled.ndjson",),
    "extract": ("features.tsv",),
    "train": ("model.json", "report.json"),
    "predict": ("predictions.ndjson",),
    "evaluate": ("ablation.json",),
}
VERBS = tuple(ARTIFACTS)

_LABEL_SUMMARY = {
    "matched": re.compile(r"^matched: (\d+) \(direct \d+, via link \d+\)$", re.M),
    "tardy": re.compile(r"^tardy: (\d+)$", re.M),
    "unmatched": re.compile(r"^unmatched: (\d+)$", re.M),
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact that exists, keyed by file name."""
    return {
        name: sha256_file(out_dir / name)
        for names in ARTIFACTS.values()
        for name in names
        if (out_dir / name).is_file()
    }


def _ndjson(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_curated(out_dir: Path, post_ids: set[str], label_stdout: str) -> list[str]:
    rows = _ndjson(out_dir / "curated.ndjson")
    if any("user_id" not in r or "category" not in r for r in rows):
        return ["curated.ndjson: row without user_id or category"]
    return []


def _check_labeled(out_dir: Path, post_ids: set[str], label_stdout: str) -> list[str]:
    rows = _ndjson(out_dir / "labeled.ndjson")
    problems = []
    ids = [str(r.get("post_id")) for r in rows]
    if len(ids) != len(post_ids) or set(ids) != post_ids:
        problems.append(f"labeled.ndjson: {len(ids)} rows for {len(post_ids)} posts")
    for status, pattern in _LABEL_SUMMARY.items():
        m = pattern.search(label_stdout)
        counted = sum(1 for r in rows if r.get("status") == status)
        if m is None or int(m.group(1)) != counted:
            problems.append(f"labeled.ndjson: {counted} {status} rows, summary says "
                            f"{m.group(1) if m else 'nothing'}")
    return problems


def _featured_ids(out_dir: Path) -> tuple[set[str], list[str]]:
    ids: set[str] = set()
    problems = []
    with open(out_dir / "features.tsv", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                problems.append(f"features.tsv line {lineno}: {len(parts)} columns")
                continue
            try:
                finite = math.isfinite(float(parts[2]))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"features.tsv line {lineno}: value {parts[2]!r} is not finite")
            ids.add(parts[0])
    return ids, problems[:5]


def _check_features(out_dir: Path, post_ids: set[str], label_stdout: str) -> list[str]:
    return _featured_ids(out_dir)[1]


def _prf_ok(row: dict) -> bool:
    values = [row.get(k) for k in ("precision", "recall", "f1")]
    return all(isinstance(v, (int, float)) and 0.0 <= v <= 100.0 for v in values)


def _check_train(out_dir: Path, post_ids: set[str], label_stdout: str) -> list[str]:
    with open(out_dir / "model.json", encoding="utf-8") as fh:
        json.load(fh)
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    return [] if _prf_ok(report) else ["report.json: P/R/F outside [0, 100]"]


def _check_predictions(out_dir: Path, post_ids: set[str], label_stdout: str) -> list[str]:
    featured, _ = _featured_ids(out_dir)
    ids = [str(r.get("post_id")) for r in _ndjson(out_dir / "predictions.ndjson")]
    if len(ids) != len(featured) or set(ids) != featured:
        return [f"predictions.ndjson: {len(ids)} rows for {len(featured)} featured posts"]
    return []


def _check_ablation(out_dir: Path, post_ids: set[str], label_stdout: str) -> list[str]:
    with open(out_dir / "ablation.json", encoding="utf-8") as fh:
        rows = json.load(fh)
    if not isinstance(rows, list) or not rows or not all(_prf_ok(r) for r in rows):
        return ["ablation.json: missing rows or P/R/F outside [0, 100]"]
    return []


_CHECKS = {
    "curate": _check_curated,
    "label": _check_labeled,
    "extract": _check_features,
    "train": _check_train,
    "predict": _check_predictions,
    "evaluate": _check_ablation,
}


def check_outputs(out_dir: Path, post_ids: set[str], label_stdout: str) -> dict[str, list[str]]:
    """Problems found in each verb's artifacts; an empty list means it passed."""
    problems: dict[str, list[str]] = {}
    for verb, check in _CHECKS.items():
        try:
            problems[verb] = check(out_dir, post_ids, label_stdout)
        except (OSError, ValueError, TypeError, AttributeError) as exc:
            problems[verb] = [f"{verb}: unreadable artifact: {exc}"]
    return problems


def judge(
    outcomes: dict[str, dict],
    problems: dict[str, list[str]],
    found: dict[str, str],
    reference: dict[str, str],
) -> dict[str, list[str]]:
    """Reasons each verb failed (empty list: it passed).

    outcomes maps verb -> {"rc": exit code, "error": traceback text or ""};
    found and reference map artifact name -> sha256.
    """
    reasons: dict[str, list[str]] = {}
    for verb in VERBS:
        out = outcomes.get(verb)
        why: list[str] = []
        if out is None:
            why.append("not run")
        else:
            if out["rc"] != 0:
                why.append(f"exit code {out['rc']}")
            if out["error"]:
                why.append("traceback: " + out["error"].strip().splitlines()[-1])
            why.extend(problems.get(verb, []))
            for name in ARTIFACTS[verb]:
                if name in reference and found.get(name) != reference[name]:
                    why.append(f"{name}: digest differs from the first run")
        reasons[verb] = why
    return reasons

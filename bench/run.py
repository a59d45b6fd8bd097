"""Benchmark of the newsvalue batch pipeline, end to end and by layer.

    python3 bench/run.py --workload feed-rich --seed 1 --seconds 40 --trace 0

Reads and writes only inside the checkout that holds this file (corpora,
outputs, digests and spans go to .bench_work/). The program is used
straight from src/, so there is nothing to build.

--trace 0 prints the end-to-end metrics: the median set-up time of fresh
interpreters, and the median per-verb times (and their sum, the chain's
time) of one child process that runs the verb chain pass after pass for
--seconds, each verb run in a fork of its own, checking every pass.
--trace 1 runs traced passes at 1x and 0.5x corpus size interleaved with
untraced 1x passes and prints the per-layer metrics.
Everything runs on one CPU. Times are wall seconds adjusted for that
CPU's speed drift by the reference loop in reference.py; the raw wall
medians are printed beside them. The last line of standard output is the
result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402

TIMED_VERBS = tuple(v for v in check.VERBS if v != "predict")  # predict is too short to time alone
SETUP_SAMPLES = 9  # four before the chain, the rest after
CHILD_TIMEOUT = 170

END_TO_END = (
    [("setup_s", "s"), ("pipeline_s", "s")]
    + [(f"{v}_s", "s") for v in TIMED_VERBS]
    + [("peak_rss_mb", "MB"), ("cv_f1", "%")]
)

# Layer metrics with a timed total: each gets .s, .self_s and .growth.
TIMED_LAYERS = (
    "labeling.mask_taxonomy_tokens", "labeling.match_to_headlines",
    "labeling.propagate_links", "labeling.label_corpus",
    "textvec.fit_tfidf", "scope.extract_scope", "spans.phrase_spans",
    "impact.extract_numeric_phrases", "impact.classify_impact",
    "impact.bootstrap_impact_model", "geo.tag_locations",
    "rarity.build_background", "rarity.rarity",
    "curation.build_trbc_centroids", "curation.local_focus_ratio",
    "curation.classify_account", "linear.train_binary_hinge",
    "model.assemble_features", "model.cross_validate", "model.restrict_features",
    "model.svm_score", "records.read_ndjson", "records.write_ndjson",
)

PER_LAYER = (
    [(f"{n}.{k}", u) for n in TIMED_LAYERS for k, u in (("s", "s"), ("self_s", "s"), ("growth", "x"))]
    + [
        ("textvec.cosine.calls", "count"), ("textvec.cosine.useful_frac", "ratio"),
        ("textvec.tokenize.calls_per_post", "count/post"), ("textvec.vectorize.calls", "count"),
        ("scope.scope_pattern_spans.calls_per_post", "count/post"),
        ("spans.phrase_spans.calls", "count"), ("impact.classify_impact.calls", "count"),
        ("geo.tag_locations.calls", "count"), ("geo.geocode.calls", "count"),
        ("linear.train_binary_hinge.calls", "count"), ("linear.sgd_steps_per_s", "1/s"),
        ("linear.LinearModel.decision.calls", "count"),
        ("model.assemble_features.p50_ms", "ms"), ("model.assemble_features.p99_ms", "ms"),
        ("model.assemble_features.samples", "count"), ("records.read_ndjson.records", "count"),
        ("cli.glue.s", "s"), ("cli.glue.growth", "x"), ("cli.predict.s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _tree_digest(top: Path, pattern: str) -> str:
    """sha256 over the names and bytes of the files under top."""
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob(pattern) if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU, the
    highest-numbered one it may use. The CPUs of a shared machine change
    speed each on its own; a verb run and the reference-loop runs that set
    its speed must run on the same CPU, or the adjustment adds noise."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(*args: str) -> str:
    """Run child.py with args in a session of its own and return its
    standard output; on a time-out the whole session (the child and the
    verb processes it forks) is killed and waited for."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args], env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{err}")
    return out


def _setup_sample(corpus: Path) -> tuple[float, float]:
    """(adjusted, wall) seconds of one fresh-interpreter set-up."""
    before, wall, after = json.loads(_child("setup", str(corpus)).strip().splitlines()[-1])
    return reference.adjust(wall, [before, after]), wall


def _chain(request: dict, work: Path) -> dict:
    request_path = work / "request.json"
    request_path.write_text(json.dumps(request, indent=1) + "\n")
    _child("chain", str(request_path))
    return json.loads(Path(request["result"]).read_text())


def _corpus(workload: str, seed: int, scale: float, work: Path, code: str) -> dict:
    """Generate one corpus; its digest key names the code and the input bytes."""
    directory = work / f"{workload}-s{seed}-x{scale}"
    shutil.rmtree(directory, ignore_errors=True)
    gazetteer = ROOT / "src" / "newsvalue" / "data" / "world_cities.txt"
    gen.generate(workload, seed, scale, directory, gazetteer)
    with open(directory / "posts.ndjson", encoding="utf-8") as fh:
        posts = sum(1 for line in fh if line.strip())
    inputs = _tree_digest(directory, "*.*")
    return {"dir": str(directory), "scale": scale, "posts": posts,
            "key": f"{code}:{workload}:{inputs}"}


def _tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Verb runs attempted (a verb a pass never reached counts once),
    verbs failed, and why."""
    attempted = failed = 0
    reasons = []
    for p in passes:
        ran = [verb for verb, _ in p["runs"]]
        attempted += len(ran) + len(set(check.VERBS) - set(ran))
        failed += len(p["failed"])
        for verb, why in sorted(p["failed"].items()):
            reasons.append(f"{verb}: {'; '.join(why)}")
    return attempted, failed, reasons


def _per_verb(p: dict, adjusted: bool = True) -> dict[str, list[float]]:
    """Seconds of every run of each verb in one pass; adjusted, each run
    by the reference-loop run just before it and the one just after it."""
    refs = p["refs"]  # refs[i] ran just before run i, refs[i + 1] just after
    out: dict[str, list[float]] = {}
    for i, (verb, wall) in enumerate(p["runs"]):
        out.setdefault(verb, []).append(reference.adjust(wall, refs[i : i + 2]) if adjusted else wall)
    return out


def _merge(passes: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    """All runs of each verb over several passes."""
    out: dict[str, list[float]] = {}
    for per_verb in passes:
        for verb, runs in per_verb.items():
            out.setdefault(verb, []).extend(runs)
    return out


def _chain_s(per_verb: dict[str, list[float]]) -> float:
    """Seconds of one run of the whole chain: the sum of each verb's median."""
    return sum(statistics.median(runs) for runs in per_verb.values())


def _factor(p: dict) -> float:
    """Adjustment for a whole pass, from its median reference-loop time."""
    return reference.factor([statistics.median(p["refs"])])


def end_to_end(result: dict, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """End-to-end metric values plus one line per metric to print."""
    passes = result["passes"]
    adjusted = _merge([_per_verb(p) for p in passes])
    walls = _merge([_per_verb(p, adjusted=False) for p in passes])
    values, lines = {}, []
    values["setup_s"] = statistics.median(a for a, _ in setup)
    lines.append(f"setup_s: {values['setup_s']:.6g} s (median of {len(setup)}; "
                 f"wall median {statistics.median(w for _, w in setup):.6g} s)")
    values["pipeline_s"] = _chain_s(adjusted)
    lines.append(f"pipeline_s: {values['pipeline_s']:.6g} s (sum of the verbs' medians; "
                 f"wall {_chain_s(walls):.6g} s)")
    for verb in TIMED_VERBS:  # a verb after a failed one may never have run
        name, runs = f"{verb}_s", adjusted.get(verb, [])
        values[name] = statistics.median(runs) if runs else 0.0
        wall = statistics.median(walls[verb]) if runs else 0.0
        lines.append(f"{name}: {values[name]:.6g} s (median of {len(runs)}; wall median {wall:.6g} s)")
    values["peak_rss_mb"] = result["peak_rss_mb"]
    lines.append(f"peak_rss_mb: {values['peak_rss_mb']:.6g} MB")
    f1 = [p["cv_f1"] for p in passes if p["cv_f1"] is not None]
    values["cv_f1"] = f1[-1] if f1 else 0.0
    lines.append(f"cv_f1: {values['cv_f1']:.6g} % (pooled F1 from report.json)")
    return values, lines


def per_layer(result: dict, posts: int) -> tuple[dict, list[str], bool]:
    """Per-layer values from the traced passes, lines to print, and whether
    call counts repeated exactly across traced passes of the 1x corpus."""
    passes = result["passes"]
    full = [p for p in passes if p["traced"] and p["scale"] == 1.0]
    half = [p for p in passes if p["traced"] and p["scale"] != 1.0]
    plain = [p for p in passes if not p["traced"]]
    first = full[0]["layers"]
    counts_repeat = all(
        {n: v[0] for n, v in p["layers"].items()} == {n: v[0] for n, v in first.items()}
        for p in full
    )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def timed(group: list[dict], name: str, field: int) -> float:
        """Median over passes of an adjusted layer time (field 1 total, 2 self)."""
        return statistics.median(p["layers"].get(name, [0, 0.0, 0.0, 0])[field] * _factor(p)
                                 for p in group)

    def glue(group: list[dict]) -> float:
        return statistics.median(
            _factor(p) * sum(v[2] for n, v in p["layers"].items() if n.startswith("cli."))
            for p in group
        )

    def calls(name: str) -> int:
        return first.get(name, [0])[0]

    def units(name: str) -> int:
        return first.get(name, [0, 0.0, 0.0, 0])[3]

    values: dict[str, float] = {}
    for name in TIMED_LAYERS:
        values[f"{name}.s"] = timed(full, name, 1)
        values[f"{name}.self_s"] = timed(full, name, 2)
        values[f"{name}.growth"] = ratio(values[f"{name}.s"], timed(half, name, 1))
    values["textvec.cosine.calls"] = calls("textvec.cosine")
    values["textvec.cosine.useful_frac"] = ratio(units("textvec.cosine"), calls("textvec.cosine"))
    values["textvec.tokenize.calls_per_post"] = ratio(calls("textvec.tokenize"), posts)
    values["textvec.vectorize.calls"] = calls("textvec.vectorize")
    values["scope.scope_pattern_spans.calls_per_post"] = ratio(calls("scope.scope_pattern_spans"), posts)
    for name in ("spans.phrase_spans", "impact.classify_impact", "geo.tag_locations",
                 "geo.geocode", "linear.train_binary_hinge", "linear.LinearModel.decision"):
        values[f"{name}.calls"] = calls(name)
    values["linear.sgd_steps_per_s"] = ratio(units("linear.train_binary_hinge"),
                                             values["linear.train_binary_hinge.s"])
    assemble = sorted(d * 1000.0 * _factor(p) for p in full for d in p["assemble_s"])
    values["model.assemble_features.p50_ms"] = statistics.median(assemble)
    values["model.assemble_features.p99_ms"] = statistics.quantiles(assemble, n=100)[98]
    values["model.assemble_features.samples"] = len(assemble)
    values["records.read_ndjson.records"] = units("records.read_ndjson")
    values["cli.glue.s"] = glue(full)
    values["cli.glue.growth"] = ratio(values["cli.glue.s"], glue(half))
    values["cli.predict.s"] = statistics.median(x for p in plain for x in _per_verb(p).get("predict", [0.0]))
    traced_s = statistics.median(_chain_s(_per_verb(p)) for p in full)
    plain_s = statistics.median(_chain_s(_per_verb(p)) for p in plain)
    values["trace.overhead_s"] = traced_s - plain_s

    lines = [
        f"traced passes: {len(full)} at 1x, {len(half)} at 0.5x; untraced: {len(plain)}",
        f"pipeline_s untraced {plain_s:.4f} s, traced {traced_s:.4f} s",
        "calls by verb (train_binary_hinge, scope_pattern_spans, cosine, tag_locations):",
    ]
    for verb in check.VERBS:
        per = full[0]["by_verb_calls"].get(verb, {})
        lines.append(f"  {verb}: " + ", ".join(str(per.get(n, 0)) for n in (
            "linear.train_binary_hinge", "scope.scope_pattern_spans", "textvec.cosine",
            "geo.tag_locations")))
    if not counts_repeat:
        lines.append("error: call counts differ between traced passes of the same corpus")
    return values, lines, counts_repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "newsvalue" / "cli.py").is_file():
        print(f"error: no newsvalue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    code = _tree_digest(ROOT / "src" / "newsvalue", "*")
    scales = (1.0, 0.5) if args.trace else (1.0,)
    corpora = [_corpus(args.workload, args.seed, s, work, code) for s in scales]
    request = {
        "corpora": corpora,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "min_cycles": 1 if args.trace else 3,
        "repeat": TIMED_VERBS,
        "digests": str(work / "digests.json"),
        "result": str(work / f"result-{args.workload}.json"),
        "spans": str(work / f"spans-{args.workload}.ndjson"),
    }

    if args.trace:
        result = _chain(request, work)
        values, lines, correct = per_layer(result, corpora[0]["posts"])
        units = dict(PER_LAYER)
    else:
        corpus = Path(corpora[0]["dir"])
        _setup_sample(corpus)  # warm-up: byte-compiles the package
        setup = [_setup_sample(corpus) for _ in range(SETUP_SAMPLES // 2)]
        result = _chain(request, work)
        setup += [_setup_sample(corpus) for _ in range(SETUP_SAMPLES - len(setup))]
        values, lines = end_to_end(result, setup)
        units = dict(END_TO_END)
        correct = True
    for line in lines:
        print(line)

    attempted, failed, reasons = _tally(result["passes"])
    for line in reasons:
        print(f"failed {line}")
    print(f"ops_failed_frac: {failed / attempted:.6g} ({failed} of {attempted} verb runs)")
    correct = correct and failed == 0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

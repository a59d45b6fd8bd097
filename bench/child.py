"""Child process of the benchmark: one closed-loop client, one thread.

    python3 bench/child.py setup CORPUS_DIR
        Import newsvalue in this fresh interpreter, build the state every
        verb rebuilds from its inputs, print the seconds that took between
        the reference-loop CPU seconds measured before and after it.

    python3 bench/child.py chain REQUEST_JSON
        Run the verb chain (curate, label, extract, train, predict,
        evaluate) pass after pass, check every pass and write the result
        JSON the request names. Each verb runs in a fork of this process
        that ends with the verb, so nothing a verb builds or caches
        outlives it, as with a CLI invocation; this process waits for it
        and runs the reference loop before the first verb and after every
        verb run.

newsvalue must be importable (PYTHONPATH=src). Verbs run with the corpus
directory as working directory, because generated configs use paths
relative to it.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
import reference
from tracer import Stat, Tracer

# Untraced passes after the first repeat a timed verb (the request's
# "repeat") shorter than this, so that short verbs get as many timed
# seconds as long ones, each run in a fresh fork: the machine's speed
# drifts within a second, and one sample of a 0.1 s verb per pass is too
# few.
MIN_VERB_SECONDS = 1.0
MAX_REPEATS = 8


def setup(corpus: Path) -> tuple[float, float, float]:
    """Seconds to import newsvalue and build the shared feature state,
    bracketed by reference-loop seconds: (before, wall, after)."""
    reference.measure()  # warm-up
    before = reference.measure()
    start = time.perf_counter()
    from newsvalue.cli import load_config
    from newsvalue.curation import build_trbc_centroids
    from newsvalue.geo import load_gazetteer
    from newsvalue.model import build_context
    from newsvalue.rarity import TaggedPost, build_background
    from newsvalue.records import Headline, read_ndjson

    os.chdir(corpus)
    cfg = load_config("config.json")
    gazetteer = load_gazetteer(cfg.path("gazetteer"))
    headlines, _ = read_ndjson(cfg.path("headlines"), Headline.from_record)
    tfidf, centroids = build_trbc_centroids(headlines, seed=cfg.seed)
    tagged, _ = read_ndjson(cfg.path("background"), TaggedPost.from_record)
    window = (min(p.created_at for p in tagged), max(p.created_at for p in tagged) + 1)
    background = build_background(tagged, window)
    build_context(gazetteer, tfidf, centroids, background=background, seed=cfg.seed)
    wall = time.perf_counter() - start
    return before, wall, reference.measure()


def _run_verb(main, verb: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main([verb, "--config", "config.json"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the harness must keep running to report it
            rc = 1
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    if "Traceback (most recent call last)" in err.getvalue():
        error = error or err.getvalue()
    return {"rc": rc, "error": error, "stdout": out.getvalue(), "seconds": seconds}


def _traced_verb(main, verb: str) -> tuple[dict, dict, list]:
    with Tracer() as tracer:
        outcome = tracer.run_verb(verb, lambda: _run_verb(main, verb))
    return outcome, tracer.stats, tracer.spans


def _forked(call):
    """call() in a fork of this process that exits after it; the result
    comes back pickled through a pipe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(call(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"verb process {pid} ended with status {status}")
    return pickle.loads(data)


def _post_ids(corpus: Path) -> set[str]:
    with open(corpus / "posts.ndjson", encoding="utf-8") as fh:
        return {json.loads(line)["post_id"] for line in fh if line.strip()}


def _cv_f1(out_dir: Path) -> float | None:
    try:
        with open(out_dir / "report.json", encoding="utf-8") as fh:
            return float(json.load(fh)["f1"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _layer_record(by_verb: dict[str, dict[str, Stat]], spans: list) -> dict:
    """Per-name [calls, total s, self s, units] summed over verbs, calls by
    verb, and the per-post assemble_features durations of one traced pass."""
    totals: dict[str, Stat] = {}
    for stats in by_verb.values():
        for name, st in stats.items():
            totals.setdefault(name, Stat()).add(st)
    return {
        "layers": {n: [s.calls, s.total, s.self, s.units] for n, s in sorted(totals.items())},
        "by_verb_calls": {
            verb: {n: s.calls for n, s in sorted(per.items())}
            for verb, per in by_verb.items()
        },
        "assemble_s": [end - start for _, _, _, name, start, end in spans
                       if name == "model.assemble_features"],
    }


def run_pass(corpus: dict, traced: bool, store: dict, repeats: dict[str, int] | None = None) -> tuple[dict, list]:
    """One checked pass of the verb chain over one corpus, each run of a
    verb in its own fork; repeats[verb] runs of each verb (default 1).
    Returns the pass record and, if traced, its spans as
    (verb, id, parent id, name, start, end); ids are unique within a verb."""
    from newsvalue.cli import main

    root = Path(corpus["dir"])
    out_dir = root / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.chdir(root)
    outcomes: dict[str, dict] = {}
    runs = []
    by_verb: dict[str, dict[str, Stat]] = {}
    spans: list = []
    refs = [reference.measure()]
    schedule = [v for v in check.VERBS for _ in range((repeats or {}).get(v, 1))]
    for verb in schedule:
        if traced:
            outcome, by_verb[verb], verb_spans = _forked(lambda: _traced_verb(main, verb))
            spans += [(verb, *span) for span in verb_spans]
        else:
            outcome = _forked(lambda: _run_verb(main, verb))
        runs.append((verb, outcome["seconds"]))
        # The fork left this process's pages write-protected; the first
        # loop run after it takes those page faults and would read slow.
        reference.measure()
        refs.append(reference.measure())
        failed = outcome["rc"] != 0 or bool(outcome["error"])
        if failed or verb not in outcomes:
            outcomes[verb] = outcome
        if failed:
            break
    problems = check.check_outputs(out_dir, _post_ids(root), outcomes.get("label", {}).get("stdout", ""))
    found = check.digests(out_dir)
    expected = store.setdefault(corpus["key"], found)
    reasons = check.judge(outcomes, problems, found, expected)
    record = {
        "scale": corpus["scale"],
        "traced": traced,
        "runs": runs,
        "refs": refs,
        "failed": {v: why for v, why in reasons.items() if why},
        "cv_f1": _cv_f1(out_dir),
    }
    if traced:
        record.update(_layer_record(by_verb, spans))
    return record, spans


def _repeats(record: dict, verbs: list[str]) -> dict[str, int]:
    """Runs per pass of each of verbs, from its adjusted time in a first
    pass (so that the plan does not depend on the machine's speed then):
    enough to fill MIN_VERB_SECONDS, at most MAX_REPEATS."""
    refs = record["refs"]
    return {verb: max(1, min(MAX_REPEATS, round(MIN_VERB_SECONDS / reference.adjust(seconds, refs[i : i + 2]))))
            for i, (verb, seconds) in enumerate(record["runs"]) if verb in verbs}


def chain(request: dict) -> dict:
    """Passes until the time budget is spent; see run.py for the plan."""
    store_path = Path(request["digests"])
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    corpora = request["corpora"]
    passes = []
    last_spans: list = []
    repeats = None
    reference.measure()  # warm-up
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        if request["trace"]:
            plan = [(corpora[0], False), (corpora[0], True)] + [(c, True) for c in corpora[1:]]
        else:
            plan = [(corpora[0], False)]
        for corpus, traced in plan:
            record, spans = run_pass(corpus, traced, store, repeats)
            passes.append(record)
            if traced and corpus is corpora[0]:
                last_spans = spans
        if not request["trace"] and repeats is None:
            repeats = _repeats(passes[0], request["repeat"])
        cycles += 1
        elapsed = time.perf_counter() - start
        cycle = time.perf_counter() - cycle_start
        if cycles >= request["min_cycles"] and elapsed + cycle > request["seconds"]:
            break
    store_path.write_text(json.dumps(store, sort_keys=True, indent=1) + "\n")
    if last_spans:
        with open(request["spans"], "w", encoding="utf-8") as fh:
            for span in last_spans:
                fh.write(json.dumps(span) + "\n")
    # the largest of the verb processes, each a fork that ran one verb
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024.0, "seconds": time.perf_counter() - start}


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        print(json.dumps(setup(Path(argv[1]).resolve())))
        return 0
    if len(argv) == 2 and argv[0] == "chain":
        request = json.loads(Path(argv[1]).read_text())
        result = chain(request)
        Path(request["result"]).write_text(json.dumps(result) + "\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

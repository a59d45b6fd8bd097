"""Byte-identity check of the newsvalue pipeline between two source trees.

    python tools/identity.py --head SRC [--base SRC]

Each SRC is a tree's `src/` directory. Every case of CASES runs on each
tree: its verbs (or its program) run one by one as `python -S -m
newsvalue.cli VERB --config config.json` with PYTHONPATH=SRC, so neither
site-packages nor an installed copy is read, and each tree uses its own
gazetteer. The corpora are built once, by this checkout's
`bench/gen.py` (a `decorated` case's texts then get the DECORATIONS),
and only read.

The script prints one sha256 table per tree, over every artifact of
every case and every run's stdout, stderr and exit code, and fails

- when a verb chain or the bootstrap program exits non-zero or writes to
  stderr, on either tree;
- with --base, when the two trees' tables differ in a file that
  tools/expected-changes.txt does not list; or
- with --base, when a glob of that list matches no file that differs (a
  stale expectation).

Either way it names the case and the file, and keeps the run
directories. tools/expected-changes.txt names the files a change alters
on purpose: one `case/file` glob (fnmatch) per line, then the reason;
blank lines and '#' comments are skipped. A change that alters no
artifact leaves it empty. To compare a change with its parent commit:

    git worktree add --detach ../parent HEAD~1
    python tools/identity.py --base ../parent/src --head src
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
EXPECTED = REPO / "tools" / "expected-changes.txt"
CHAIN = ("curate", "label", "extract", "train", "predict", "evaluate")
WORKLOADS = ("feed-rich", "wire-dense", "model-fit")

# The bootstrap impact model that every extract fits, seeds 0-9: each
# class's weights, sorted by name, and bias, as repr.
BOOTSTRAP = """\
from newsvalue.impact import IMPACT_CLASSES, bootstrap_impact_model
for seed in range(10):
    model = bootstrap_impact_model(seed)
    for cls in IMPACT_CLASSES:
        print(seed, cls, repr(sorted(model.weights[cls].items())), repr(model.bias[cls]))
"""


# Fragments given in turn to the post, tweet and headline texts of a
# `decorated` corpus, in front of each text. Generated texts hold no URL,
# '@', '#' or non-ASCII character, so without them only the ASCII paths of
# the tokenizer and the place tagger would run: URLs in mixed case, a
# mention of a place name, characters that lower() lengthens (İ) or that
# case-insensitive patterns fold (ſ), fullwidth letters and digits, a
# two-word place name split by a mention (which names no place) or by a
# hashtag (which keeps its word), number words that the numeric-phrase
# gates see but no `\b`-anchored pattern matches (inside a URL, inside
# longer words), soft quantities spelled with ſ and a Kelvin sign K, the
# keywords that open a scope finder's gate without a digit inside longer
# words (`ems`, `bus`, `car`, `van`), a `WWW.` that starts no URL, and a
# text left as it is.
DECORATIONS = (
    "HTTPS://News.Example.COM/Quake?id=7", "via WWW.Example.ORG:", "@user says",
    "#Tag #BREAKING", "İstanbul İZMİR", "ſ httpſ://t.co/ſ", "Ｗ１２ ＦＩＲＥ", "@Paris",
    "New @York", "Times #Square", "https://t.co/three-dead", "someone often lifts weights",
    "ſeveral la\u212ah", "systems business scarce caravan", "WWW.", "",
)


@dataclass(frozen=True)
class Case:
    """One run directory. A chain case generates `corpus`, a (workload,
    seed, scale) of bench/gen.py, gives its texts the DECORATIONS when
    `decorated`, and runs `verbs` on it; a case with
    `start` runs `verbs` on a copy of that earlier case's config and out/,
    with `svm` set in the config; a case with `program` runs that Python
    source instead. A case without `start` is clean: a non-zero exit or
    any stderr output fails the check. A `start` case may be meant to
    fail, as a too large `svm.C` is."""

    name: str
    corpus: tuple[str, int, float] | None = None
    start: str | None = None
    svm: tuple[tuple[str, float], ...] = ()
    verbs: tuple[str, ...] = CHAIN
    program: str | None = None
    decorated: bool = False


def _chain(workload: str, seed: int, scale: float) -> str:
    return f"{workload}-s{seed}-x{scale:g}"


CASES = (
    # every verb on every workload, seeds 1-3, at 0.5x and 1x
    *(Case(_chain(w, seed, scale), corpus=(w, seed, scale))
      for w in WORKLOADS for seed in (1, 2, 3) for scale in (0.5, 1.0)),
    # svm.C near and past where the SGD objective (not the weights)
    # overflows, so that the overflow check's decision is compared
    *(Case(f"{_chain(w, 1, 0.5)}-C{c}", start=_chain(w, 1, 0.5), svm=(("C", float(c)),),
           verbs=("train", "evaluate"))
      for w in ("feed-rich", "model-fit") for c in ("1e150", "1e300")),
    # URLs, mentions, hashtags and non-ASCII text in every text file; on
    # wire-dense, mostly in front of plain texts that nothing is masked in
    *(Case(f"{_chain(w, 1, 0.5)}-decorated", corpus=(w, 1, 0.5), decorated=True)
      for w in ("feed-rich", "wire-dense")),
    # 300 epochs, where most SGD steps reuse a row's stored dot product
    Case(f"{_chain('model-fit', 1, 0.5)}-epochs300", start=_chain("model-fit", 1, 0.5),
         svm=(("epochs", 300),), verbs=("train", "evaluate")),
    # evaluate alone beside the copied report.json of a train at 100
    # epochs and C=1: a stale report, so every feature set is fitted. The
    # C1e cases above cannot show a stale svm.C reused: the sets they fit
    # overflow either way
    *(Case(f"{_chain('model-fit', 1, 0.5)}-{name}", start=_chain("model-fit", 1, 0.5),
           svm=(setting,), verbs=("evaluate",))
      for name, setting in (("epochs50", ("epochs", 50)), ("C2", ("C", 2.0)))),
    Case("bootstrap", program=BOOTSTRAP),
)


def _generator():
    """bench/gen.py of this checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_gen", REPO / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses resolve their module by name
    spec.loader.exec_module(gen)
    return gen


def decorate(corpus: Path) -> None:
    """Put DECORATIONS, in turn, in front of the texts of the corpus's
    posts, tweets and headlines."""
    for name in ("posts", "tweets", "headlines"):
        path = corpus / f"{name}.ndjson"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for i, row in enumerate(rows):
            fragment = DECORATIONS[i % len(DECORATIONS)]
            if fragment:
                row["text"] = f"{fragment} {row['text']}"
        path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows),
                        encoding="utf-8")


def _corpus_name(case: Case) -> str:
    return _chain(*case.corpus) + ("-decorated" if case.decorated else "")


def build_corpora(cases, root: Path) -> dict[str, Path]:
    """Each chain case's corpus directory under root, by name, generated once."""
    corpora = {_corpus_name(case): case for case in cases if case.corpus}
    if corpora:
        gen = _generator()
        for name, case in corpora.items():
            # the gazetteer only names a path in config.json, which each tree replaces
            gen.generate(*case.corpus, root / name, REPO / "src/newsvalue/data/world_cities.txt")
            if case.decorated:
                decorate(root / name)
    return {name: root / name for name in corpora}


def _write_config(case: Case, run: Path, tree: Path, src: Path, corpora) -> None:
    """Lay out a verb case's run directory: its config.json and, for a case
    with `start`, a copy of that case's out/."""
    if case.corpus:
        corpus = corpora[_corpus_name(case)]
        config = json.loads((corpus / "config.json").read_text(encoding="utf-8"))
        config["paths"] = {key: str(corpus / path) for key, path in config["paths"].items()}
        config["paths"].update(gazetteer=str(src / "newsvalue/data/world_cities.txt"), out_dir="out")
        run.mkdir(parents=True)
    else:
        config = json.loads((tree / case.start / "config.json").read_text(encoding="utf-8"))
        shutil.copytree(tree / case.start / "out", run / "out")
    config.setdefault("svm", {}).update(case.svm)
    (run / "config.json").write_text(json.dumps(config, sort_keys=True, indent=1) + "\n",
                                     encoding="utf-8")


def run_tree(src: Path, tree: Path, cases, corpora) -> tuple[dict[str, str], list[str]]:
    """Run every case on one tree under the directory tree: the sha256
    table, keyed by case/file, and the failures of clean cases."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    table, failures = {}, []
    for case in cases:
        run = tree / case.name
        if case.program is None:
            _write_config(case, run, tree, src, corpora)
            commands = {v: ("-m", "newsvalue.cli", v, "--config", "config.json") for v in case.verbs}
        else:
            run.mkdir(parents=True)
            commands = {"program": ("-c", case.program)}
        for name, args in commands.items():
            with open(run / f"{name}.stdout", "wb") as out, open(run / f"{name}.stderr", "wb") as err:
                code = subprocess.run([sys.executable, "-S", *args], cwd=run, env=env,
                                      stdout=out, stderr=err).returncode
            (run / f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")
            if case.start is None and code != 0:
                failures.append(f"{case.name}/{name}.exit: exited {code}")
            if case.start is None and (run / f"{name}.stderr").stat().st_size:
                failures.append(f"{case.name}/{name}.stderr: wrote to stderr")
        for path in sorted(run.rglob("*")):
            if path.is_file() and path.name != "config.json":
                table[path.relative_to(tree).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return table, failures


def read_expected(path: Path) -> dict[str, str]:
    """The expected-changes list: each `case/file` glob and its reason."""
    expected = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            glob, *reason = line.split(None, 1)
            expected[glob] = " ".join(reason).strip()
    return expected


def compare(base: dict[str, str], head: dict[str, str], expected: dict[str, str]) -> list[str]:
    """The failures of comparing two tables under the expected changes: a
    file that differs unlisted, and a listed glob that matches no file
    that differs. Prints each listed file that differs, with its reason."""
    failures, matched = [], set()
    for key in sorted(base.keys() | head.keys()):
        if base.get(key) == head.get(key):
            continue
        globs = [glob for glob in expected if fnmatch.fnmatchcase(key, glob)]
        if globs:
            matched.update(globs)
            print(f"differs as listed: {key} ({expected[globs[0]]})")
        else:
            failures.append(f"differs: {key}" if key in base and key in head
                            else f"only in the {'base' if key in base else 'head'} tree: {key}")
    failures += [f"listed, but no file differs: {glob}"
                 for glob in expected if glob not in matched]
    return failures


def main(argv=None, cases=CASES, expected: Path = EXPECTED) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--head", type=Path, required=True, help="the src/ directory of the change")
    parser.add_argument("--base", type=Path, help="the src/ directory to compare it with")
    args = parser.parse_args(argv)
    trees = {"base": args.base, "head": args.head} if args.base else {"head": args.head}
    work = Path(tempfile.mkdtemp(prefix="identity-"))
    corpora = build_corpora(cases, work / "corpora")
    tables, failures = {}, []
    for label, src in trees.items():
        tables[label], failed = run_tree(src.resolve(), work / label, cases, corpora)
        failures += [f"{label}: {failure}" for failure in failed]
        print(f"sha256 of every artifact, stdout, stderr and exit code, {label} tree {src}:")
        for key, digest in tables[label].items():
            print(f"{digest}  {key}")
    if args.base:
        failures += compare(tables["base"], tables["head"], read_expected(expected))
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        print(f"{len(failures)} failure(s); run directories kept in {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    if args.base:
        print(f"identical but for the listed changes: {len(tables['head'])} files"
              f" over {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Byte-identical reruns of the whole pipeline on a benchmark-shaped corpus.

The corpus comes from the benchmark's own generator (bench/gen.py): the
wire-dense workload at half size, whose posts are short, mostly digit-free
and matched against many headlines. Two runs in two directories, each verb
in its own interpreter and each run under a different string-hash seed,
must write the same seven artifacts and print the same stdout, byte for
byte.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERBS = ("curate", "label", "extract", "train", "predict", "evaluate")
ARTIFACTS = (
    "curated.ndjson", "labeled.ndjson", "features.tsv", "model.json",
    "report.json", "predictions.ndjson", "ablation.json",
)


def _generate():
    if "bench_gen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve their module here
        spec.loader.exec_module(module)
    return sys.modules["bench_gen"].generate


def _run_pipeline(directory: Path, hash_seed: str) -> dict[str, str]:
    _generate()("wire-dense", 1, 0.5, directory, ROOT / "src/newsvalue/data/world_cities.txt")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    digests = {}
    for verb in VERBS:
        done = subprocess.run(
            [sys.executable, "-m", "newsvalue.cli", verb, "--config", "config.json"],
            cwd=directory, env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, (verb, done.stderr.decode())
        digests[f"stdout:{verb}"] = hashlib.sha256(done.stdout).hexdigest()
    for name in ARTIFACTS:
        digests[name] = hashlib.sha256((directory / "out" / name).read_bytes()).hexdigest()
    return digests


def test_wire_dense_half_scale_reruns_are_byte_identical(tmp_path):
    first = _run_pipeline(tmp_path / "a", "0")
    second = _run_pipeline(tmp_path / "b", "12345")
    assert len(first) == len(VERBS) + len(ARTIFACTS)
    assert first == second

"""tools/identity.py on its bootstrap case: a tree matches itself, and a
one-ulp change to the bootstrap learning rate fails the check by name
unless the expected-changes list names it; a listed file that does not
differ fails too. Also the committed list and the fragments a decorated
corpus's texts get."""

from __future__ import annotations

import fnmatch
import json
import math
import shutil
import tempfile

import pytest
from conftest import ROOT, identity

SRC = ROOT / "src"
BOOTSTRAP = [case for case in identity.CASES if case.name == "bootstrap"]


@pytest.fixture(autouse=True)
def work_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


def _expected(tmp_path, *lines) -> Path:
    path = tmp_path / "expected-changes.txt"
    path.write_text("# none but these\n" + "".join(line + "\n" for line in lines),
                    encoding="utf-8")
    return path


@pytest.fixture()
def mutant(tmp_path) -> Path:
    """A copy of src/ whose bootstrap learning rate is one ulp larger."""
    mutant = tmp_path / "mutant-src"
    shutil.copytree(SRC, mutant, ignore=shutil.ignore_patterns("__pycache__"))
    impact = mutant / "newsvalue" / "impact.py"
    text = impact.read_text(encoding="utf-8")
    rate = f"learning_rate={math.nextafter(0.01, 1.0)!r}"
    assert text.count("learning_rate=0.01,") == 1
    impact.write_text(text.replace("learning_rate=0.01,", rate + ","), encoding="utf-8")
    return mutant


def _tables(out: str) -> list[list[str]]:
    """The printed sha256 tables, one list of lines per tree."""
    tables = []
    for line in out.splitlines():
        if line.startswith("sha256 of"):
            tables.append([])
        elif tables and "  " in line:
            tables[-1].append(line)
    return tables


def test_tree_matches_itself(tmp_path, capsys):
    argv = ["--base", str(SRC), "--head", str(SRC)]
    assert identity.main(argv, cases=BOOTSTRAP, expected=_expected(tmp_path)) == 0
    base, head = _tables(capsys.readouterr().out)
    assert base == head
    assert {line.split("  ")[1] for line in head} == {
        "bootstrap/program.stdout", "bootstrap/program.stderr", "bootstrap/program.exit",
    }


def test_one_ulp_in_the_bootstrap_learning_rate_fails(tmp_path, mutant, capsys):
    argv = ["--base", str(SRC), "--head", str(mutant)]
    assert identity.main(argv, cases=BOOTSTRAP, expected=_expected(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "differs: bootstrap/program.stdout" in err.splitlines()


def test_a_listed_difference_passes(tmp_path, mutant, capsys):
    expected = _expected(tmp_path, "bootstrap/*.stdout  one ulp up in the learning rate")
    argv = ["--base", str(SRC), "--head", str(mutant)]
    assert identity.main(argv, cases=BOOTSTRAP, expected=expected) == 0
    out = capsys.readouterr().out.splitlines()
    assert "differs as listed: bootstrap/program.stdout (one ulp up in the learning rate)" in out


def test_a_listed_file_that_does_not_differ_fails(tmp_path, mutant, capsys):
    expected = _expected(tmp_path, "bootstrap/program.stdout  one ulp up",
                         "bootstrap/program.stderr  stale")
    argv = ["--base", str(SRC), "--head", str(mutant)]
    assert identity.main(argv, cases=BOOTSTRAP, expected=expected) == 1
    err = capsys.readouterr().err.splitlines()
    assert "listed, but no file differs: bootstrap/program.stderr" in err
    assert not any("program.stdout" in line for line in err)


def test_the_committed_list_names_files_of_cases():
    """Each glob of tools/expected-changes.txt names files of cases (its
    part before the first '/' matches a case name) and gives a reason."""
    expected = identity.read_expected(identity.EXPECTED)
    names = {case.name for case in identity.CASES}
    for glob, reason in expected.items():
        case = glob.split("/", 1)[0]
        assert any(fnmatch.fnmatchcase(name, case) for name in names), glob
        assert "/" in glob and reason, glob


def test_decorate_puts_each_fragment_in_front_of_a_text(tmp_path):
    n = len(identity.DECORATIONS)
    for name in ("posts", "tweets", "headlines"):
        rows = [{"id": i, "text": f"text {i}"} for i in range(n + 1)]
        (tmp_path / f"{name}.ndjson").write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    identity.decorate(tmp_path)
    for name in ("posts", "tweets", "headlines"):
        lines = (tmp_path / f"{name}.ndjson").read_text(encoding="utf-8").splitlines()
        texts = [json.loads(line)["text"] for line in lines]
        expected = [f"{frag} text {i}".lstrip() for i, frag in enumerate(identity.DECORATIONS)]
        assert texts == expected + [f"{identity.DECORATIONS[0]} text {n}"]

"""The README's "Library use" block runs and gives its commented results."""

from __future__ import annotations

import doctest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_block_gives_its_commented_results():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each code line becomes a doctest prompt, each "# ..." line its output
    lines = [line[2:] if line.startswith("# ") else f">>> {line}" for line in block.splitlines() if line]
    test = doctest.DocTestParser().get_doctest("\n".join(lines), {}, "README", "README.md", 0)
    assert sum(1 for ex in test.examples if ex.want) == 2
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    assert runner.run(test).failed == 0

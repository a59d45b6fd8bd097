"""The README's "Library use" block runs and gives its commented results,
and its config block states the config defaults."""

from __future__ import annotations

import doctest
import json
from pathlib import Path

from newsvalue.cli import CONFIG_KEYS, PipelineConfig, load_config

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


def test_config_block_states_the_defaults(tmp_path):
    """Every `thresholds` and `svm` key is in the README's config block, at
    the value of its `PipelineConfig` default."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block, encoding="utf-8")
    cfg, defaults, raw = load_config(path), PipelineConfig(), json.loads(block)
    fields = [(name, section, key) for name, section, key in CONFIG_KEYS if section]
    assert {section for _, section, _ in fields} == {"thresholds", "svm"}
    for name, section, key in fields:
        assert key in raw[section], key
        assert getattr(cfg, name) == getattr(defaults, name), name

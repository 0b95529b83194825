"""Each demo script, and README's library quickstart, runs to completion
in-process (they walk the public API)."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs(capsys):
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert block, "README has no python block"
    exec(compile(block.group(1), "README.md quickstart", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out

"""Smoke tests: every example script must run and tell its story.

Examples are executed in-process (not via subprocess) so they share the
session's warm caches and the suite stays fast; each is checked for the
key line of its narrative.
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"

# (script, substring that must appear in its stdout)
EXAMPLES = [
    ("quickstart.py", "SpaceCDN cuts the RTT"),
    ("maputo_case_study.py", "misblocked=True"),
    ("live_system.py", "space hit ratio"),
    ("chaos_sweep.py", "total transient loss"),
]


def _run_example(name: str, capsys) -> str:
    script = EXAMPLES_DIR / name
    assert script.exists(), f"missing example: {script}"
    argv = sys.argv
    try:
        sys.argv = [str(script)]
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


@pytest.mark.parametrize("name,expected", EXAMPLES)
def test_example_runs_and_reports(name, expected, capsys):
    out = _run_example(name, capsys)
    assert expected in out, f"{name} output missing {expected!r}"
    assert len(out.splitlines()) >= 5  # every example narrates, not one-liners


def test_every_example_file_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = {name for name, _ in EXAMPLES}
    assert scripts == covered


def test_readme_quickstart_runs(capsys):
    """The README Quickstart block runs as written, so moving a name it
    imports breaks this test instead of the docs."""
    readme = (ROOT / "README.md").read_text()
    quickstart = readme[readme.index("## Quickstart") :]
    block = re.search(r"```python\n(.*?)```", quickstart, re.DOTALL).group(1)
    exec(compile(block, "README.md#quickstart", "exec"), {"__name__": "__readme__"})
    assert "ms RTT" in capsys.readouterr().out

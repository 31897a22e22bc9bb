"""Every demo script and the README's library quick start run to completion
against the library."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONIOENCODING": "utf-8"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          encoding="utf-8", env=env, timeout=120)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = _run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_start_prints_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected == ["z1 z3 - 4/(1+3k)", "(-96*κ^3)"]
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected

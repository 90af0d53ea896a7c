"""The demos and the README's library example run against the current API.

Each runs in its own interpreter with ``src`` on ``PYTHONPATH`` and must exit
0. Demo 04 is the one demo of the sweep's API (``ExperimentSpec``,
``run_experiment``) and the slowest, about 3 s on a 2-vCPU host.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    _run([str(ROOT / "demos" / demo)])


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library in five lines\n\n```python\n(.*?)```", readme, re.S)
    assert block, "README has no library example"
    _run(["-c", block.group(1)])

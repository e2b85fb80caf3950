"""Every script under ``examples/`` runs to completion with its defaults.

The examples drive the public API end to end (decorated functions, the
client, scenario presets, the authoring API), so an API change that breaks
one shows up here rather than in a reader's terminal.  Each runs in its own
interpreter, from a scratch directory, and must exit with status 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(example, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-4000:]

"""The documented and exported API: README code blocks and ``__all__``."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import ghzcert

ROOT = Path(__file__).resolve().parents[1]


def readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_python_blocks_run_without_warnings(tmp_path):
    blocks = readme_python_blocks()
    assert blocks
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for block in blocks:
        result = subprocess.run([sys.executable, "-W", "error", "-c", block],
                                cwd=tmp_path, env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr


def test_every_export_resolves():
    assert len(set(ghzcert.__all__)) == len(ghzcert.__all__)
    for name in ghzcert.__all__:
        getattr(ghzcert, name)

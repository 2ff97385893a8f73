"""The documented and exported API: README code blocks and ``__all__``,
and the imports of the package and the tests."""
from __future__ import annotations

import ast
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


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs in CI, so this is the check of unused imports: every
    # top-level name a module imports must be read somewhere in it.  The
    # package's __init__ is left out, since its imports are its API.
    paths = [path for path in sorted((ROOT / "src" / "ghzcert").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert paths
    assert unused == []


def test_only_the_verifier_keeps_per_thread_state():
    # The certificate scan's workspace is the package's one per-thread
    # state, so no other module imports threading.
    importers = []
    for path in sorted((ROOT / "src" / "ghzcert").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "threading" for module in modules):
                importers.append(path.name)
    assert importers == ["verifier.py"]


def test_no_module_imports_a_private_name_of_the_verifier_or_tradeoff():
    # The catalog lives behind verifier's public names (catalog_slope,
    # catalog_constants, CATALOG_PARTIES), so no other module of the package
    # reaches into verifier or tradeoff for an underscore name.
    private = []
    for path in sorted((ROOT / "src" / "ghzcert").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module and
                    node.module.split(".")[-1] in ("verifier", "tradeoff")):
                private += [f"{path.name}: {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []

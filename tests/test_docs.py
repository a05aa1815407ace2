"""Documentation health checks, run as part of the tier-1 suite.

Three guarantees:

* every relative link and referenced repository path in ``README.md``
  and ``docs/*.md`` resolves (the same check CI's docs job runs via
  ``tools/check_links.py``);
* ``python -m pydoc repro.api`` renders cleanly — the public API
  surface stays introspectable;
* every public class/function in the audited public modules
  (``repro/api``, ``repro/serving``, ``core/labels``,
  ``core/serialization``) carries a docstring, so the audit cannot
  silently regress.
"""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

AUDITED_MODULES = [
    "src/repro/api/__init__.py",
    "src/repro/api/factory.py",
    "src/repro/api/protocol.py",
    "src/repro/serving/__init__.py",
    "src/repro/serving/cache.py",
    "src/repro/serving/executor.py",
    "src/repro/serving/service.py",
    "src/repro/serving/sharded.py",
    "src/repro/serving/net/__init__.py",
    "src/repro/serving/net/wire.py",
    "src/repro/serving/net/server.py",
    "src/repro/serving/net/client.py",
    "src/repro/serving/net/loadgen.py",
    "src/repro/core/labels.py",
    "src/repro/core/kernels/__init__.py",
    "src/repro/core/kernels/interface.py",
    "src/repro/core/serialization.py",
    "src/repro/core/wal.py",
    "src/repro/core/fsck.py",
    "src/repro/core/ooc.py",
    "src/repro/graphs/disk_csr.py",
    "src/repro/datasets/ingest.py",
    "src/repro/utils/memory.py",
]

REQUIRED_DOCS = [
    "docs/architecture.md",
    "docs/paper_map.md",
    "docs/serving.md",
    "docs/networking.md",
    "docs/durability.md",
    "docs/kernels.md",
    "docs/ingest.md",
    "README.md",
]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsTree:
    @pytest.mark.parametrize("relpath", REQUIRED_DOCS)
    def test_required_documents_exist(self, relpath):
        assert (REPO_ROOT / relpath).is_file()

    def test_readme_links_docs_tree(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for doc in ("docs/architecture.md", "docs/paper_map.md", "docs/serving.md"):
            assert doc in readme, f"README must link {doc}"

    def test_all_relative_links_resolve(self, capsys):
        checker = _load_checker()
        assert checker.main(REPO_ROOT) == 0, capsys.readouterr().err

    def test_checker_catches_broken_links(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[gone](docs/missing.md) and `src/nope/never.py`\n"
        )
        (tmp_path / "docs" / "x.md").write_text("[up](../README.md) fine\n")
        checker = _load_checker()
        assert checker.main(tmp_path) == 1


class TestPublicSurface:
    def test_pydoc_api_renders(self):
        result = subprocess.run(
            [sys.executable, "-m", "pydoc", "repro.api"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        for name in ("open_oracle", "build_oracle", "Capability", "DistanceOracle"):
            assert name in result.stdout

    @pytest.mark.parametrize("relpath", AUDITED_MODULES)
    def test_public_surface_is_docstringed(self, relpath):
        tree = ast.parse((REPO_ROOT / relpath).read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{relpath}: missing module docstring"
        missing = []
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if not ast.get_docstring(node):
                missing.append(f"{node.name}:{node.lineno}")
        assert not missing, f"{relpath}: missing docstrings on {missing}"

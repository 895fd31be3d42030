"""Every module-level import in the package is used by its module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finsheaf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\nx: Dict = {}\n") == [
        "List (line 2)",
        "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


RELOAD = """
import gc, sys, weakref
import finsheaf.symcolim
ref = weakref.ref(finsheaf.symcolim.Colim)
for name in [n for n in sys.modules if n == "finsheaf" or n.startswith("finsheaf.")]:
    del sys.modules[name]
import finsheaf
gc.collect()
print("freed" if ref() is None else "alive")
"""


def test_reimport_frees_the_previous_modules():
    """Nothing outside the package (typing's caches, say) keeps a purged
    import alive, so fresh imports do not pile up in memory."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", RELOAD], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "freed"

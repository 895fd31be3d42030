"""Every module-level import in the package is used by its module, and every
private function, class or method is referenced somewhere in the package."""

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


def unreferenced_private_names(sources: dict) -> list:
    """Private (`_name`, not dunder) functions, classes and methods defined in
    the modules {file name: source} that no module refers to by name."""
    defined = {}
    referenced = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[module, node.name] = node.lineno
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(f"{m}: {name} (line {line})" for (m, name), line in defined.items() if name not in referenced)


def test_detector_flags_an_unreferenced_private_name():
    a = """
def _used():
    pass


def _unused():
    pass


class K:
    def _method(self):
        pass

    def __init__(self):
        self._attr = 1
"""
    b = "from a import _used\n\n_used()\n"
    assert unreferenced_private_names({"a.py": a, "b.py": b}) == ["a.py: _method (line 11)", "a.py: _unused (line 6)"]


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


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

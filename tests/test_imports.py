"""Every module-level import in the package is used by its module, every
private function, class or method is referenced somewhere in the package,
and every public one somewhere in the package, or else listed with the
reason it is kept in TEST_ONLY_API."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finsheaf"
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


def referenced_names(source: str) -> set:
    """Every name, attribute and imported name the source mentions."""
    referenced = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    return referenced


def unreferenced_names(sources: dict, private: bool, users: dict = None) -> list:
    """Private (`_name`) or public functions, classes and methods, dunders
    aside, defined in the modules {file name: source} that neither they nor
    the further sources `users` refer to by name."""
    defined = {}
    referenced = set()
    for module, source in {**sources, **(users or {})}.items():
        referenced |= referenced_names(source)
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") == private and not node.name.endswith("__"):
                    defined[module, node.name] = node.lineno
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
    assert unreferenced_names({"a.py": a, "b.py": b}, private=True) == ["a.py: _method (line 11)", "a.py: _unused (line 6)"]


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_names(sources, private=True) == []


def test_detector_flags_an_unreferenced_public_name():
    a = """
def used():
    pass


def unused():
    pass


class K:
    def method(self):
        pass

    def tested(self):
        pass
"""
    b = "from a import used\n\nused()\n"
    users = {"test_a.py": "from a import K\n\nK().tested()\n"}
    assert unreferenced_names({"a.py": a, "b.py": b}, private=False, users=users) == [
        "a.py: method (line 11)",
        "a.py: unused (line 6)",
    ]


# Public names that no module of the package uses, keyed as
# `unreferenced_names` reports them, each with the reason it is kept: a
# public name that only tests reach is deleted or listed here.
TEST_ONLY_API = {
    "abgroup.py: det": "the criterion-6 oracle: U and V of every Smith form have determinant +-1",
    "abgroup.py: kernel_group": "criteria 3 and 9 read the kernels of connecting maps and stage transitions",
    "cech.py: cech_complex_hq": "the untruncated Čech complex, oracle of the truncated ones; perfbench names it",
    "cech.py: intersection": "the plain intersection of named members, oracle of the interned ones",
    "cech.py: nerve": "exported: the whole nerve of a covering, oracle of `simplex_count`",
    "cech.py: refinement_map": "exported: refinement maps between coverings given as such; perfbench names it",
    "cech.py: table": "the comparison report as text, for readers of `covering_comparison_report`",
    "cech.py: tuples": "perfbench/tracer.py hooks it; goes with the tracer rework (ROADMAP item 3)",
    "cohom.py: component_identity_check": "criterion 4: the component-count identity for open sets",
    "cohom.py: isomorphic": "the verdict of `component_identity_check`",
    "cohom.py: les_of_short_exact": "the criterion-3 cross-check of H^2 through the long exact sequence",
    "cohom.py: restriction_induced": "restrictions between `OpenSet`s; perfbench/tracer.py hooks it (ROADMAP item 3)",
    "cohom.py: segment": "reads a node of `les_of_short_exact` by degree and position",
    "finspace.py: leq": "the order itself, which oracles compare with; perfbench/tracer.py names it",
    "finspace.py: min_open": "the minimal open set of a point as the `OpenSet` that callers pass on",
    "jsonio.py: covering_to_json": "writes the covering files that `covering_from_json` reads",
    "jsonio.py: sheaf_to_json": "writes the sheaf files that `sheaf_from_json` reads",
    "sheaf.py: cokernel_sheaf": "exported sheaf construction; perfbench/tracer.py names it",
    "sheaf.py: kernel_sheaf": "exported sheaf construction; perfbench/tracer.py names it",
    "sheaf.py: zero_sheaf": "exported sheaf construction; perfbench/tracer.py names it",
    "wedge.py: failed": "the failed conditions of a five-condition report, read by criterion 8",
    "wedge.py: structure_sequence": "the short exact sequence 0 -> F -> Z_X -> Z_{X^1} -> 0 of criterion 3",
}


def reached_only_by(sources: dict, users: dict) -> set:
    """The public definitions in `sources` that only `users` refer to, as
    "file: name"."""
    outside = set(unreferenced_names(sources, private=False, users=users))
    return {entry.rsplit(" (line", 1)[0] for entry in unreferenced_names(sources, private=False) if entry not in outside}


def test_detector_flags_a_public_name_only_tests_reach():
    a = """
def used():
    pass


class K:
    def tested(self):
        pass
"""
    b = "from a import used\n\nused()\n"
    users = {"test_a.py": "from a import K\n\nK().tested()\n"}
    assert reached_only_by({"a.py": a, "b.py": b}, users) == {"a.py: K", "a.py: tested"}


def test_every_public_definition_is_referenced():
    """Every public definition is used in the package or listed in
    TEST_ONLY_API, and every listed one is still referenced by the tests or
    the benchmark scripts.  Re-exports in `__init__` are not uses."""
    sources = {p.name: p.read_text() for p in MODULES}
    users = {
        str(p.relative_to(ROOT)): p.read_text()
        for folder in ("tests", "perfbench")
        for p in sorted((ROOT / folder).glob("*.py"))
    }
    assert unreferenced_names(sources, private=False, users=users) == []
    assert reached_only_by(sources, users) == set(TEST_ONLY_API)


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

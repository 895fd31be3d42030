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


def references(source: str) -> tuple:
    """What the source mentions: the set of bare and imported names, the
    set of attribute names, and the set of (name, attribute) pairs written
    `name.attribute`, with `cls` read as the class it is written in."""
    names, attributes, qualified = set(), set(), set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                attributes.add(child.attr)
                if isinstance(child.value, ast.Name):
                    value = owner if child.value.id == "cls" else child.value.id
                    qualified.add((value, child.attr))
            elif isinstance(child, ast.alias):
                names.add(child.name)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    visit(ast.parse(source), None)
    return names, attributes, qualified


def definitions(source: str) -> list:
    """(owner, name, line, kind) of every function, class and method.  A
    method has its class as owner, and its kind is "class" for a classmethod
    or staticmethod and "method" otherwise; everything else has owner None
    and kind "name"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is not None:
                decorators = {d.id for d in child.decorator_list if isinstance(d, ast.Name)}
                kind = "class" if decorators & {"classmethod", "staticmethod"} else "method"
                found.append((owner, child.name, child.lineno, kind))
                visit(child, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((None, child.name, child.lineno, "name"))
                visit(child, child.name if isinstance(child, ast.ClassDef) else None)
            else:
                visit(child, owner)

    visit(ast.parse(source), None)
    return found


def unreferenced_names(sources: dict, private: bool, users: dict = None) -> list:
    """Private (`_name`) or public functions, classes and methods, dunders
    aside, defined in the modules {file name: source} that neither they nor
    the further sources `users` refer to, a method as "file: Class.name".
    A classmethod or staticmethod counts as referenced only as `Class.name`,
    or as `cls.name` inside its class; any other method only as an
    attribute `.name`; the rest by name or attribute."""
    names, attributes, qualified = set(), set(), set()
    for source in {**sources, **(users or {})}.values():
        n, a, q = references(source)
        names |= n
        attributes |= a
        qualified |= q
    unused = []
    for module, source in sources.items():
        for owner, name, line, kind in definitions(source):
            if name.startswith("_") != private or name.endswith("__"):
                continue
            if kind == "class":
                used = (owner, name) in qualified
            elif kind == "method":
                used = name in attributes
            else:
                used = name in names or name in attributes
            if not used:
                unused.append(f"{module}: {owner + '.' if owner else ''}{name} (line {line})")
    return sorted(unused)


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
    assert unreferenced_names({"a.py": a, "b.py": b}, private=True) == ["a.py: K._method (line 11)", "a.py: _unused (line 6)"]


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
        "a.py: K.method (line 11)",
        "a.py: unused (line 6)",
    ]


def test_detector_does_not_count_a_bare_name_as_a_method():
    """A local variable that shares a method's name is no use of the method."""
    a = """
class K:
    def column(self):
        pass


def pivot(rows):
    column = rows[0]
    return column
"""
    b = "from a import K, pivot\n\npivot([1])\n"
    assert unreferenced_names({"a.py": a, "b.py": b}, private=False) == ["a.py: K.column (line 3)"]


def test_detector_counts_a_classmethod_only_on_its_own_class():
    """`A.zero` or `cls.zero` uses A's classmethod `zero`, not B's; neither
    does an instance attribute `.zero`."""
    a = """
class A:
    @classmethod
    def zero(cls):
        return cls.one()

    @classmethod
    def one(cls):
        pass


class B:
    @classmethod
    def zero(cls):
        pass

    @staticmethod
    def one():
        pass
"""
    b = "from a import A, B\n\nA.zero()\nB().one\n"
    assert unreferenced_names({"a.py": a, "b.py": b}, private=False) == [
        "a.py: B.one (line 18)",
        "a.py: B.zero (line 14)",
    ]


# Public names that no module of the package uses, keyed as
# `unreferenced_names` reports them, each with the reason it is kept: a
# public name that only tests reach is deleted or listed here.
TEST_ONLY_API = {
    "cohom.py: component_identity_check": "criterion 4: the component-count identity for open sets",
    "cohom.py: ComponentIdentityResult.isomorphic": "the verdict of `component_identity_check`",
    "cohom.py: les_of_short_exact": "the criterion-3 cross-check of H^2 through the long exact sequence",
    "cohom.py: LongExactSequence.segment": "reads a node of `les_of_short_exact` by degree and position",
    "finspace.py: FinitePoset.leq": "the order itself, which oracles compare with; perfbench/tracer.py names it",
    "finspace.py: FinitePoset.min_open": "the minimal open set of a point as the `OpenSet` that callers pass on",
    "jsonio.py: covering_to_json": "writes the covering files that `covering_from_json` reads",
    "jsonio.py: sheaf_to_json": "writes the sheaf files that `sheaf_from_json` reads",
    "sheaf.py: SheafMorphism.identity": "the identity morphism, from which the `is_exact` tests build sequences",
    "sheaf.py: SheafMorphism.zero": "the zero morphism, from which the `is_exact` and LES tests build non-exact sequences",
    "sheaf.py: cokernel_sheaf": "exported sheaf construction; perfbench/tracer.py names it",
    "sheaf.py: kernel_sheaf": "exported sheaf construction; perfbench/tracer.py names it",
    "sheaf.py: zero_sheaf": "exported sheaf construction; perfbench/tracer.py names it",
    "wedge.py: FiveConditionReport.failed": "the failed conditions of a five-condition report, read by criterion 8",
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
    assert reached_only_by({"a.py": a, "b.py": b}, users) == {"a.py: K", "a.py: K.tested"}


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


# Parameters with a default value across the package.  A default is a knob
# every caller may leave unset; the package grows none without a reason
# that lowers this count elsewhere.
MAX_DEFAULTED_PARAMETERS = 7


def defaulted_parameters(source: str) -> int:
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


def test_defaulted_parameters_do_not_grow():
    assert defaulted_parameters("def f(a, b=1, *, c=None, d, e=2):\n    g = lambda x=0: x\n") == 4
    total = sum(defaulted_parameters(path.read_text()) for path in sorted(PACKAGE.glob("*.py")))
    assert total <= MAX_DEFAULTED_PARAMETERS

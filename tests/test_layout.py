"""Layout guards for `src/ringoid`, read with the stdlib `ast` module.

(a) Every top-level function and class has a reader: code in `src/ringoid`
outside its own definition, `ringoid.__all__`, or the benchmark (`TRACED`
in `bench/tracing.py`, or `bench/run.py`); the oracles only tests read live
in `tests/reference.py`, and each of its top-level names is read by some
`tests/test_*.py`.  (b) No module imports a name it does not use.
(c) Every traced name still resolves, so removing a traced function fails
here and not first in the benchmark's `Tracer.install`.  (d) Only
`category.py` reads the composition tables (the attribute `comp`); every
other module composes through `FinCat`.  (e) Only `IsoClasses` calls
`is_iso`, and `ideals.py`, `completion.py` and `ttf.py` build modules
through `modules.py`, except the traced `completion.induce_module`.
(f) Every method of a top-level class is named outside its own definition.
(g) Only the recollement shadow, through its per-idempotent corner facts,
builds the extension sequences of the module crawl, and only `closure_on`
builds an additive closure, under its memo.  (h) `Submodule` and `Ideal`
define none of the lattice operations of `linalg.SubspaceFamily`.
(i) Only `completion.CornerCategory` and `ideals.QuotientCategory` call
`transfer_category`: every full subcategory of the Karoubi envelope, the
envelope itself included, is a `CornerCategory`.  (j) No module imports
`functools`, so `category.derived` is the only memo.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import ringoid

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ringoid"
BENCH = ROOT / "bench"
TESTS = ROOT / "tests"

# Methods nothing names, called from outside the package.
UNNAMED_METHODS = {"_Parser.error"}  # argparse calls it on a bad command line


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def name_counts(node) -> Counter:
    """How often a piece of code mentions each identifier: names, attributes,
    imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def names_read(node) -> set:
    """Identifiers a piece of code mentions."""
    return set(name_counts(node))


def traced() -> tuple:
    for node in parse(BENCH / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


MODULES = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}


def top_level_definitions():
    for mod, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield mod, node


def test_every_top_level_definition_has_a_reader():
    bench_names = {name.split(".")[1] for name in traced()} | names_read(parse(BENCH / "run.py"))
    reads = [(node, names_read(node)) for tree in MODULES.values() for node in tree.body]
    unread = []
    for mod, definition in top_level_definitions():
        read_in_src = any(definition.name in names for node, names in reads if node is not definition)
        if not (read_in_src or definition.name in ringoid.__all__ or definition.name in bench_names):
            unread.append(f"{mod}.{definition.name}")
    assert not unread, f"no reader: {unread}"


REFERENCES = [node.name for node in parse(TESTS / "reference.py").body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
READ_IN_TESTS = set().union(*(names_read(parse(path)) for path in TESTS.glob("test_*.py")))


@pytest.mark.parametrize("name", REFERENCES)
def test_every_reference_has_a_reader(name):
    assert name in READ_IN_TESTS


@pytest.mark.parametrize("mod", sorted(MODULES))
def test_no_unused_imports(mod):
    tree = MODULES[mod]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"unused imports in {mod}: {unused}"


@pytest.mark.parametrize("name", traced())
def test_traced_names_resolve(name):
    mod, attr = name.split(".")
    assert hasattr(importlib.import_module(f"ringoid.{mod}"), attr)


def test_only_category_reads_the_composition_tables():
    readers = [mod for mod, tree in MODULES.items()
               if any(isinstance(n, ast.Attribute) and n.attr == "comp" for n in ast.walk(tree))]
    assert readers == ["category"]


def callers(name: str, mods) -> list:
    """The top-level definitions of the given modules that call `name`."""
    return [f"{mod}.{node.name}" for mod in mods for node in MODULES[mod].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name for n in ast.walk(node))]


def test_only_iso_classes_calls_is_iso():
    assert callers("is_iso", MODULES) == ["modules.IsoClasses"]


def test_only_modules_builds_modules_for_the_functors():
    assert callers("FinModule", ["ideals", "completion", "ttf"]) == ["completion.induce_module"]


def test_only_closure_on_builds_an_additive_closure():
    assert callers("AdditiveClosure", MODULES) == ["completion.closure_on"]


def test_corners_and_quotients_are_the_only_transferred_categories():
    assert callers("transfer_category", MODULES) == ["completion.CornerCategory", "ideals.QuotientCategory"]


def imported_packages(tree) -> set:
    """The top-level packages a module imports, relative imports aside."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            out.update(a.name.split(".")[0] for a in n.names)
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            out.add(n.module.split(".")[0])
    return out


def test_no_module_imports_functools():
    assert [mod for mod, tree in MODULES.items() if "functools" in imported_packages(tree)] == []


def test_only_the_recollement_shadow_builds_extension_sequences():
    # the corner facts of a witness idempotent are the shadow's corner side
    assert callers("extension_sequences", MODULES) == ["ttf._corner_facts"]


def test_every_method_is_named_outside_its_definition():
    """A method is named in `src/ringoid`, `tests` or `bench`, outside its own
    body.  The check reads names, not calls on the class, so a method whose
    name is read for something else passes: it did not catch the unused
    `Ideal.dim`, because `dim` is read elsewhere."""
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(BENCH.glob("*.py"))
    everywhere = sum((name_counts(parse(path)) for path in paths), Counter())
    unnamed = []
    for mod, cls in top_level_definitions():
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if (isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                    and f"{cls.name}.{method.name}" not in UNNAMED_METHODS
                    and everywhere[method.name] == name_counts(method)[method.name]):
                unnamed.append(f"{mod}.{cls.name}.{method.name}")
    assert not unnamed, f"no reader: {unnamed}"



SHARED_FAMILY_METHODS = {"key", "__eq__", "__hash__", "total_dim", "contains", "sum", "intersect", "is_full", "is_zero"}


def methods(mod: str, cls: str) -> set:
    node = next(n for n in MODULES[mod].body if isinstance(n, ast.ClassDef) and n.name == cls)
    return {m.name for m in node.body if isinstance(m, ast.FunctionDef)}


@pytest.mark.parametrize("mod, cls", [("modules", "Submodule"), ("ideals", "Ideal")])
def test_submodules_and_ideals_share_one_subspace_family(mod, cls):
    assert methods("linalg", "SubspaceFamily") >= SHARED_FAMILY_METHODS
    assert not methods(mod, cls) & SHARED_FAMILY_METHODS

"""Import layering of ``repro.durability``, ``repro.scenarios``,
``repro.authoring`` and ``repro.workloads``.

Durability works on payload dicts, so it imports nothing from the scenario
layer; the scenario layer imports durability at module level.  The workload
table (``authoring.registry``) imports the zoo's definitions and the static
generators of ``workloads`` at module level too.  A function-local
``import repro...`` is how an import cycle hides, so none of the four
packages has one outside an ``if TYPE_CHECKING:`` block.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = ("scenarios", "durability", "authoring", "workloads")
MODULES = [
    path for package in PACKAGES for path in sorted((SRC / "repro" / package).rglob("*.py"))
]


def _imported(node, path):
    """Absolute module names an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        package = path.relative_to(SRC).with_suffix("").parts[: -node.level]
        base = ".".join(filter(None, (*package, base)))
    return [base, *(f"{base}.{alias.name}" for alias in node.names)]


def _is_type_checking(test):
    """``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _local_imports(node, path, in_function=False):
    """``(line, module)`` of every import inside a function body."""
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        children = node.orelse
    else:
        children = list(ast.iter_child_nodes(node))
    in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    found = []
    if in_function and isinstance(node, (ast.Import, ast.ImportFrom)):
        found.extend((node.lineno, name) for name in _imported(node, path))
    for child in children:
        found.extend(_local_imports(child, path, in_function))
    return found


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _rel(path):
    return str(path.relative_to(SRC))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if "durability" in p.parts], ids=_rel
)
def test_durability_does_not_import_scenarios(path):
    offending = [
        (node.lineno, name)
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported(node, path)
        if name == "repro.scenarios" or name.startswith("repro.scenarios.")
    ]
    assert offending == []


@pytest.mark.parametrize("path", MODULES, ids=_rel)
def test_no_function_local_repro_imports(path):
    offending = [
        (line, name)
        for line, name in _local_imports(_tree(path), path)
        if name == "repro" or name.startswith("repro.")
    ]
    assert offending == []


def test_the_checks_see_what_they_look_for():
    # The walker finds a local import, honours TYPE_CHECKING, and resolves
    # relative imports, so an empty result above means something.
    module = SRC / "repro" / "durability" / "probe.py"
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "def f():\n"
        "    from repro.scenarios import spec\n"
        "    if TYPE_CHECKING:\n"
        "        import repro.serving\n"
        "    from ..scenarios import presets\n"
    )
    names = [name for _, name in _local_imports(tree, module)]
    assert "repro.scenarios" in names
    assert "repro.scenarios.presets" in names
    assert "repro.serving" not in names
    assert {path.parent.name for path in MODULES} == set(PACKAGES)

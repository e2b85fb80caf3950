"""Every function, method and class in ``src/repro`` is used in ``src/``.

The scan parses every module under ``src/repro`` and counts where each name
occurs: as an identifier (a name, an attribute, a keyword argument) or as a
whole string literal (``getattr(obj, "name")``).  An import alone is not a
use, nor is an ``__all__`` entry (an export is a promise to outside callers,
which an allowlist entry states with its reason), nor is the definition's own
``def``/``class`` line.  A
definition whose name occurs nowhere is code that only ``tests/``,
``benchmarks/`` or ``examples/`` call; it leaves ``src/`` together with the
state only it touched, unless :data:`ALLOWLIST` names it.

Three kinds of name need no entry, because the scan recognises them itself:

- functions with a registering decorator (any decorator but ``property``,
  ``classmethod``, ``staticmethod``, ``abstractmethod``, ``dataclass`` and a
  ``.setter``), such as the zoo's ``@job`` bodies;
- ``_apply_*`` methods, which ``DynamicsInjector._fire`` reaches through
  ``getattr(self, f"_apply_{action}")``;
- dunders.

An entry is a name that stays although nothing in ``src/`` calls it: public
API (the programming model, or what the README or ``examples/`` call), a name
an open ROADMAP item needs, or a name a reference implementation under
``tests/reference/`` calls.  The references are held equal to the product, so
what they read stays; state that a reference-equivalence test compares
(HEFT's ``_endpoint_ready``) is not a definition and never a candidate.  Each
entry gives its reason on its own line.  The test fails on an unused name with
no entry, on an entry whose name is now used (stale) and on an entry with no
reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Decorators that do not register the function they wrap.
PLAIN_DECORATORS = frozenset(
    {"property", "classmethod", "staticmethod", "abstractmethod", "dataclass", "setter"}
)

ALLOWLIST = {
    "subscribe_all": "public API: the README's live event stream",
    "pause": "public API: WorkflowHandle's tenant lifecycle, next to cancel",
    "resume": "public API: WorkflowHandle's tenant lifecycle, undoes pause",
    "add_done_callback": "public API: UniFuture mirrors concurrent.futures.Future",
    "exception": "public API: UniFuture mirrors concurrent.futures.Future",
    "create": "public API: RemoteFile.create is GlobusFile.create of the paper's Listing 1",
    "outcomes": "public API: WorkflowRun.outcomes, read by examples/authoring_zoo.py",
    "materialized": "public API: WorkflowRun.materialized, read by examples/authoring_zoo.py",
    "tasks_per_worker": "public API: read by examples/drug_screening_federated.py",
    "LocalFabric": "public API: the README's and examples/quickstart.py's real thread-pool fabric",
    "RemoteDirectory": "public API: the data abstraction exported from repro, beside RemoteFile",
    "register_workflow": "public API: the README's authoring entry point for a named workflow",
    "require": "public API: the README's authoring guard on a job's inputs",
    "expand_event": "public API: the README's reader of the columnar event log",
    "format_case_study_table": "paper-table printer that examples/ and the benchmarks call",
    "format_timeseries": "paper-figure printer that examples/ and the benchmarks call",
    "run_latency_experiment": "paper-figure driver (Fig. 5) that benchmarks/ calls",
    "run_scaling_experiment": "paper-figure driver (Fig. 6) that benchmarks/ calls",
    "run_elasticity_experiment": "paper-figure driver (Fig. 7) that benchmarks/ calls",
    "run_overhead_experiment": "paper-table driver (Table III) that benchmarks/ calls",
    "run_static_capacity_study": "paper-table driver (Table IV) that benchmarks/ and examples/ call",
    "run_dynamic_capacity_study": "paper-table driver (Table V) that benchmarks/ and examples/ call",
    "critical_path_length": "ROADMAP item 11's critical-chain floor reads it",
    "handler_count": "ROADMAP item 5(a)'s subscriber-leak check reads it",
    "speedup": "paper-claim helper (Fig. 6) the claims ledger, ROADMAP 1(a), reads",
    "completion_times": "paper-claim helper (Fig. 6) the claims ledger, ROADMAP 1(a), reads",
    "scaled_to_zero": "paper-claim helper (Fig. 7) the claims ledger, ROADMAP 1(a), reads",
    "ordering_matches_paper": "paper-claim helper (Table III) the ledger, ROADMAP 1(a), reads",
    "predict_execution_time": "tests/reference/dha_scalar.py prices tasks with it",
    "is_warm": "tests/reference/dha_scalar.py reads the plan's warm set with it",
    "undispatched_by_endpoint": "tests/reference/dha_scalar.py checks its claim table with it",
}


def _decorator_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", None)


def _exempt(node):
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if name.startswith("_apply_"):
        return True
    return any(_decorator_name(d) not in PLAIN_DECORATORS for d in node.decorator_list)


def _export_lists(tree):
    """The string elements of every ``__all__`` assignment in ``tree``: an
    export is a promise to outside callers, not a use."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets) and node.value:
                exported.update(n for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return exported


def scan(root):
    """``{name: ["path:line", ...]}`` of every definition under ``root`` whose
    name is used nowhere under ``root``."""
    uses = Counter()
    definitions = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exports = _export_lists(tree)
        for node in ast.walk(tree):
            if node in exports:
                continue
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.keyword) and node.arg:
                uses[node.arg] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses[node.value] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _exempt(node):
                    where = f"{path.relative_to(root)}:{node.lineno}"
                    definitions.setdefault(node.name, []).append(where)
    return {name: where for name, where in sorted(definitions.items()) if not uses[name]}


def problems(root, allowlist):
    """Every way ``root`` and ``allowlist`` disagree, one line each."""
    unused = scan(root)
    found = [
        f"{name} ({', '.join(where)}) is used nowhere in src/: delete it, or allowlist it"
        for name, where in unused.items()
        if name not in allowlist
    ]
    found += [
        f"{name} is no unused definition of src/ (used now, or gone): drop its entry"
        for name in allowlist
        if name not in unused
    ]
    found += [
        f"{name} gives no reason" for name, reason in allowlist.items() if not str(reason).strip()
    ]
    return found


def test_no_unused_definitions():
    assert problems(SRC, ALLOWLIST) == []


# ---------------------------------------------------------------- self-tests
def _tree(tmp_path, source):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(source, encoding="utf-8")
    return package


USED = """
def helper():
    return 1

class Box:
    def get(self):
        return helper()

Box().get()
"""


def test_guard_is_green_on_a_used_tree(tmp_path):
    assert problems(_tree(tmp_path, USED), {}) == []


def test_guard_flags_a_planted_unused_definition(tmp_path):
    root = _tree(tmp_path, USED + "\ndef only_tests_call_me():\n    pass\n")
    assert scan(root) == {"only_tests_call_me": ["mod.py:11"]}
    assert len(problems(root, {})) == 1
    assert problems(root, {"only_tests_call_me": "public API"}) == []


def test_guard_flags_a_stale_allowlist_entry(tmp_path):
    found = problems(_tree(tmp_path, USED), {"helper": "public API"})
    assert found == ["helper is no unused definition of src/ (used now, or gone): drop its entry"]


def test_guard_flags_an_entry_for_a_deleted_definition(tmp_path):
    found = problems(_tree(tmp_path, USED), {"deleted_long_ago": "public API"})
    assert found == [
        "deleted_long_ago is no unused definition of src/ (used now, or gone): drop its entry"
    ]


def test_guard_flags_an_entry_without_reason(tmp_path):
    root = _tree(tmp_path, USED + "\ndef public():\n    pass\n")
    assert problems(root, {"public": " "}) == ["public gives no reason"]


def test_guard_spares_registered_functions_and_dynamics_actions(tmp_path):
    source = USED + (
        "\ndef job(fn):\n    return fn\n"
        "\n@job\ndef body():\n    pass\n"
        "\nclass Injector:\n"
        "    def _apply_crash(self):\n        pass\n"
        "    def __repr__(self):\n        return ''\n"
        "    def _fire(self, action):\n"
        "        getattr(self, f'_apply_{action}')()\n"
        "\nInjector()._fire('crash')\n"
    )
    assert problems(_tree(tmp_path, source), {}) == []


def test_methods_nested_and_async_definitions_are_scanned(tmp_path):
    source = USED + (
        "\nclass Outer:\n"
        "    class Inner:\n        pass\n"
        "    async def fetch(self):\n        pass\n"
        "\nOuter()\n"
    )
    assert list(scan(_tree(tmp_path, source))) == ["Inner", "fetch"]


def test_property_is_not_a_registering_decorator(tmp_path):
    source = USED + (
        "\nclass Row:\n    @property\n    def unread(self):\n        return 0\n\nRow()\n"
    )
    assert list(scan(_tree(tmp_path, source))) == ["unread"]


def test_an_import_alone_is_not_a_use(tmp_path):
    root = _tree(tmp_path, USED + "\ndef exported():\n    pass\n")
    (root / "facade.py").write_text("from pkg.mod import exported\n", encoding="utf-8")
    assert list(scan(root)) == ["exported"]


def test_a_called_decorator_registers_too(tmp_path):
    source = USED + (
        "\ndef after(name):\n    return lambda fn: fn\n"
        "\n@after('x')\ndef hook():\n    pass\n"
    )
    assert problems(_tree(tmp_path, source), {}) == []


def test_an_export_alone_is_not_a_use(tmp_path):
    source = USED + '\n__all__ = ["Box", "exported"]\n\ndef exported():\n    pass\n'
    assert list(scan(_tree(tmp_path, source))) == ["exported"]


def test_a_string_literal_counts_as_a_use(tmp_path):
    source = USED + "\ndef reached():\n    pass\n\ngetattr(Box, 'reached')\n"
    assert problems(_tree(tmp_path, source), {}) == []

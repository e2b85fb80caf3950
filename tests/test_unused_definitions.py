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

A second scan, over the same parse, covers the options: every defaulted
parameter of a public function or method and of every ``__init__``, and every
defaulted dataclass field that ``__init__`` accepts.  Each must be supplied by
a caller in ``src/`` or ``benchmarks/``: a keyword argument of its name, a
positional argument at its index in a call to its function or class name,
``*`` / ``**`` forwarding into that name, or a whole string literal equal to
its name (how ``workflow_params`` and ``getattr`` reach names).  An option
nobody supplies is a constant: state the constructor should never take is a
``field(init=False)``, and a setting only tests change becomes a module or
class constant they monkeypatch.  :data:`OPTION_ALLOWLIST` exempts a
``"Qualname.param"`` with its reason, under the same rules as
:data:`ALLOWLIST`.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

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

OPTION_ALLOWLIST = {
    "WorkloadSpec.workflow_params": (
        "public API: the README's and examples/authoring_zoo.py's parameters of an inline "
        "workflow definition"
    ),
    "build_montage_workflow.image_location": (
        "ROADMAP item 1(b) candidate 2 moves Montage's raw images with it"
    ),
}


@functools.lru_cache(maxsize=None)
def _parse(root):
    """``((path, tree), ...)`` of every module under ``root``, parsed once for
    both scans."""
    return tuple(
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(root.rglob("*.py"))
    )


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
    for path, tree in _parse(root):
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


# ------------------------------------------------------------------ options
def _base_names(cls):
    return [getattr(base, "id", getattr(base, "attr", None)) for base in cls.bases]


def _is_dataclass(cls):
    return any(_decorator_name(d) == "dataclass" for d in cls.decorator_list)


def _defines_init(cls):
    return any(
        isinstance(node, ast.FunctionDef) and node.name == "__init__" for node in cls.body
    )


def _own_fields(cls):
    """``(name, has_default, line)`` of each field ``cls`` declares that its
    ``__init__`` takes, in order."""
    fields = []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(node.annotation):
            continue
        has_default = node.value is not None
        if isinstance(node.value, ast.Call) and _decorator_name(node.value) == "field":
            given = {k.arg: k.value for k in node.value.keywords}
            init = given.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in given or "default_factory" in given
        fields.append((node.target.id, has_default, node.lineno))
    return fields


class _Classes:
    """Every class under ``root`` by name, for constructor calls."""

    def __init__(self, root):
        self.nodes = {}
        for path, tree in _parse(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.nodes.setdefault(node.name, (path.relative_to(root), node))

    def constructor(self, name, seen=()):
        """The name of the class whose ``__init__`` a call ``name(...)`` runs."""
        if name not in self.nodes or name in seen:
            return None
        cls = self.nodes[name][1]
        if _defines_init(cls) or _is_dataclass(cls):
            return name
        for base in _base_names(cls):
            found = self.constructor(base, seen + (name,))
            if found:
                return found
        return None

    def callers(self, name):
        """The class names whose call runs ``name``'s ``__init__``."""
        return [other for other in self.nodes if self.constructor(other) == name] or [name]

    def fields(self, name, seen=()):
        """``[(field, has_default, "path:line", declaring class), ...]`` in
        ``__init__`` order, inherited fields first."""
        if name not in self.nodes or name in seen:
            return []
        path, cls = self.nodes[name]
        fields = []
        for base in reversed(_base_names(cls)):
            for inherited in self.fields(base, seen + (name,)):
                if inherited[0] not in [f[0] for f in fields]:
                    fields.append(inherited)
        if _is_dataclass(cls):
            for field, has_default, line in _own_fields(cls):
                entry = (field, has_default, f"{path}:{line}", name)
                names = [f[0] for f in fields]
                if field in names:
                    fields[names.index(field)] = entry
                else:
                    fields.append(entry)
        return fields


def _options(root):
    """``{"Qualname.param": (["path:line", ...], [(callee, index), ...])}`` of
    every option under ``root``: ``callee`` is a name a call reaching the
    option has, ``index`` its positional slot (``None`` for a keyword-only
    parameter)."""
    classes = _Classes(root)
    options = {}

    def add(key, where, callee, index):
        places, targets = options.setdefault(key, ([], []))
        if where not in places:
            places.append(where)
        targets.append((callee, index))

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, owner)
                continue
            visit(child, path, None)
            if child.name.startswith("_") and child.name != "__init__":
                continue
            if owner is not None and child.name == "__init__":
                qualname, callees = owner.name, classes.callers(owner.name)
            else:
                prefix = f"{owner.name}." if owner is not None else ""
                qualname, callees = f"{prefix}{child.name}", [child.name]
            bound = owner is not None and not any(
                _decorator_name(d) == "staticmethod" for d in child.decorator_list
            )
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            where = f"{path.relative_to(root)}:{child.lineno}"
            for index, arg in enumerate(positional):
                if arg in defaulted:
                    for callee in callees:
                        add(f"{qualname}.{arg.arg}", where, callee, index - bound)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    for callee in callees:
                        add(f"{qualname}.{arg.arg}", where, callee, None)

    for path, tree in _parse(root):
        visit(tree, path, None)
    for name, (_, cls) in classes.nodes.items():
        if _is_dataclass(cls) and not _defines_init(cls):
            for index, (field, has_default, where, owner) in enumerate(classes.fields(name)):
                if has_default:
                    add(f"{owner}.{field}", where, name, index)
    return options


def _callees(call, cls):
    """The names a call may reach a definition by: ``f(...)`` and
    ``obj.f(...)`` reach ``f``; inside a class, ``cls(...)`` and
    ``type(self)(...)`` reach that class and ``super().__init__(...)`` its
    bases."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id, cls.name] if func.id == "cls" and cls is not None else [func.id]
    if isinstance(func, ast.Attribute):
        if func.attr == "__init__" and cls is not None:
            return [func.attr, *_base_names(cls)]
        return [func.attr]
    if isinstance(func, ast.Call) and _decorator_name(func) == "type" and cls is not None:
        return [cls.name]
    return []


def _supplied(trees):
    """What the callers under the parsed ``trees`` supply: keyword names,
    string literals, and per callee name the positional count, the first
    ``*`` index and whether ``**`` forwards into it."""
    keywords, strings, positional, starred, forwarded = set(), set(), Counter(), {}, set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if isinstance(child, ast.Call):
                names = _callees(child, cls)
                count = 0
                for arg in child.args:
                    if isinstance(arg, ast.Starred):
                        for name in names:
                            starred[name] = min(starred.get(name, count), count)
                        break
                    count += 1
                for name in names:
                    positional[name] = max(positional[name], count)
                for keyword in child.keywords:
                    if keyword.arg is None:
                        forwarded.update(names)
                    else:
                        keywords.add(keyword.arg)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                strings.add(child.value)
            visit(child, cls)

    for _, tree in trees:
        visit(tree, None)
    return keywords, strings, positional, starred, forwarded


def scan_options(root, callers):
    """``{"Qualname.param": ["path:line", ...]}`` of every option under
    ``root`` that no module under the ``callers`` roots supplies."""
    keywords, strings, positional, starred, forwarded = _supplied(
        [entry for caller in callers for entry in _parse(caller)]
    )

    def supplied(key, callee, index):
        name = key.rsplit(".", 1)[1]
        if name in keywords or name in strings or callee in forwarded:
            return True
        return index is not None and (
            index < positional[callee] or index >= starred.get(callee, index + 1)
        )

    return {
        key: places
        for key, (places, targets) in sorted(_options(root).items())
        if not any(supplied(key, callee, index) for callee, index in targets)
    }


def option_problems(root, callers, allowlist):
    """Every way the options under ``root`` and ``allowlist`` disagree."""
    unsupplied = scan_options(root, callers)
    found = [
        f"{key} ({', '.join(where)}) is supplied by no caller: make it a constant, or "
        "allowlist it"
        for key, where in unsupplied.items()
        if key not in allowlist
    ]
    found += [
        f"{key} is no unsupplied option (supplied now, or gone): drop its entry"
        for key in allowlist
        if key not in unsupplied
    ]
    found += [
        f"{key} gives no reason" for key, reason in allowlist.items() if not str(reason).strip()
    ]
    return found


def test_every_option_is_supplied():
    assert option_problems(SRC, (SRC, BENCHMARKS), OPTION_ALLOWLIST) == []


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


OPTIONS = """
from dataclasses import dataclass, field


def build(client, scale=1.0, *, jitter=0.0):
    return client


class Box:
    def __init__(self, size=1):
        self.size = size

    def fill(self, amount=0):
        return amount


@dataclass
class Row:
    name: str
    count: int = 0
    hits: list = field(init=False, default_factory=list)


def _private(x=1):
    return x


build(None, 0.5, jitter=0.1)
Box(2).fill(amount=3)
Row("a", 1)
"""


def test_options_guard_is_green_on_a_supplied_tree(tmp_path):
    root = _tree(tmp_path, OPTIONS)
    assert option_problems(root, (root,), {}) == []


def test_options_guard_flags_a_planted_unsupplied_option(tmp_path):
    root = _tree(tmp_path, OPTIONS + "\ndef planted(x, unused=None):\n    return x\n\nplanted(1)\n")
    assert scan_options(root, (root,)) == {"planted.unused": ["mod.py:32"]}
    assert len(option_problems(root, (root,), {})) == 1
    assert option_problems(root, (root,), {"planted.unused": "a deployment path"}) == []


def test_options_guard_flags_a_stale_allowlist_entry(tmp_path):
    root = _tree(tmp_path, OPTIONS)
    assert option_problems(root, (root,), {"Box.size": "public API"}) == [
        "Box.size is no unsupplied option (supplied now, or gone): drop its entry"
    ]


def test_options_guard_flags_an_entry_without_reason(tmp_path):
    root = _tree(tmp_path, OPTIONS + "\ndef planted(unused=None):\n    pass\n\nplanted()\n")
    assert option_problems(root, (root,), {"planted.unused": ""}) == [
        "planted.unused gives no reason"
    ]


def test_each_kind_of_option_is_scanned(tmp_path):
    source = OPTIONS + (
        "\nclass Late:\n    def __init__(self, retries=1):\n        pass\n"
        "    def run(self, until=None):\n        pass\n"
        "\n@dataclass\nclass Spec:\n    kind: str = 'x'\n"
        "    weight: float = field(default=1.0)\n"
        "\ndef outer():\n    def inner(b=2):\n        return b\n    return inner\n"
        "\nLate().run()\nSpec()\nouter()\n"
    )
    assert list(scan_options(_tree(tmp_path, source), (tmp_path / "pkg",))) == [
        "Late.retries", "Late.run.until", "Spec.kind", "Spec.weight", "inner.b"
    ]


SUPPLIED = {
    "keyword": ("def f(x, limit=None):\n    return x\n", "f(1, limit=2)\n"),
    "position": ("def f(x, limit=None):\n    return x\n", "f(1, 2)\n"),
    "position after self": (
        "class C:\n    def f(self, limit=None):\n        pass\n", "C().f(2)\n"
    ),
    "* forwarding": ("def f(x, limit=None):\n    return x\n", "def g(*a):\n    f(1, *a)\n"),
    "** forwarding": ("def f(x, limit=None):\n    return x\n", "def g(**k):\n    f(1, **k)\n"),
    "string literal": ("def f(x, limit=None):\n    return x\n", "getattr(Box, 'limit')\n"),
    "subclass constructor": (
        "class C:\n    def __init__(self, limit=None):\n        pass\n\n"
        "class D(C):\n    pass\n",
        "D(3)\n",
    ),
    "super().__init__": (
        "class C:\n    def __init__(self, limit=None):\n        pass\n",
        "class D(C):\n    def __init__(self):\n        super().__init__(3)\n",
    ),
    "cls(...)": (
        "class C:\n    def __init__(self, limit=None):\n        pass\n",
        "class D(C):\n    @classmethod\n    def make(cls):\n        return cls(3)\n",
    ),
    "dataclass field by position": (
        "@dataclass\nclass C:\n    name: str\n    limit: int = 0\n", "C('x', 3)\n"
    ),
    "inherited dataclass field": (
        "@dataclass\nclass C:\n    name: str\n    limit: int = 0\n\n"
        "@dataclass\nclass D(C):\n    pass\n",
        "D('x', 3)\n",
    ),
}


@pytest.mark.parametrize("how", sorted(SUPPLIED))
def test_every_way_of_supplying_an_option_counts(tmp_path, how):
    definition, call = SUPPLIED[how]
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "mod.py").write_text(OPTIONS + "\n" + definition, encoding="utf-8")
    assert [key.rsplit(".", 1)[1] for key in scan_options(alone, (alone,))] == ["limit"]
    root = _tree(tmp_path, OPTIONS + "\n" + definition + "\n" + call)
    assert scan_options(root, (root,)) == {}


def test_a_caller_outside_src_supplies_too(tmp_path):
    root = _tree(tmp_path, OPTIONS + "\ndef timed(budget_s=60.0):\n    pass\n\ntimed()\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text("from pkg.mod import timed\n\ntimed(5.0)\n", encoding="utf-8")
    assert list(scan_options(root, (root,))) == ["timed.budget_s"]
    assert scan_options(root, (root, bench)) == {}

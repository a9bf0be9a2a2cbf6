"""Census: nothing under ``src/repro`` is defined and then never named.

Every function, class, method, module-level name and ``OnePipeConfig``
field defined under ``src/repro`` must be referenced somewhere in
``src tests benchmarks perf examples`` other than at its own definition.
A module-level definition must also be named by what ships, not only by
``tests/``: see ``test_no_module_level_definition_is_test_only``.  So must
a method of a class under ``src/repro/apps``, ``src/repro/baselines`` or
``src/repro/verify``: see ``test_no_app_method_is_test_only``.
The census is by bare name (stdlib ``ast``, no resolution): a name counts
as referenced when it is loaded, read or written as an attribute, passed
as a keyword argument, or handed to ``getattr``/``hasattr`` as a string.
Imports and ``__all__`` lists are re-exports, not references.  Two rules
exempt what the interpreter or a dispatcher calls by name:

- dunders (``__init__``, ``__lt__``, ...);
- ``getattr(obj, f"_prefix_{kind}")``: any name starting with the
  f-string's constant prefix is dispatched, not dead (the
  ``ChaosInjector._start_<kind>`` handlers).
"""

from __future__ import annotations

import ast
import copy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINED_UNDER = ROOT / "src" / "repro"
REFERENCED_UNDER = ("src", "tests", "benchmarks", "perf", "examples")
CONFIG_CLASS = "OnePipeConfig"


def _definitions(tree: ast.Module):
    """``(name, lineno)`` of everything the census holds to account."""

    def targets(node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node.lineno
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            yield node.target.id, node.lineno

    def visit(body, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, node.lineno
            elif isinstance(node, ast.ClassDef):
                yield node.name, node.lineno
                yield from visit(node.body, node.name)
            elif isinstance(node, (ast.If, ast.Try)):
                # ``if TYPE_CHECKING:`` / ``try: import`` blocks.
                for field in ("body", "orelse", "finalbody"):
                    yield from visit(getattr(node, field, []), in_class)
            elif in_class is None or in_class == CONFIG_CLASS:
                yield from targets(node)

    yield from visit(tree.body, None)


def _references(tree: ast.Module, names: set, prefixes: set) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword):
            if node.arg is not None:
                names.add(node.arg)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
        ):
            attr = node.args[1]
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                names.add(attr.value)
            elif isinstance(attr, ast.JoinedStr) and attr.values:
                head = attr.values[0]
                if isinstance(head, ast.Constant) and head.value:
                    prefixes.add(head.value)


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def test_every_definition_is_referenced():
    names: set = set()
    prefixes: set = set()
    defined = []
    for top in REFERENCED_UNDER:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if DEFINED_UNDER in path.parents:
                defined.extend(
                    (name, path.relative_to(ROOT), lineno)
                    for name, lineno in _definitions(tree)
                )
            tree.body = [node for node in tree.body if not _is_all(node)]
            _references(tree, names, prefixes)
    assert len(defined) > 1_000  # the walk found the tree
    unreferenced = [
        f"{path}:{lineno}: {name}"
        for name, path, lineno in defined
        if name not in names
        and not (name.startswith("__") and name.endswith("__"))
        and not any(name.startswith(prefix) for prefix in prefixes)
    ]
    assert not unreferenced, (
        "defined under src/repro but referenced nowhere in "
        f"{' '.join(REFERENCED_UNDER)}:\n" + "\n".join(unreferenced)
    )


SHIPPED_UNDER = ("src", "benchmarks", "examples", "perf")

# Module-level definitions that only tests name, kept on purpose.
TEST_ONLY_ALLOWED = {
    "idle_wave_latency_ns": (
        "the closed form of a clean-run beacon wave (PROTOCOL.md), kept "
        "for the latency decomposition to check against"
    ),
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Unit:
    """A module-level statement or a method: the names it defines, the
    class unit that owns it (methods only) and the names it references."""

    def __init__(self, names, owner, where, node) -> None:
        self.names, self.owner, self.where = names, owner, where
        self.refs: set = set()
        self.prefixes: set = set()
        _references(node, self.refs, self.prefixes)
        self.live = False

    def wakes(self, live: set, prefixes: set) -> bool:
        if self.owner is None:
            return any(name in live for name in self.names)
        return self.owner.live and any(
            name in live or _dunder(name)
            or any(name.startswith(prefix) for prefix in prefixes)
            for name in self.names
        )


def _units(body, path, owner=None):
    """One unit per module-level statement and per method.  A class unit
    holds its body minus its methods; a module-level unit that defines
    no name is code that runs on import."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            continue
        if owner is None and isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody"):
                yield from _units(getattr(node, field, []), path)
            for handler in getattr(node, "handlers", []):
                yield from _units(handler.body, path)
            if isinstance(node, ast.If):
                yield _Unit((), None, path, node.test)
            continue
        methods = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = (node.name,)
        elif isinstance(node, ast.ClassDef):
            names = (node.name,)
            methods = [
                n for n in node.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            node = copy.copy(node)
            node.body = [n for n in node.body if n not in methods]
        else:
            names = tuple(
                name for name, _ in _definitions(ast.Module([node], []))
            )
        unit = _Unit(names, owner, f"{path}:{node.lineno}", node)
        yield unit
        yield from _units(methods, path, unit)


def _grow(units, live: set, prefixes: set) -> None:
    """Mark the units reached from ``live`` (and from code that runs on
    import) live, to a fixpoint."""
    live, prefixes = set(live), set(prefixes)
    for unit in units:
        unit.live = not unit.names  # code that runs on import
        if unit.live:
            live |= unit.refs
            prefixes |= unit.prefixes
    woken = [None]
    while woken:
        woken = [u for u in units if not u.live and u.wakes(live, prefixes)]
        for unit in woken:
            unit.live = True
            live |= unit.refs
            prefixes |= unit.prefixes


def _test_only(units, live: set, prefixes: set) -> dict:
    """The module-level definitions that :func:`_grow` never reaches, as
    ``{name: "path:line: name"}``."""
    _grow(units, live, prefixes)
    return {
        name: f"{unit.where}: {name}"
        for unit in units
        if not unit.live and unit.owner is None
        for name in unit.names
        if not _dunder(name)
    }


def _shipped_units():
    """Units under ``src/repro`` plus the names the shipped directories
    outside it reference."""
    live: set = set()
    prefixes: set = set()
    units = []
    for top in SHIPPED_UNDER:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if DEFINED_UNDER in path.parents:
                units.extend(_units(tree.body, path.relative_to(ROOT)))
            else:
                tree.body = [n for n in tree.body if not _is_all(n)]
                _references(tree, live, prefixes)
    assert len(units) > 1_000  # the walk found the tree
    return units, live, prefixes


def test_no_module_level_definition_is_test_only():
    """Each module-level function, class and constant under ``src/repro``
    is named from ``src benchmarks examples perf`` by the bare-name rule
    above.  A name used only inside a definition that is itself test-only
    does not count: the live set grows from code that runs on import and
    from the shipped directories to a fixpoint, and a method's body
    counts once its class is live and its name is (dunders and dispatch
    prefixes as above).  An allow-listed name is live, and so is what it
    names."""
    units, live, prefixes = _shipped_units()
    test_only = _test_only(units, live, prefixes)
    stale = sorted(set(TEST_ONLY_ALLOWED) - set(test_only))
    assert not stale, f"allow-listed but no longer test-only: {stale}"
    offenders = _test_only(units, live | set(TEST_ONLY_ALLOWED), prefixes)
    assert not offenders, (
        "defined under src/repro but named only by tests/ "
        "(delete it, move it to tests/, or give it a caller):\n"
        + "\n".join(
            where + ("" if name in offenders else "  (allow-listed)")
            for name, where in sorted(test_only.items())
        )
    )


METHODS_CHECKED_UNDER = (
    "src/repro/apps/", "src/repro/baselines/", "src/repro/verify/",
)

# Methods under METHODS_CHECKED_UNDER that only tests name, kept on
# purpose, as ``Class.method``.
TEST_ONLY_METHODS_ALLOWED = {
    f"{cls}.from_dict": (
        "load the committed reproducer JSON that `to_dict` writes"
    )
    for cls in ("SendOp", "EpisodeSpec")
}


def test_no_app_method_is_test_only():
    """Each method and property of a class under ``src/repro/apps``,
    ``src/repro/baselines`` and ``src/repro/verify`` is named from ``src
    benchmarks examples perf``, by the same bare-name rule and fixpoint
    as the module-level test: a method counts once its class is live and
    its name is.  Elsewhere under ``src/repro`` the rule still covers
    module-level definitions only.  An allow-listed method must still be
    test-only."""
    units, live, prefixes = _shipped_units()
    _grow(units, live | set(TEST_ONLY_ALLOWED), prefixes)
    test_only = {
        f"{unit.owner.names[0]}.{unit.names[0]}": unit.where
        for unit in units
        if unit.owner is not None
        and unit.owner.live
        and not unit.live
        and unit.where.startswith(METHODS_CHECKED_UNDER)
    }
    stale = sorted(set(TEST_ONLY_METHODS_ALLOWED) - set(test_only))
    assert not stale, f"allow-listed but no longer test-only: {stale}"
    offenders = [
        f"{where}: {name}"
        for name, where in sorted(test_only.items())
        if name not in TEST_ONLY_METHODS_ALLOWED
    ]
    assert not offenders, (
        "methods under " + " ".join(METHODS_CHECKED_UNDER) + " named only "
        "by tests/ (delete them, move them to tests/, or give them a "
        "caller):\n" + "\n".join(offenders)
    )

"""Census: nothing under ``src/repro`` is defined and then never named.

Every function, class, method, module-level name and ``OnePipeConfig``
field defined under ``src/repro`` must be referenced somewhere in
``src tests benchmarks perf examples`` other than at its own definition.
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

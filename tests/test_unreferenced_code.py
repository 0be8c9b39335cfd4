"""Every function, method and module-level constant in ``src/cplab`` has a user.

A function or method passes if other code in the package references it by name, if
``cplab.__all__`` exports it, or if ``bench/tracer.py`` traces it by name in
``TRACED``.  Dunder methods are exempt: Python calls them.  So is a method
that overrides a method of a base class outside the package, such as the
``error`` hook of ``cli._Parser``: that library calls it.  References are
matched by name, so a same-named definition elsewhere also counts as a use.
A name assigned at module level passes if package code reads it or
``cplab.__all__`` exports it; dunders such as ``__all__`` are exempt.
Both sources are read with ``ast``, so nothing of the benchmark is executed.
In the other direction, every ``:func:``, ``:class:``, ``:data:`` and ``:meth:``
target in the package's docstrings and comments names an object of that kind in
``cplab`` or one of its modules.
"""

import ast
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import cplab

SRC = Path(cplab.__file__).resolve().parent
TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _references(node) -> Counter:
    """Names loaded (``f``) and attributes read (``x.f``) anywhere under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    )


def _traced_names() -> set:
    tree = ast.parse(TRACER_PATH.read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    return {entry.elts[1].value for entry in table.elts}


def _outside_overrides(name: str, tree) -> set:
    """Ids of the method nodes in ``tree`` that override a method of a base class
    outside the package, found in the ``__mro__`` of the imported class."""
    module = None
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        module = module or importlib.import_module(f"cplab.{Path(name).stem}")
        bases = [b for b in getattr(module, cls.name).__mro__[1:] if not b.__module__.startswith("cplab")]
        found.update(
            id(f) for f in cls.body if isinstance(f, ast.FunctionDef) and any(f.name in vars(b) for b in bases)
        )
    return found


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_function_has_a_user():
    trees = _trees()
    references = sum((_references(tree) for tree in trees.values()), Counter())
    used = set(cplab.__all__) | _traced_names()
    overrides = set().union(*(_outside_overrides(name, tree) for name, tree in trees.items()))
    unreferenced = [
        f"{name}: {node.name} (line {node.lineno})"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _is_dunder(node.name)
        and node.name not in used
        and id(node) not in overrides
        # Recursion inside the definition itself does not count as a use.
        and references[node.name] <= _references(node)[node.name]
    ]
    assert not unreferenced


def _module_assignments(tree):
    """The ``Name`` nodes bound by assignments in the module body, unpacking included."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (n for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_constant_has_a_reader():
    trees = _trees()
    references = sum((_references(tree) for tree in trees.values()), Counter())
    unread = [
        f"{name}: {target.id} (line {target.lineno})"
        for name, tree in trees.items()
        for target in _module_assignments(tree)
        if not _is_dunder(target.id) and target.id not in cplab.__all__ and not references[target.id]
    ]
    assert not unread


def test_overrides_of_outside_bases_are_found():
    tree = ast.parse((SRC / "cli.py").read_text())
    overrides = _outside_overrides("cli.py", tree)
    assert {n.name for n in ast.walk(tree) if id(n) in overrides} == {"error"}


#: A cross-reference such as ``:func:`~cplab.linalg._hermitian_margin```: its role and target.
_CROSS_REFERENCE = re.compile(r":(func|class|data|meth):`~?([\w.]+)`")

#: What each role's target must be.
_ROLE_KINDS = {
    "func": callable,
    "meth": callable,
    "class": inspect.isclass,
    "data": lambda obj: obj is not None and not callable(obj),
}


def _resolve(target: str, roots: list):
    """The object that ``target`` names in the first of ``roots`` that has it, else None."""
    for root in roots:
        obj = root
        for part in target.removeprefix("cplab.").split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return obj
    return None


def test_every_cross_reference_resolves():
    references = [
        (path.name, role, target)
        for path in sorted(SRC.glob("*.py"))
        for role, target in _CROSS_REFERENCE.findall(path.read_text())
    ]
    assert len(references) > 50
    roots = [cplab] + [
        importlib.import_module(f"cplab.{path.stem}") for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    broken = [
        f"{name}: :{role}:`{target}`"
        for name, role, target in references
        if not _ROLE_KINDS[role](_resolve(target, roots))
    ]
    assert not broken

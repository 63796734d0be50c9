"""One rule of refusal: every class in ``errors`` is a ``GranusimError``,
which is a ``ValueError``, and no module of the package refuses with a
builtin exception class.  An ``AssertionError`` marks an internal
invariant, and an ``OSError`` a fault of the file system, not of input.
The input rules live in ``errors`` alone, beside the classes they
raise, and no module but ``topology`` reads the integer type rule on
its own: the others read every integer through ``errors._count``."""

import ast
import builtins
import inspect
from pathlib import Path

import pytest

from granusim import errors
from granusim.errors import GranusimError

PACKAGE = Path(errors.__file__).resolve().parent

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_is_a_granusim_error_and_a_value_error(cls):
    # Each inherits from the base alone, and the base from ValueError
    # alone, so the base decides what a refusal is.
    assert cls.__bases__ == ((ValueError,) if cls is GranusimError else (GranusimError,))


def _builtin_raises(path: Path):
    """``file:line: raise Name`` of each ``raise`` in ``path`` of a
    builtin exception class that is not an ``AssertionError`` or an
    ``OSError``."""
    raises = [node for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Raise) and node.exc is not None]
    for node in sorted(raises, key=lambda node: node.lineno):
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        kind = getattr(builtins, raised.id, None) if isinstance(raised, ast.Name) else None
        if (isinstance(kind, type) and issubclass(kind, BaseException)
                and not issubclass(kind, (AssertionError, OSError))):
            yield f"{path.relative_to(PACKAGE.parent)}:{node.lineno}: raise {raised.id}"


def test_no_module_refuses_with_a_builtin_exception():
    assert [site for path in sorted(PACKAGE.rglob("*.py")) for site in _builtin_raises(path)] == []


def _reads_of(name: str, path: Path) -> bool:
    """Whether ``path`` imports ``name`` or reads it as an attribute."""
    return any(name in ({alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                        else {node.attr} if isinstance(node, ast.Attribute) else ())
               for node in ast.walk(ast.parse(path.read_text(), str(path))))


def test_no_module_but_errors_and_topology_reads_the_integer_type_rule():
    # ``errors.py`` defines it for ``_count`` and ``_node_indices``, and
    # ``topology.py`` reads it for the indices of an edge or a coupling.
    # A hand-written "is it an integer" test beside ``_count`` would be a
    # second copy of the count rule, with a message of its own.
    readers = [path.name for path in sorted(PACKAGE.rglob("*.py"))
               if path.name not in ("errors.py", "topology.py")
               and _reads_of("_is_index_type", path)]
    assert readers == []


#: The input rules, each defined in ``errors.py`` alone.
INPUT_RULES = ("_is_index_type", "_is_real_type", "_COUNT_KINDS", "_count", "_of_kind",
               "_items_of", "_real_series", "_node_indices")


def _defined_names(tree: ast.Module):
    """Each name a function, a class or an assignment of ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def _rules_from_topology(tree: ast.Module):
    """Each input rule ``tree`` imports from ``topology`` or reads as an
    attribute of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("topology"):
            yield from (alias.name for alias in node.names if alias.name in INPUT_RULES)
        elif (isinstance(node, ast.Attribute) and node.attr in INPUT_RULES
              and isinstance(node.value, ast.Name) and node.value.id == "topology"):
            yield node.attr


def test_every_input_rule_is_defined_once_in_errors_and_read_from_there():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    homes = sorted((rule, name) for name, tree in trees.items()
                   for rule in _defined_names(tree) if rule in INPUT_RULES)
    assert homes == sorted((rule, "errors.py") for rule in INPUT_RULES)
    assert {name: sorted(_rules_from_topology(tree)) for name, tree in trees.items()
            if any(_rules_from_topology(tree))} == {}

"""One rule of refusal: every class in ``errors`` is a ``GranusimError``,
which is a ``ValueError``, and no module of the package refuses with a
builtin exception class.  An ``AssertionError`` marks an internal
invariant, and an ``OSError`` a fault of the file system, not of input.
No module but ``topology`` reads the integer type rule on its own: the
others read every integer through ``topology._count``."""

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


def test_no_module_but_topology_reads_the_integer_type_rule():
    # A hand-written "is it an integer" test beside ``_count`` would be a
    # second copy of the count rule, with a message of its own.
    readers = [path.name for path in sorted(PACKAGE.rglob("*.py"))
               if path.name != "topology.py" and _reads_of("_is_index_type", path)]
    assert readers == []

"""One rule of refusal: every class in ``errors`` is a ``GranusimError``,
which is a ``ValueError``, and no module of the package refuses with a
builtin exception class.  An ``AssertionError`` marks an internal
invariant, and an ``OSError`` a fault of the file system, not of input.
The input rules live in ``errors`` alone, beside the classes they
raise, and no module but ``topology`` reads the integer type rule on
its own: the others read every integer through ``errors._count``.
Every file is UTF-8 whatever the locale: one rule, ``errors._utf8_text``,
reads and decodes every file the package reads, and
``experiment.write_atomic`` writes every file as UTF-8; no other module
opens, reads, writes or decodes."""

import ast
import builtins
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from granusim import errors
from granusim.errors import GranusimError
from granusim.experiment import RESULTS_HEADER
from test_input_rules import UNREADABLE_RESULTS

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
               "_items_of", "_real_series", "_node_indices", "_utf8_text")


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


#: Calls that open, read or write a file, or decode bytes.
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "fdopen", "decode"}


def _file_calls(path: Path, node: ast.AST, function: str = "") -> list[str]:
    """``file:function: call`` of each call to one of ``FILE_CALLS``
    under ``node``, by the innermost function around it."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _file_calls(path, child, child.name)
            continue
        if isinstance(child, ast.Call):
            called = child.func
            name = called.id if isinstance(called, ast.Name) else getattr(called, "attr", None)
            if name in FILE_CALLS:
                found.append(f"{path.name}:{function}: {ast.unparse(child)}")
        found += _file_calls(path, child, function)
    return found


def test_only_the_utf8_rule_and_write_atomic_touch_a_file():
    # Each other ``open``, ``read_text`` or ``decode`` would decide an
    # encoding of its own, the locale's unless it names one.
    calls = [call for path in sorted(PACKAGE.rglob("*.py"))
             for call in _file_calls(path, ast.parse(path.read_text(), str(path)))]
    assert calls == ["errors.py:_utf8_text: Path(path).read_bytes()",
                     "errors.py:_utf8_text: data.decode('utf-8')",
                     "experiment.py:write_atomic: os.fdopen(fd, 'w', encoding='utf-8')"]


#: Loads each results file it is given, printing its row count or the
#: refusal, then writes non-ASCII text with ``write_atomic``.
C_LOCALE_CHILD = """
import sys
from pathlib import Path
from granusim.analysis import load_results
from granusim.errors import GranusimError
from granusim.experiment import write_atomic
for path in sys.argv[2:]:
    try:
        print(len(load_results(path)["tg"]))
    except GranusimError as exc:
        print(exc)
write_atomic(Path(sys.argv[1]), "\\u00e9\\n")
"""


def test_files_are_utf8_under_the_c_locale(tmp_path):
    # With UTF-8 mode and locale coercion off, the child's locale
    # encoding is the C locale's (ASCII under glibc).  Before, the
    # results file with an e-acute was refused there as "not ascii
    # text", and ``write_atomic`` raised a bare UnicodeEncodeError.
    files = {"accented": f"{RESULTS_HEADER}\n0,2,2,8,1.0,,true,false,0.1,\u00e9,ok\n".encode(),
             **{name: data for name, (data, _) in UNREADABLE_RESULTS.items()
                if name.startswith("not_utf8")}}
    paths = {name: tmp_path / f"{name}.csv" for name in files}
    for name, data in files.items():
        paths[name].write_bytes(data)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "LANG", "PYTHON"))}
    env.update(LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(PACKAGE.parent))
    written = tmp_path / "written.txt"
    done = subprocess.run(
        [sys.executable, "-c", C_LOCALE_CHILD, str(written), *map(str, paths.values())],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["1", *(f"{paths[name]}: {UNREADABLE_RESULTS[name][1]}"
                                               for name in list(files)[1:])]
    assert written.read_bytes() == "\u00e9\n".encode("utf-8")

"""Print the statements of ``src/granusim`` that the benchmark's traffic
never runs, or the ``raise`` statements that given tests never reach.

With no arguments it runs each workload of ``perfbench/run.py``
(``factorial``, ``factorial_traces`` and ``wide_sync``) once, in this
process, through ``granusim.cli.main``: the same scenario file
(``Workload.scenario_doc`` at the default seed) and the same calls
(``calls``) as the benchmark.  Scenario files and outputs go to a
temporary directory, removed at the end.  Per module it then prints the
statements no workload ran, one line each (line number and first source
line).  Docstrings, ``def``, ``class``, imports and ``try:`` (which runs
no code of its own) are left out; the statements in their bodies are
not.  A compound statement counts as run when a line of its header ran.

With ``--tests`` and pytest files it runs those tests instead, in this
process, with ``pytest.main``, and prints per module each ``raise`` that
none of them reached.  Code run in a worker process (``--jobs`` above
1) is not seen.  One ``raise`` no test can reach, so it is always
listed: ``analysis.load_results``' ``AssertionError``, raised only if
numpy refuses a column that ``float()`` takes value by value, which
numpy's own parsing rules out.  Run on ``tests/test_input_rules.py``
and ``tests/test_cli.py``, it lists that one alone, and
``tests/test_raises_reached.py`` fails if it lists any other.

Executed lines are recorded with ``sys.settrace`` from before the
package is imported, so module-level statements count too.

Run from the repository root (about 7 s, and about 5 s with the two
test files below):

    python3 tools/traffic.py
    python3 tools/traffic.py --tests tests/test_input_rules.py tests/test_cli.py
"""

import argparse
import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "granusim"
BENCH = ROOT / "perfbench"

#: Statements listed by their body alone, never by themselves.
SKIPPED = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
           ast.Try, ast.Global, ast.Nonlocal)


def record(lines: dict):
    """A ``sys.settrace`` function adding each line run in the package
    to ``lines[filename]``; frames elsewhere are not traced."""
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines.setdefault(filename, set())
        if event == "call":
            lines[filename].add(frame.f_lineno)
        return local

    return on_call


def run_workloads() -> dict:
    """Lines run per package file over one pass of every workload."""
    sys.path.insert(0, str(BENCH))
    import run as bench

    lines: dict = {}
    sys.settrace(record(lines))
    try:
        cli = bench.load_package()
        with tempfile.TemporaryDirectory() as tmp:
            for w in bench.WORKLOADS.values():
                work = Path(tmp) / w.name
                (work / "out").mkdir(parents=True)
                scenario = work / "scenario.json"
                scenario.write_text(json.dumps(w.scenario_doc(bench.DEFAULT_SEED)))
                for name, argv in bench.calls(w, bench.DEFAULT_SEED, scenario, work / "out"):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"error: {w.name} {name} exited with {code}")
    finally:
        sys.settrace(None)
    return lines


def run_tests(paths: list) -> dict:
    """Lines run per package file over one in-process pytest run of ``paths``."""
    import pytest
    sys.path.insert(0, str(PACKAGE.parent))
    lines: dict = {}
    sys.settrace(record(lines))
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *paths])
    finally:
        sys.settrace(None)
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        raise SystemExit(f"error: pytest exited with {code!r}")
    return lines


def _is_docstring(stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statements(tree):
    """The first and last line of the header of each statement of
    ``tree`` that the listing counts."""
    for stmt in ast.walk(tree):
        if not isinstance(stmt, ast.stmt) or isinstance(stmt, SKIPPED) or _is_docstring(stmt):
            continue
        body = getattr(stmt, "body", None)
        last = min(s.lineno for s in body) - 1 if body else stmt.end_lineno
        yield stmt.lineno, max(last, stmt.lineno)


def raises(tree):
    """The first and last line of each ``raise`` statement of ``tree``."""
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Raise):
            yield stmt.lineno, stmt.end_lineno


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", nargs="+", metavar="FILE",
                        help="list the raise statements these pytest files never reach")
    args = parser.parse_args(argv)
    if args.tests:
        lines, counted_in, what = run_tests(args.tests), raises, "raise statements not reached"
    else:
        lines, counted_in, what = run_workloads(), statements, "statements not run"
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        ran = lines.get(str(path), set())
        counted = sorted(counted_in(ast.parse(source)))
        missed = [first for first, last in counted if not ran.intersection(range(first, last + 1))]
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(counted)} {what}")
        text = source.splitlines()
        for lineno in missed:
            print(f"  {lineno:4d}  {text[lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

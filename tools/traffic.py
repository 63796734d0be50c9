"""Print the statements of ``src/granusim`` that the benchmark's traffic never runs.

Runs each workload of ``perfbench/run.py`` (``factorial``,
``factorial_traces`` and ``wide_sync``) once, in this process, through
``granusim.cli.main``: the same scenario file (``Workload.scenario_doc``
at the default seed) and the same calls (``calls``) as the benchmark.
Executed lines are recorded with ``sys.settrace`` from before the
package is imported, so module-level statements count too.  Scenario
files and outputs go to a temporary directory, removed at the end.

Per module it then prints the statements no workload ran, one line each
(line number and first source line).  Docstrings, ``def``, ``class``,
imports and ``try:`` (which runs no code of its own) are left out; the
statements in their bodies are not.  A compound statement counts as run
when a line of its header ran.

Run from the repository root (about 7 s):

    python3 tools/traffic.py
"""

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


def main() -> int:
    lines = run_workloads()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        ran = lines.get(str(path), set())
        counted = sorted(statements(ast.parse(source)))
        missed = [first for first, last in counted if not ran.intersection(range(first, last + 1))]
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(counted)} statements not run")
        text = source.splitlines()
        for lineno in missed:
            print(f"  {lineno:4d}  {text[lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every refusal of the package is reached by a test: ``tools/traffic.py
--tests`` runs ``tests/test_input_rules.py`` and ``tests/test_cli.py``
under its tracer and lists each ``raise`` of ``src/granusim`` that none
of them reached.  The one ``raise`` it may list is the internal
``AssertionError`` of ``analysis.load_results``, which no input reaches
(see the tool's docstring); a refusal added without a test row is
listed too, and fails this test."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADER = re.compile(r"^(src/granusim/\S+\.py): (\d+) of \d+ raise statements not reached$")


def test_every_raise_but_load_results_assertion_is_reached():
    done = subprocess.run(
        [sys.executable, "tools/traffic.py", "--tests", "tests/test_input_rules.py",
         "tests/test_cli.py"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    listed, counts, module = [], {}, None
    for line in done.stdout.splitlines():
        header = HEADER.match(line)
        if header:
            module = header[1]
            counts[module] = int(header[2])
        elif module is not None and re.match(r"^ +\d+  ", line):
            listed.append((module, line.split(None, 1)[1]))
    assert "src/granusim/analysis.py" in counts, done.stdout
    assert sum(counts.values()) == len(listed) == 1, listed
    [(module, source)] = listed
    assert module == "src/granusim/analysis.py"
    assert source.startswith("raise AssertionError(f\"column '{column}' failed numpy's "
                             "conversion")

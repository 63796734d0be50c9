"""Every scenario field and CLI flag the benchmark writes must exist.

``perfbench/run.py`` writes each workload's scenario file from
``Workload.scenario_doc`` and ``_networks``, and drives the CLI with the
flags ``calls`` passes.  Both are read from the file's source here,
without importing the benchmark, so deleting a scenario field or a flag
fails this suite instead of every benchmark run.
"""

import ast
import json
from pathlib import Path

from granusim.cli import build_parser
from granusim.experiment import ScenarioConfig

BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def function(name):
    for node in ast.walk(ast.parse(BENCH.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name} in {BENCH}")


def dict_keys(name):
    """The constant keys of every dict display in function ``name``."""
    return {key.value for node in ast.walk(function(name)) if isinstance(node, ast.Dict)
            for key in node.keys if isinstance(key, ast.Constant)}


def flags(name):
    """The string constants starting with ``--`` in function ``name``."""
    return {node.value for node in ast.walk(function(name))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("--")}


def test_scenario_fields_the_benchmark_writes_load():
    scenario_keys, network_keys = dict_keys("scenario_doc"), dict_keys("_networks")
    assert "align_sync" in scenario_keys and "weights" in network_keys
    default = json.loads(ScenarioConfig().to_json())
    assert scenario_keys <= default.keys()
    assert network_keys <= default["networks"][0].keys()
    doc = {key: default[key] for key in scenario_keys}
    doc["networks"] = [{key: net[key] for key in network_keys} for net in default["networks"]]
    assert ScenarioConfig.from_json(json.dumps(doc)) == ScenarioConfig()


def test_flags_the_benchmark_passes_are_known():
    passed = flags("calls")
    assert passed >= {"--scenario", "--seed", "--jobs", "--traces", "--trace", "--out",
                      "--in", "--expected-rt"}
    subparsers = next(a for a in build_parser()._actions if a.choices)
    known = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    assert passed <= known, f"flags the benchmark passes missing from the CLI: {passed - known}"

"""Every layer the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` patches ``(module, attribute)`` pairs from its
``LAYERS`` table at run time.  The table is read from the file's source
here, without importing the benchmark, so renaming or deleting a traced
function fails this suite instead of the traced benchmark run.  The
same holds for the attribute its exchange counter reads.
"""

import ast
import importlib
from pathlib import Path

from granusim.experiment import ScenarioConfig, build_federation, wiring

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_layers():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert ("federate", "FederateState.step") in layers
    missing = []
    for module, attr in layers:
        owner = importlib.import_module(f"granusim.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if not callable(owner):
            missing.append(f"granusim.{module}.{attr}")
    assert not missing, f"traced layers missing from granusim: {missing}"


def test_each_coupling_is_one_foreign_input():
    # The tracer counts the values an exchange moves as the sizes of
    # the federates' ``foreign_inputs``: one slot per coupling.
    config = ScenarioConfig()
    federation = build_federation(config)
    moved = sum(f.foreign_inputs.size for f in federation.federates.values())
    assert moved == len(wiring(config)[1].couplings) == 126

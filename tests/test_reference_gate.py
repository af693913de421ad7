"""The benchmark's workloads against their stored references, at two shipped seeds.

Reads perfbench/run.py (the workloads), perfbench/gate.py (extract, compare,
load) and perfbench/reference/*.json; never calls gate.main, which rewrites
the references.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from diracgap import expcli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_module("run").WORKLOADS
gate = load_module("gate")


@pytest.mark.parametrize("seed", [0, 10])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_matches_its_reference(workload, seed):
    reference = gate.load(PERFBENCH / "reference" / f"{workload}.json", seed)
    assert reference is not None
    result = expcli.compute_run(
        expcli.parse_config(json.dumps(dict(WORKLOADS[workload]["config"], seed=seed))))
    assert [c.name for c in result.checks if not c.passed] == []
    assert gate.compare(gate.extract(result), reference) == []

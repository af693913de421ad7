"""The benchmark against the library: its workloads, self-check and F(t).

Reads perfbench/run.py (the workloads), perfbench/gate.py (extract, compare,
load) and perfbench/reference/*.json; never calls gate.main, which rewrites
the references.  The benchmark reads the run's spectrum and staircase
arrays, so its self-check and its own F(t) run here too, each in a fresh
interpreter: perfbench's worker imports scipy, which the library avoids.
"""

import importlib.util
import json
import subprocess
import sys
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


@pytest.mark.parametrize("seed", range(11))  # every shipped seed, the benchmark's 3 too
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_matches_its_reference(workload, seed):
    reference = gate.load(PERFBENCH / "reference" / f"{workload}.json", seed)
    assert reference is not None
    result = expcli.compute_run(
        expcli.parse_config(json.dumps(dict(WORKLOADS[workload]["config"], seed=seed))))
    assert [c.name for c in result.checks if not c.passed] == []
    assert gate.compare(gate.extract(result), reference) == []


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selfcheck.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck passed"


# worker.trace_response gives the benchmark's useful_root_ratio; it must agree
# with the oracle sum on a run's staircase, at the jumps and between them.
TRACE_RESPONSE_CHECK = """
import sys
import numpy as np
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import worker  # puts the checkout's src/ first on sys.path
from oracles import trace_response
from diracgap import expcli
from diracgap.shift import TestFunction

result = expcli.compute_run(expcli.parse_config("{}"))
s, alpha = result.staircase, result.config.alpha
hi = float(s.locations[-1]) + 3.0
t = np.concatenate([np.linspace(-hi, hi, 20001), s.locations, -s.locations])
ours = worker.trace_response(result.spectrum.positive_values, result.spectrum.multiplicities,
                             alpha, t)
theirs = trace_response(s, TestFunction(alpha=alpha), t)
assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12), np.abs(ours - theirs).max()
print(len(s.locations), float(theirs.max()))
"""


def test_benchmark_trace_response_matches_the_oracle():
    tests = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-c", TRACE_RESPONSE_CHECK, str(PERFBENCH), str(tests)],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    count, peak = proc.stdout.split()
    assert int(count) == 118 and float(peak) > 1.0  # the default run's jumps, and F is seen

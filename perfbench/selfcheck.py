"""Fast self-check of the benchmark on a tiny configuration.

    python3 perfbench/selfcheck.py

Checks that both modes print every metric named in BENCHMARK.json with its
unit, that a run matching its reference passes, that a corrupted reference
makes every run count as failed, and that the benchmark's own F(t) matches
the library's.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))
os.environ.update({k: v for k, v in run.child_env().items() if k.endswith("_THREADS")})

import numpy as np  # noqa: E402

import gate  # noqa: E402
import worker  # noqa: E402
from diracgap import expcli, shift  # noqa: E402

TINY = {"M": 8, "N_kappa": 21, "n_bands": 4, "N_P": 5, "N_H": 8, "seed": 7}
SECONDS = 0.5


def write_reference(path: Path, values: dict) -> None:
    path.write_text(json.dumps({"config": TINY, "seeds": {str(TINY["seed"]): values}}))


def check_metrics(result: dict, specs: list, problems: list, label: str) -> None:
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{label}: {spec['name']} not printed")
        elif got["unit"] != spec["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{label}: {spec['name']} printed as {got}")
    extra = set(result["metrics"]) - {spec["name"] for spec in specs}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")


def main() -> int:
    specs = run.load_specs()
    problems: list[str] = []
    base = run.WORKDIR / "selfcheck"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        result = expcli.compute_run(expcli.parse_config(json.dumps(TINY)))
        values = gate.extract(result)
        reference = base / "tiny.json"
        write_reference(reference, values)

        for trace in (0, 1):
            line, record = run.measure("tiny", TINY, reference, SECONDS, trace, specs[trace],
                                       setup_repeats=1)
            json.dumps(line)  # the printed form must serialise
            check_metrics(line, specs[trace], problems, f"trace {trace}")
            if not line["correct"] or line["failed"]:
                problems.append(f"trace {trace}: clean run failed: {record['failures']}")

        values["theta_fiber"] *= 1.0 + 1e-9
        write_reference(reference, values)
        line, record = run.measure("tiny", TINY, reference, SECONDS, 0, specs[0],
                                   setup_repeats=1)
        if line["correct"] or line["failed"] != line["attempted"]:
            problems.append(f"corrupted reference not caught: {line}")
        elif record["failures"] != ["gate:theta_fiber"]:
            problems.append(f"corrupted reference reported as {record['failures']}")

        # The library's F(t) exists only for tests and may be removed; while it
        # is there, the benchmark's own copy must agree with it.
        library_response = getattr(shift, "trace_response", None)
        if library_response is not None:
            staircase, alpha = result.staircase, result.config.alpha
            t = np.linspace(-3.0, 3.0, 301)
            ours = worker.trace_response(staircase.locations, staircase.weights, alpha, t)
            theirs = library_response(staircase, shift.TestFunction(alpha=alpha), t)
            if not np.allclose(ours, theirs, rtol=1e-12, atol=1e-12):
                problems.append("benchmark F(t) disagrees with shift.trace_response")
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

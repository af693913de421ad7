"""Output gate: compare a run's results with stored reference values.

The reference file of a workload holds, per shipped seed, the trace values,
the positive gap spectrum with its multiplicities, and the alignment
diagnostics.  `stationary.csv` and the manifest hashes are left out on
purpose: the planned stationary-scan fix changes the roots.  At a seed with
no stored reference the gate is the run's own consistency checks only.

Regenerate the references after an intended change of results with

    PYTHONPATH=src python3 perfbench/gate.py --workload default --seeds 0-10
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

TOLERANCE = 1e-12
# Quantities that are themselves errors near zero are compared absolutely;
# the others relative to max(1, |reference|).
ABSOLUTE = ("rel_gap", "euler_gap")
SCALARS = ("theta_fiber", "theta_separated", "rel_gap", "euler_gap", "a", "b", "MAE", "E_step")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def extract(result) -> dict:
    """The gated values of one `RunResult`."""
    return {
        "theta_fiber": float(result.trace.theta_fiber),
        "theta_separated": float(result.trace.theta_separated),
        "rel_gap": float(result.trace.rel_gap),
        "euler_gap": float(result.trace.euler_gap),
        "a": float(result.affine.a),
        "b": float(result.affine.b),
        "MAE": float(result.diagnostics.mae),
        "E_step": float(result.diagnostics.e_step),
        "positive_values": [float(v) for v in result.spectrum.positive_values],
        "multiplicities": [int(m) for m in result.spectrum.multiplicities],
    }


def _close(name: str, value: float, ref: float) -> bool:
    scale = 1.0 if name in ABSOLUTE else max(1.0, abs(ref))
    return math.isfinite(value) and abs(value - ref) <= TOLERANCE * scale


def compare(values: dict, ref: dict) -> list[str]:
    """Names of the gated values that do not match the reference."""
    bad = [name for name in SCALARS if not _close(name, values[name], ref[name])]
    if values["multiplicities"] != ref["multiplicities"]:
        bad.append("multiplicities")
    lams, ref_lams = values["positive_values"], ref["positive_values"]
    if len(lams) != len(ref_lams) or not all(
        _close("positive_values", v, r) for v, r in zip(lams, ref_lams)
    ):
        bad.append("positive_values")
    return bad


def load(path: Path, seed: int) -> dict | None:
    """The stored reference for `seed`, or None when none is shipped."""
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    from diracgap import expcli
    from run import WORKLOADS

    parser = argparse.ArgumentParser(description="write reference values for one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-10")
    args = parser.parse_args(argv)
    config = WORKLOADS[args.workload]["config"]
    seeds = {}
    for seed in _seed_range(args.seeds):
        cfg = expcli.parse_config(json.dumps(dict(config, seed=seed)))
        result = expcli.compute_run(cfg)
        if not result.all_checks_pass:
            print(f"seed {seed}: consistency checks fail; not stored", file=sys.stderr)
            return 1
        seeds[str(seed)] = extract(result)
        print(f"seed {seed}: {len(seeds[str(seed)]['positive_values'])} positive gap values")
    # One seed per line keeps the file diffable.
    lines = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds.items())
    text = (
        "{\n"
        f'  "config": {json.dumps(config, sort_keys=True)},\n'
        f'  "tolerance": {TOLERANCE!r},\n'
        '  "seeds": {\n' + lines + "\n  }\n}\n"
    )
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{args.workload}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

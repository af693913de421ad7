"""Benchmark of the verified diracgap pipeline on four sized configurations.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload default --seed 3 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12

`--trace 0` prints the end-to-end metrics (run time, set-up time, peak
memory); `--trace 1` prints the per-layer metrics of a traced run.  Metric
names and units come from `BENCHMARK.json`.  The workload seed reaches the
program only as the config key `seed` (the Hecke ensemble seed).  The last
line of standard output is one JSON object; the line before it is the run
record (environment, problem sizes, sample counts, failures).
`--workload all` prints one summary line per workload instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

# The ROADMAP baseline configurations; BENCHMARK.json says why each is there.
WORKLOADS = {
    "default": {"config": {}},
    "primes_1000": {"config": {"N_P": 1000}},
    "modes_500": {"config": {"N_H": 500}},
    "bands_wide": {"config": {"M": 64, "N_kappa": 1001, "n_bands": 16}},
}

SETUP_REPEATS = 5
# What every CLI call pays before any work: interpreter start, imports,
# config parsing and the zero table.
SETUP_PROBE = (
    "import sys; from diracgap import expcli, zeta; "
    "cfg = expcli.parse_config(sys.argv[1]); "
    "zeta.load_zero_table('embedded', min_count=cfg.K)"
)
WORKER_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 20.0


def child_env() -> dict:
    """Environment of every child: the checkout's sources, BLAS capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(config: dict, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh child interpreters, started one at a time."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, json.dumps(config)],
            env=child_env(), cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
    return times


def run_worker(name: str, config: dict, reference: Path, seconds: float, trace: int) -> dict:
    spans = WORKDIR / "spans" / f"{name}-seed{config['seed']}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--config", json.dumps(config),
         "--reference", str(reference), "--seconds", str(seconds), "--trace", str(trace),
         "--workdir", str(WORKDIR / "tmp"), "--spans", str(spans)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, config: dict, reference: Path, seconds: float, trace: int,
            specs: dict, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    # Set-up is timed before the worker runs, so it does not pay for the
    # worker's large frees.
    setup = None if trace else measure_setup(config, setup_repeats)
    worker = run_worker(name, config, reference, seconds, trace)
    record = dict(worker["record"], workload=name)
    if trace:
        values = worker["layers"]
    else:
        record["setup_s"] = {"median": statistics.median(setup), "samples": setup}
        values = {
            "run_s": record["run_s"]["median"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    return result, record


def load_specs() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: bench["end_to_end"], 1: bench["per_layer"]}


def summary_line(name: str, result: dict, record: dict) -> str:
    m = result["metrics"]
    tail = record["run_s"]["tail"]
    tail_text = f"p{tail['p']:g} {tail['value']:.4f} s" if tail else "no percentile past p50"
    return (
        f"{name:12s} run_s {m['run_s']['value']:.4f} {m['run_s']['unit']} "
        f"(median of {record['run_s']['n']}; {tail_text})  "
        f"setup_s {m['setup_s']['value']:.4f} {m['setup_s']['unit']}  "
        f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} {m['peak_rss_mb']['unit']}  "
        f"failed_frac {record['failed_frac']:.4g} ratio "
        f"({result['failed']}/{result['attempted']})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diracgap pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "diracgap" / "expcli.py").is_file():
        print(f"error: no diracgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = load_specs()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        config = dict(WORKLOADS[name]["config"], seed=args.seed)
        reference = HERE / "reference" / f"{name}.json"
        trace = 0 if args.workload == "all" else args.trace
        result, record = measure(name, config, reference, args.seconds, trace, specs[trace])
        all_correct &= result["correct"]
        if args.workload == "all":
            print(summary_line(name, result, record), flush=True)
        else:
            print(json.dumps({"record": record}))
            print(json.dumps(result))
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: a closed loop of verified pipeline runs.

A run is `expcli.compute_run` followed by `expcli.write_artifacts` into a
fresh temporary directory; it is timed from outside and then verified (the
run's consistency checks plus the output gate).  One caller runs the
pipeline again and again, each run starting when the previous one ends,
after one untimed warm-up run.

With `--trace 1` untraced and traced runs alternate; the traced ones give
the per-layer metrics and the pair gives the tracing overhead.  Prints one
JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
from tracer import Tracer, public_functions, self_times  # noqa: E402

from diracgap import (  # noqa: E402
    arithmetic, expcli, floquet, gapspec, matmodel, shift, tracekit, zeta,
)

COMPLEX_BYTES = 16


def _scan_points(counts, args, kwargs, result):
    counts["shift.scan_points"] += len(kwargs.get("t_grid", args[2] if len(args) > 2 else ()))


def _deriv_terms(counts, args, kwargs, result):
    staircase = kwargs.get("s", args[0] if args else None)
    counts["shift.deriv_terms"] += np.size(result) * len(staircase.locations)


def install_spans(tracer: Tracer) -> None:
    """Wrap the layer functions where `compute_run` and its callees look them up."""
    tracer.install(expcli, "compute_band_structure")
    tracer.install(expcli, "stationary_scan", _scan_points)
    tracer.install(expcli, "write_artifacts")
    tracer.install(floquet, "fiber_eigenvalues")
    for name in ("generate_primes", "sample_hecke_ensemble", "mass_shifts"):
        tracer.install(arithmetic, name)
    for module in (gapspec, tracekit, matmodel, zeta):
        for name in public_functions(module):
            tracer.install(module, name)
    tracer.install(tracekit, "local_factor_grid")
    tracer.install(shift, "trace_response_derivative", _deriv_terms)


def verified_run(cfg, reference, workdir: Path, tracer: Tracer | None = None,
                 keep_result: bool = False) -> dict:
    """Time one run, then check it; failures lists what did not hold.

    Only the run's sizes are kept, so that earlier results do not pile up in
    the heap of later runs; `keep_result` keeps the `RunResult` as well.
    """
    out = tempfile.mkdtemp(dir=workdir)
    run = {"failures": [], "sizes": None, "result": None}
    start = time.perf_counter()
    try:
        if tracer is None:
            result = expcli.compute_run(cfg)
        else:
            result = tracer.call("expcli.compute_run", "expcli", expcli.compute_run, cfg)
        artifacts = expcli.write_artifacts(result, out)
        run["seconds"] = time.perf_counter() - start
        run["failures"] = [check.name for check in result.checks if not check.passed]
        if reference is not None:
            run["failures"] += [
                f"gate:{name}" for name in gate.compare(gate.extract(result), reference)
            ]
        run["sizes"] = problem_sizes(cfg, result, Path(out), artifacts)
        if keep_result:
            run["result"] = result
    except Exception as err:  # a failing run is counted, not fatal
        run.setdefault("seconds", time.perf_counter() - start)
        run["failures"].append(f"raised {type(err).__name__}: {err}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return run


def problem_sizes(cfg, result, out: Path, artifacts) -> dict:
    """Problem sizes of one run, read from its result and its artifacts."""
    grid = result.bands.grid
    stationary = out / "stationary.csv"
    return {
        "n_t": n_t(result),
        "fibers": grid.n_nodes - grid.half_index,
        "gap_values": len(result.gap_values),
        "lambdas": len(result.spectrum.positive_values),
        "roots": len(result.scan.roots),
        "scan_warnings": len(result.scan.warnings),
        "model_dimension": result.model_dimension,
        "samples": int(result.ensemble.samples.size),
        "sweep_points": sweep_points(result, cfg.T),
        "artifact_bytes": sum(Path(p).stat().st_size for p in artifacts.paths.values()),
        "stationary_rows": (
            len(stationary.read_text().splitlines()) - 1 if stationary.is_file() else 0
        ),
    }


def trace_response(locations, weights, alpha: float, t: np.ndarray) -> np.ndarray:
    """F(t) = sum_k m_k [phi(lambda_k - t) + phi(-lambda_k - t)], Gaussian phi."""
    lam = np.asarray(locations, dtype=float)
    w = np.asarray(weights, dtype=float)
    out = np.empty(len(t))
    for lo in range(0, len(t), 256):
        tt = np.asarray(t[lo:lo + 256], dtype=float)[:, None]
        g = np.exp(-((lam - tt) / alpha) ** 2) + np.exp(-((-lam - tt) / alpha) ** 2)
        out[lo:lo + 256] = g @ w
    return out


def useful_root_ratio(result, alpha: float) -> float:
    """Share of scan roots where F exceeds 1e-12 of its largest value.

    The largest value is taken over the roots and the jump locations, where
    the peaks of F sit.
    """
    roots = np.asarray(result.scan.roots, dtype=float)
    if not len(roots):
        return 0.0
    spec = result.spectrum
    f_roots = trace_response(spec.positive_values, spec.multiplicities, alpha, roots)
    f_jumps = trace_response(
        spec.positive_values, spec.multiplicities, alpha, np.asarray(spec.positive_values)
    )
    peak = max(f_roots.max(), f_jumps.max() if len(f_jumps) else 0.0)
    return float((f_roots > 1e-12 * peak).sum()) / len(roots)


def n_t(result) -> int:
    return int(round(2.0 * result.trace.t_max / result.trace.h_t)) + 1


def sweep_points(result, T: float) -> int:
    """Points of the two E_step half sweeps (computed from the run's outputs)."""
    a, b = result.affine.a, result.affine.b
    mapped = {abs(a * lam + b) for lam in result.spectrum.positive_values}
    mapped.discard(0.0)
    points = {0.0, T} | {x for x in mapped if x < T} | {g for g in result.zeros.ordinates if g < T}
    return 2 * len(points)


def layer_metrics(spans, selfs, run_id: int, counts: dict, cfg, sizes: dict) -> dict:
    """Per-layer metrics of one traced run (time metrics in seconds)."""
    busy, duration, own, calls = defaultdict(float), defaultdict(float), defaultdict(float), Counter()
    for span, self_s in zip(spans, selfs):
        if span[2] != run_id:
            continue
        busy[span[1]] += self_s
        duration[span[0]] += span[5] - span[4]
        own[span[0]] += self_s
        calls[span[0]] += 1
    nt = sizes["n_t"]
    candidates = cfg.n_bands * cfg.N_kappa * cfg.N_H
    out = {f"{layer}.busy_s": busy[layer] for layer in
           ("floquet", "arithmetic", "gapspec", "tracekit", "shift", "matmodel", "zeta")}
    out.update({
        "floquet.fibers_solved": calls["floquet.fiber_eigenvalues"],
        "floquet.fiber_dim": 2 * cfg.M + 1,
        "arithmetic.samples": sizes["samples"],
        "gapspec.candidates": candidates,
        "gapspec.emitted": sizes["gap_values"],
        "gapspec.kept_ratio": sizes["gap_values"] / (2 * candidates),
        "gapspec.lambdas": sizes["lambdas"],
        "tracekit.factors_s": own["tracekit.arithmetic_factors"],
        "tracekit.local_factor_s": duration["tracekit.local_factor_grid"],
        "tracekit.local_factor_calls": calls["tracekit.local_factor_grid"],
        "tracekit.fiber_s": duration["tracekit.theta_fiber"],
        "tracekit.n_t": nt,
        "tracekit.exp_evals": nt * (cfg.n_bands * cfg.N_kappa + cfg.N_H + cfg.N_P * cfg.N_H),
        "tracekit.bytes_computed": COMPLEX_BYTES * nt * max(cfg.N_kappa, cfg.N_H),
        "shift.scan_points": counts.get("shift.scan_points", 0),
        "shift.deriv_calls": calls["shift.trace_response_derivative"],
        "shift.deriv_terms": counts.get("shift.deriv_terms", 0),
        "shift.roots": sizes["roots"],
        "shift.warnings": sizes["scan_warnings"],
        "matmodel.dimension": sizes["model_dimension"],
        "zeta.sweep_points": sizes["sweep_points"],
        "expcli.self_s": own["expcli.compute_run"],
        "expcli.write_s": duration["expcli.write_artifacts"],
        "expcli.artifact_bytes": sizes["artifact_bytes"],
        "expcli.stationary_rows": sizes["stationary_rows"],
    })
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(times: list[float]) -> dict | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if len(times) * (100 - p) / 100 >= 10:
            best = {"p": p, "value": float(np.percentile(times, p))}
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="workload config as JSON")
    parser.add_argument("--reference", required=True, help="reference file of the workload")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--spans", required=True, help="where to write the spans (trace 1)")
    args = parser.parse_args(argv)

    import diracgap
    if not Path(diracgap.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: diracgap imported from {diracgap.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    config = json.loads(args.config)
    cfg = expcli.parse_config(args.config)
    reference = gate.load(Path(args.reference), cfg.seed)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    runs = [verified_run(cfg, reference, workdir)]  # untimed warm-up
    warmup = runs[0]
    # Peak memory of a process that ran the workload once, as a CLI call does;
    # later runs in the loop only add allocator fragmentation.
    peak_rss_mb = _peak_rss_mb()
    timed, traced, last_result = [], [], None
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        if tracer is None:
            timed.append(verified_run(cfg, reference, workdir))
        else:
            # Alternate which side goes first so drift hits both alike.
            order = (False, True) if len(timed) % 2 == 0 else (True, False)
            for use_trace in order:
                if use_trace:
                    tracer.run = len(traced)
                    install_spans(tracer)
                    try:
                        run = verified_run(cfg, reference, workdir, tracer, keep_result=True)
                    finally:
                        tracer.restore()
                    last_result = run.pop("result") or last_result
                    traced.append(run)
                else:
                    timed.append(verified_run(cfg, reference, workdir))
        if time.perf_counter() - start >= args.seconds:
            break
    runs += timed + traced

    failed = [r for r in runs if r["failures"]]
    ok_times = [r["seconds"] for r in timed if not r["failures"]] or [r["seconds"] for r in timed]
    record = {
        "config": config,
        "gated_by_reference": reference is not None,
        "environment": environment(),
        "sizes": warmup["sizes"],
        "run_s": {
            "median": statistics.median(ok_times), "n": len(ok_times),
            "tail": tail_percentile(ok_times), "samples": ok_times,
        },
        "failed_frac": len(failed) / len(runs),
        "failures": sorted({f for r in failed for f in r["failures"]})[:10],
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_mb_after_loop": _peak_rss_mb(),
    }
    out = {"attempted": len(runs), "failed": len(failed), "record": record}

    if tracer is not None:
        selfs = self_times(tracer.spans)
        per_run = [
            layer_metrics(tracer.spans, selfs, i, tracer.counts[i], cfg, r["sizes"])
            for i, r in enumerate(traced) if r["sizes"] is not None
        ]
        layers = {}
        for name in per_run[0]:
            values = [m[name] for m in per_run]
            # Counts repeat exactly from run to run; times take the median.
            layers[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        layers["shift.useful_root_ratio"] = useful_root_ratio(last_result, cfg.alpha)
        traced_median = statistics.median(r["seconds"] for r in traced)
        layers["trace.overhead_frac"] = traced_median / statistics.median(
            r["seconds"] for r in timed) - 1.0
        self_sum = [sum(s for span, s in zip(tracer.spans, selfs) if span[2] == i)
                    for i in range(len(traced))]
        record["trace"] = {
            "traced_run_s": [r["seconds"] for r in traced],
            "self_time_sum_s": self_sum,
            "attributed_frac": statistics.median(
                s / r["seconds"] for s, r in zip(self_sum, traced)),
            "computed": ["tracekit.exp_evals", "tracekit.bytes_computed", "tracekit.n_t",
                         "zeta.sweep_points", "gapspec.candidates", "floquet.fiber_dim"],
        }
        out["layers"] = layers
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        Path(args.spans).write_text(json.dumps({
            "fields": ["name", "layer", "run", "parent", "start", "end"],
            "environment": record["environment"],
            "config": config,
            "spans": tracer.spans,
        }) + "\n")

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

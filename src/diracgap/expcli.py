"""Experiment configuration, orchestration, artifact emission, and the CLI.

A single JSON document configures the whole pipeline; an empty document is
the default configuration (Mathieu potential, M=32, N_kappa=201, n_bands=8,
N_P=20, N_H=20, epsilon=0.35, seed=12345, alpha=0.5, K=20, T=80).
Validation failures name the standing assumption they violate where one
applies (B: summability, C: even potential, G: monotone window).

A run executes the five pipeline steps (bands, ensemble, mass shifts, gap
filter, staircase), then the trace-formula cross-check, the matrix-model
verification, and the zero-alignment diagnostics, and finally writes the
artifact set with a manifest of content hashes.  Reruns of the same
configuration are byte-identical; no timestamps or environment state enter
any output.  Failed runs delete whatever partial artifacts were written.

CLI subcommands: bands, run, suite, plot, verify.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import arithmetic, gapspec, matmodel, tracekit, zeta
from .floquet import (
    BandStructure,
    PotentialSpec,
    QuasiMomentumGrid,
    compute_band_structure,
    select_reference_energy,
)
from .shift import (
    Staircase,
    StationaryScan,
    TestFunction,
    build_staircase,
    eval_staircase,
    stationary_scan,
)

VERSION = "0.1.0"

TRACE_REL_GAP = 1e-6
TRACE_IMAG_RESIDUE = 1e-10
PAIRING_TOL = 1e-10
KREIN_TOL = 1e-9
EULER_EXACT_TOL = 1e-12

MODEL_MAX_FIBERS = 128
MODEL_MAX_MODES = 16


class ValidationError(ValueError):
    """Configuration rejected; the message names the violated rule."""


@dataclass(frozen=True)
class ExperimentConfig:
    potential: PotentialSpec = field(default_factory=PotentialSpec.mathieu)
    M: int = 32
    N_kappa: int = 201
    n_bands: int = 8
    gap_index: int = 0
    N_P: int = 20
    N_H: int = 20
    epsilon: float = 0.35
    seed: int = 12345
    mode: str = "iid_uniform"
    alpha: float = 0.5
    K: int = 20
    T: float = 80.0
    h_t: float = 0.01
    t_max: float | None = None


_CONFIG_KEYS = {
    "potential", "M", "N_kappa", "n_bands", "gap_index", "N_P", "N_H",
    "epsilon", "seed", "mode", "alpha", "K", "T", "h_t", "t_max",
}
_POTENTIAL_KEYS = {"period", "cosine_coefficients"}


def _integer(doc: dict, key: str, default: int) -> int:
    """An integer value; a bool or a float with a fractional part is rejected."""
    value = doc.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(doc: dict, key: str, default: float) -> float:
    """A real value; a bool, a string or an integer beyond float range is rejected."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{key} must be finite, got an integer beyond float range") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as err:
        raise ValidationError(f"configuration is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValidationError("configuration must be a JSON object")

    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")

    pot_doc = doc.get("potential", {"period": 1.0, "cosine_coefficients": [2.0]})
    if not isinstance(pot_doc, dict):
        raise ValidationError("potential must be an object")
    if "sine_coefficients" in pot_doc or any(k.startswith("sine") for k in pot_doc):
        raise ValidationError(
            "Assumption C violated: the potential must be even; only "
            "cosine_coefficients are accepted"
        )
    pot_unknown = set(pot_doc) - _POTENTIAL_KEYS
    if pot_unknown:
        raise ValidationError(f"unknown potential keys: {sorted(pot_unknown)}")
    try:
        potential = PotentialSpec(
            period=float(pot_doc.get("period", 1.0)),
            cosine_coefficients=tuple(pot_doc.get("cosine_coefficients", [2.0])),
        )
    except ValueError as err:
        raise ValidationError(f"Assumption C violated: {err}") from err

    cfg = ExperimentConfig(
        potential=potential,
        M=_integer(doc, "M", 32),
        N_kappa=_integer(doc, "N_kappa", 201),
        n_bands=_integer(doc, "n_bands", 8),
        gap_index=_integer(doc, "gap_index", 0),
        N_P=_integer(doc, "N_P", 20),
        N_H=_integer(doc, "N_H", 20),
        epsilon=_real(doc, "epsilon", 0.35),
        seed=_integer(doc, "seed", 12345),
        mode=str(doc.get("mode", "iid_uniform")),
        alpha=_real(doc, "alpha", 0.5),
        K=_integer(doc, "K", 20),
        T=_real(doc, "T", 80.0),
        h_t=_real(doc, "h_t", 0.01),
        t_max=None if doc.get("t_max") is None else _real(doc, "t_max", None),
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if not cfg.epsilon > 0.0:
        raise ValidationError(
            "Assumption B violated: epsilon must be positive, otherwise "
            "sum_p p^-(1+epsilon) diverges"
        )
    if not cfg.alpha > 0.0 or not math.isfinite(cfg.alpha):
        raise ValidationError(
            "Assumption G violated: the Gaussian window width alpha must be positive"
        )
    if cfg.N_P < 1:
        raise ValidationError("N_P must be >= 1")
    if cfg.N_H < 1:
        raise ValidationError("N_H must be >= 1")
    if cfg.N_kappa < 3 or cfg.N_kappa % 2 == 0:
        raise ValidationError("N_kappa must be odd and >= 3 so kappa = 0 is a node")
    if cfg.M < 1:
        raise ValidationError("M must be >= 1")
    if cfg.M < cfg.potential.harmonic_count:
        raise ValidationError(
            f"M={cfg.M} must be >= the number of potential harmonics "
            f"R={cfg.potential.harmonic_count}"
        )
    if cfg.n_bands < 1 or cfg.n_bands > 2 * cfg.M:
        raise ValidationError(f"n_bands must lie in [1, 2M] = [1, {2 * cfg.M}]")
    if cfg.gap_index < 0:
        raise ValidationError("gap_index must be >= 0")
    if not 0 <= cfg.seed < 2**64:
        raise ValidationError("seed must fit in 64 unsigned bits")
    if cfg.mode not in arithmetic.MODES:
        raise ValidationError(f"mode must be one of {arithmetic.MODES}")
    if cfg.K < 2:
        raise ValidationError("K must be >= 2 to fit the affine alignment")
    n_zeros = len(zeta.load_zero_table("embedded"))
    if cfg.K > n_zeros:
        raise ValidationError(f"K={cfg.K} exceeds the {n_zeros} zeros of the bundled table")
    if not (cfg.T > 0.0 and math.isfinite(2.0 * cfg.T)):
        raise ValidationError("T must be positive and 2T finite (the window is [-T, T])")
    if not (cfg.h_t > 0.0 and math.isfinite(cfg.h_t)):
        raise ValidationError("h_t must be positive and finite")
    if cfg.t_max is not None and not (cfg.t_max > 0.0 and math.isfinite(cfg.t_max)):
        raise ValidationError("t_max must be positive and finite when given")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON for hashing and manifests; parse round-trips exactly."""
    doc = {
        "potential": {
            "period": cfg.potential.period,
            "cosine_coefficients": list(cfg.potential.cosine_coefficients),
        },
        "M": cfg.M,
        "N_kappa": cfg.N_kappa,
        "n_bands": cfg.n_bands,
        "gap_index": cfg.gap_index,
        "N_P": cfg.N_P,
        "N_H": cfg.N_H,
        "epsilon": cfg.epsilon,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "alpha": cfg.alpha,
        "K": cfg.K,
        "T": cfg.T,
        "h_t": cfg.h_t,
        "t_max": cfg.t_max,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RunResult:
    """Everything a run computes, before any artifact is written."""

    config: ExperimentConfig
    bands: BandStructure
    e_star: float
    ensemble: arithmetic.HeckeEnsemble
    family: arithmetic.CoefficientFamily
    shifts: arithmetic.MassShifts
    band_set: gapspec.DiracBandSet
    gap_values: list
    spectrum: gapspec.GapSpectrum
    staircase: Staircase
    trace: tracekit.TraceReport
    chiral: matmodel.ChiralReport
    krein: matmodel.KreinReport
    norm_report: matmodel.NormBoundReport
    model_dimension: int
    zeros: zeta.ZeroTable
    affine: zeta.AffineMap
    diagnostics: zeta.DiagnosticsReport
    scan: StationaryScan
    checks: tuple[Check, ...]

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _scan_grid(staircase: Staircase, alpha: float) -> np.ndarray:
    if not staircase.locations:
        return np.linspace(-1.0, 1.0, 9)
    hi = max(staircase.locations) + 5.0 * alpha
    step = alpha / 8.0
    half = min(int(math.ceil(hi / step)), 10000)
    k = np.arange(-half, half + 1)
    return k * (hi / half)


def _nested_sizes(n_primes: int) -> tuple[int, ...]:
    sizes = sorted({max(1, n_primes // 4), max(1, n_primes // 2), n_primes})
    return tuple(sizes)


def compute_run(cfg: ExperimentConfig) -> RunResult:
    """Execute the full pipeline for one configuration (no file output)."""
    grid = QuasiMomentumGrid(n_nodes=cfg.N_kappa, period=cfg.potential.period)
    bands = compute_band_structure(cfg.potential, grid, cfg.M, cfg.n_bands)
    e_star = select_reference_energy(bands, cfg.gap_index)

    primes = arithmetic.generate_primes(cfg.N_P)
    ensemble = arithmetic.sample_hecke_ensemble(primes, cfg.N_H, cfg.seed, cfg.mode)
    family = arithmetic.CoefficientFamily(epsilon=cfg.epsilon)
    shifts = arithmetic.mass_shifts(ensemble, family)

    band_set = gapspec.dirac_band_set(bands, e_star)
    gap_values = gapspec.fiber_gap_eigenvalues(bands, e_star, shifts, band_set)
    spectrum = gapspec.aggregate_spectrum(gap_values)
    staircase = build_staircase(spectrum)

    phi = TestFunction(alpha=cfg.alpha)
    trace = tracekit.compare_trace_representations(
        bands, e_star, shifts, ensemble, family, phi, h_max=cfg.h_t, t_max=cfg.t_max
    )

    model = matmodel.assemble(
        bands, e_star, shifts, max_fibers=MODEL_MAX_FIBERS, max_modes=MODEL_MAX_MODES
    )
    chiral = matmodel.verify_chiral(model)
    spec_hi = float(np.abs(model.arith_spectrum()).max()) if model.dimension else 1.0
    probe_grid = np.linspace(-1.1 * spec_hi, 1.1 * spec_hi, 201)
    krein = matmodel.krein_from_counting(model, probe_grid, phi)
    norm_report = matmodel.norm_bound_checks(
        family, primes, ensemble, _nested_sizes(len(primes))
    )

    zeros = zeta.load_zero_table("embedded", min_count=cfg.K)
    if len(spectrum.positive_values) >= cfg.K:
        affine = zeta.fit_affine(spectrum.positive_values, zeros, cfg.K)
        diag = zeta.diagnostics(
            affine, spectrum.positive_values, zeros, cfg.K, cfg.T,
            multiplicities=spectrum.multiplicities,
        )
    else:
        # Degenerate spectrum (e.g. a near-zero mass deformation): no K-point
        # fit exists, so plot against the identity map and flag it; E_step is
        # still well defined.
        affine = zeta.AffineMap(a=1.0, b=0.0, flagged=True)
        e_step, _, _ = zeta.staircase_mismatch(
            affine(np.array(spectrum.positive_values)),
            spectrum.multiplicities, zeros, cfg.T,
        )
        diag = zeta.DiagnosticsReport(
            K=0, deviations=(), mae=0.0, max_abs=0.0, e_step=e_step,
            T=cfg.T, affine=affine, flags=("insufficient-spectrum",),
        )
    scan = stationary_scan(spectrum, phi, _scan_grid(staircase, cfg.alpha))

    checks = _consistency_checks(cfg, gap_values, staircase, trace, chiral, krein,
                                 norm_report, diag)
    return RunResult(
        config=cfg, bands=bands, e_star=e_star, ensemble=ensemble, family=family,
        shifts=shifts, band_set=band_set, gap_values=gap_values, spectrum=spectrum,
        staircase=staircase, trace=trace, chiral=chiral, krein=krein,
        norm_report=norm_report, model_dimension=model.dimension, zeros=zeros,
        affine=affine, diagnostics=diag, scan=scan, checks=checks,
    )


def _consistency_checks(cfg, gap_values, staircase, trace, chiral, krein,
                        norm_report, diag) -> tuple[Check, ...]:
    checks = []

    def add(name, passed, detail):
        checks.append(Check(name=name, passed=bool(passed), detail=detail))

    # A trace far below the quadrature noise floor (eps-scale of the
    # integrand's L1 mass) cannot be resolved relatively; agreement at the
    # floor is the honest criterion there.
    noise_floor = 1e-12 * trace.l1_mass
    trace_ok = trace.rel_gap < TRACE_REL_GAP or trace.abs_gap <= noise_floor
    add("trace_agreement", trace_ok,
        f"rel_gap={trace.rel_gap:.3e} (tol {TRACE_REL_GAP}), "
        f"abs_gap={trace.abs_gap:.3e} (noise floor {noise_floor:.3e})")
    add("trace_imag_residue", trace.imag_residue < TRACE_IMAG_RESIDUE,
        f"residue={trace.imag_residue:.3e} (tol {TRACE_IMAG_RESIDUE})")
    add("chiral_anticommutator", chiral.anticommutator_norm == 0.0,
        f"norm={chiral.anticommutator_norm!r} (must be exactly 0)")
    add("chiral_pairing", chiral.pairing_defect < PAIRING_TOL,
        f"defect={chiral.pairing_defect:.3e} (tol {PAIRING_TOL})")
    add("reflection_involution_commutes", chiral.reflection_commute_defect == 0.0,
        f"commute defect={chiral.reflection_commute_defect!r}, "
        f"defect from -D={chiral.reflection_anticommute_defect:.3e}")
    add("krein_identity", krein.gap < KREIN_TOL,
        f"gap={krein.gap:.3e} (tol {KREIN_TOL})")
    add("norm_bounds", norm_report.all_bounds_hold,
        f"tail_norms={[f'{x:.3e}' for x in norm_report.tail_norms]}")

    values = sorted(g.value for g in gap_values)
    negated = sorted(-g.value for g in gap_values)
    add("spectrum_symmetric", values == negated,
        f"{len(values)} emitted values")

    rng = np.random.default_rng(0)
    odd_ok = True
    for x in rng.uniform(0.0, 2.0, size=64):
        if eval_staircase(staircase, -x) != -eval_staircase(staircase, x):
            odd_ok = False
            break
    add("staircase_odd", odd_ok, "64 random probes, exact integer oddness")

    finite = all(
        math.isfinite(v)
        for v in (diag.mae, diag.max_abs, diag.e_step, diag.affine.a, diag.affine.b)
    )
    add("diagnostics_finite", finite,
        f"MAE={diag.mae:.3f}, max={diag.max_abs:.3f}, E_step={diag.e_step:.3f}")

    if cfg.mode == "constant_one":
        add("euler_factorization_exact", trace.euler_gap < EULER_EXACT_TOL,
            f"euler_gap={trace.euler_gap:.3e} (tol {EULER_EXACT_TOL})")
    return tuple(checks)


# ---------------------------------------------------------------------------
# artifact emission

ARTIFACT_NAMES = (
    "bands.csv", "gaps.csv", "ensemble.csv", "massshifts.csv", "spectrum.csv",
    "spectrum_fibers.csv", "staircase.csv", "stationary.csv",
    "trace_report.json", "matmodel_report.json", "diagnostics.json",
    "staircase.svg", "manifest.json",
)


@dataclass(frozen=True)
class RunArtifacts:
    directory: Path
    paths: dict
    result: RunResult


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(r) for r in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _bands_rows(bands: BandStructure):
    for n in range(bands.n_bands):
        for j, kappa in enumerate(bands.grid.nodes):
            yield (str(n), _fmt(kappa), _fmt(bands.bands[n, j]))


def _gaps_rows(bands: BandStructure):
    for gap in bands.gaps:
        yield (str(gap.index), _fmt(gap.lower), _fmt(gap.upper), _fmt(gap.width))


def _staircase_rows(staircase: Staircase):
    locs = staircase.locations
    cum = staircase.cumulative
    rows = []
    for k in range(len(locs) - 1, -1, -1):
        before = cum[k]
        after = cum[k - 1] if k else 0
        rows.append((_fmt(-locs[k]), str(-before)))
        rows.append((_fmt(-locs[k]), str(-after)))
    for k in range(len(locs)):
        before = cum[k - 1] if k else 0
        rows.append((_fmt(locs[k]), str(before)))
        rows.append((_fmt(locs[k]), str(cum[k])))
    return rows


def _staircase_value(jumps: np.ndarray, cum: np.ndarray, x: float) -> int:
    """Odd right-continuous staircase at x.

    `jumps` holds the ascending positive jump locations and `cum` the heights
    after 0, 1, 2, ... jumps (cum[0] = 0).
    """
    value = int(cum[np.searchsorted(jumps, abs(x), side="right")])
    return -value if x < 0 else value


def render_svg(
    staircase: Staircase, zeros: zeta.ZeroTable, affine: zeta.AffineMap, T: float
) -> str:
    """Deterministic SVG of the two aligned odd staircases on [-T, T]."""
    width, height, pad = 900.0, 480.0, 45.0

    mapped = sorted(
        (abs(float(affine(lam))), w)
        for lam, w in zip(staircase.locations, staircase.weights)
        if affine(lam) != 0.0
    )
    model_jumps = np.array([v for v, _ in mapped], dtype=float)
    model_cum = np.cumsum([0] + [w for _, w in mapped])
    zero_jumps = np.array(zeros.ordinates, dtype=float)
    zero_cum = np.arange(len(zero_jumps) + 1)

    y_max = max(
        _staircase_value(model_jumps, model_cum, T),
        _staircase_value(zero_jumps, zero_cum, T),
        1,
    )

    def x_pix(x):
        return pad + (x + T) / (2.0 * T) * (width - 2.0 * pad)

    def y_pix(y):
        return height / 2.0 - y * (height / 2.0 - pad) / y_max

    def step_path(jumps, cum):
        breaks = sorted({-x for x in jumps if x < T} | {x for x in jumps if x < T})
        points = [(-T, _staircase_value(jumps, cum, -T))]
        for b in breaks:
            before = _staircase_value(jumps, cum, b if b < 0 else np.nextafter(b, -np.inf))
            after = _staircase_value(jumps, cum, b if b > 0 else np.nextafter(b, np.inf))
            points.append((b, before))
            points.append((b, after))
        points.append((T, _staircase_value(jumps, cum, T)))
        coords = " ".join(f"{x_pix(x):.3f},{y_pix(y):.3f}" for x, y in points)
        return coords

    model_path = step_path(model_jumps, model_cum)
    zero_path = step_path(zero_jumps, zero_cum)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{pad:.1f}" y1="{height / 2:.1f}" x2="{width - pad:.1f}" '
        f'y2="{height / 2:.1f}" stroke="#999" stroke-width="1"/>',
        f'<line x1="{x_pix(0.0):.3f}" y1="{pad:.1f}" x2="{x_pix(0.0):.3f}" '
        f'y2="{height - pad:.1f}" stroke="#999" stroke-width="1"/>',
        f'<polyline fill="none" stroke="#d62728" stroke-width="1.2" points="{zero_path}"/>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.2" points="{model_path}"/>',
        f'<text x="{pad:.1f}" y="20" font-family="monospace" font-size="13" '
        f'fill="#1f77b4">mapped gap staircase (a={affine.a:.6g}, b={affine.b:.6g})</text>',
        f'<text x="{pad:.1f}" y="36" font-family="monospace" font-size="13" '
        f'fill="#d62728">signed zero staircase</text>',
        f'<text x="{width - pad - 120:.1f}" y="{height - 12:.1f}" font-family="monospace" '
        f'font-size="12" fill="#555">window [-{T:.6g}, {T:.6g}]</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def write_artifacts(result: RunResult, out_dir) -> RunArtifacts:
    """Write the full artifact set; on any failure remove what was written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    paths: dict[str, Path] = {}

    def emit(name: str, writer) -> None:
        path = out / name
        writer(path)
        written.append(path)
        paths[name] = path

    cfg = result.config
    try:
        emit("bands.csv", lambda p: _write_csv(p, "n,kappa,energy", _bands_rows(result.bands)))
        emit("gaps.csv", lambda p: _write_csv(p, "n,beta_n,alpha_n1,width", _gaps_rows(result.bands)))
        emit("ensemble.csv", lambda p: _write_csv(
            p, "p,m,lambda",
            (
                (str(prime), str(m + 1), _fmt(result.ensemble.samples[i, m]))
                for i, prime in enumerate(result.ensemble.primes)
                for m in range(result.ensemble.n_modes)
            ),
        ))
        emit("massshifts.csv", lambda p: _write_csv(
            p, "m,mass",
            ((str(m + 1), _fmt(v)) for m, v in enumerate(result.shifts.values)),
        ))
        emit("spectrum.csv", lambda p: _write_csv(
            p, "k,lambda_k,multiplicity",
            (
                (str(k + 1), _fmt(lam), str(mult))
                for k, (lam, mult) in enumerate(
                    zip(result.spectrum.positive_values, result.spectrum.multiplicities)
                )
            ),
        ))
        emit("spectrum_fibers.csv", lambda p: _write_csv(
            p, "k,n,j,m",
            (
                (str(k + 1), str(n), str(j), str(m))
                for k, fibers in enumerate(result.spectrum.provenance)
                for (n, j, m) in fibers
            ),
        ))
        emit("staircase.csv", lambda p: _write_csv(p, "lambda,xi", _staircase_rows(result.staircase)))
        emit("stationary.csv", lambda p: _write_csv(
            p, "t_root,kind",
            ((_fmt(r), k) for r, k in zip(result.scan.roots, result.scan.kinds)),
        ))
        emit("trace_report.json", lambda p: _write_json(p, {
            "theta_fiber": result.trace.theta_fiber,
            "theta_separated": result.trace.theta_separated,
            "rel_gap": result.trace.rel_gap,
            "abs_gap": result.trace.abs_gap,
            "l1_mass": result.trace.l1_mass,
            "euler_gap": result.trace.euler_gap,
            "t_max": result.trace.t_max,
            "h_t": result.trace.h_t,
            "imag_residue": result.trace.imag_residue,
            "resolved_prefactor": result.trace.resolved_prefactor,
        }))
        emit("matmodel_report.json", lambda p: _write_json(p, {
            "anticommutator_norm": result.chiral.anticommutator_norm,
            "pairing_defect": result.chiral.pairing_defect,
            "reflection_commute_defect": result.chiral.reflection_commute_defect,
            "reflection_anticommute_defect": result.chiral.reflection_anticommute_defect,
            "krein_gap": result.krein.gap,
            "tail_norms": list(result.norm_report.tail_norms),
            "tail_bounds": list(result.norm_report.tail_bounds),
            "norm_bounds_hold": result.norm_report.all_bounds_hold,
            "dimension": result.model_dimension,
        }))
        emit("diagnostics.json", lambda p: _write_json(p, {
            "K": result.diagnostics.K,
            "a": result.affine.a,
            "b": result.affine.b,
            "MAE": result.diagnostics.mae,
            "max_abs": result.diagnostics.max_abs,
            "E_step": result.diagnostics.e_step,
            "T": result.diagnostics.T,
            "flags": list(result.diagnostics.flags),
            "scan_warnings": list(result.scan.warnings),
            "stationary_roots": len(result.scan.roots),
        }))
        emit("staircase.svg", lambda p: p.write_text(
            render_svg(result.staircase, result.zeros, result.affine, cfg.T)
        ))

        hashes = {
            name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
            for name in sorted(paths)
        }
        emit("manifest.json", lambda p: _write_json(p, {
            "config": json.loads(serialize_config(cfg)),
            "config_hash": config_hash(cfg),
            "artifact_hashes": hashes,
            "version": VERSION,
        }))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return RunArtifacts(directory=out, paths=paths, result=result)


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunArtifacts:
    """Compute the pipeline and write all artifacts into out_dir."""
    result = compute_run(cfg)
    return write_artifacts(result, out_dir)


class SuiteError(RuntimeError):
    """A scaling-suite row failed; the message names the failing value."""


SUITE_AXES = ("N_P", "N_H", "seed")


def scaling_suite(axis: str, values, base: ExperimentConfig, out_dir) -> Path:
    """One diagnostics row per axis value, written as suite_<axis>.csv."""
    if axis not in SUITE_AXES:
        raise ValidationError(f"axis must be one of {SUITE_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ValidationError("values must be nonempty")
    rows = []
    for v in values:
        cfg = replace(base, **{axis: int(v)})
        try:
            result = compute_run(cfg)
        except Exception as err:
            raise SuiteError(f"suite aborted at {axis}={v}: {err}") from err
        d = result.diagnostics
        rows.append((str(int(v)), _fmt(d.mae), _fmt(d.max_abs), _fmt(d.e_step)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"suite_{axis}.csv"
    _write_csv(path, "axis_value,MAE,max_abs,E_step", rows)
    return path


# ---------------------------------------------------------------------------
# command line

def _load_cli_config(path: str | None) -> ExperimentConfig:
    text = Path(path).read_text() if path else "{}"
    return parse_config(text)


def _print_checks(result: RunResult) -> None:
    """One line per consistency check, then one per scan warning."""
    for check in result.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    for warning in result.scan.warnings:
        print(f"WARN scan: {warning}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracgap",
        description="Floquet bands, prime-mass gap spectra, spectral-shift "
        "staircases, and zero-alignment diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("bands", "compute the band structure and write bands.csv / gaps.csv"),
        ("run", "execute the full pipeline and write all artifacts"),
        ("suite", "run a scaling suite along one axis"),
        ("plot", "render the aligned staircase SVG only"),
        ("verify", "run the pipeline and print one line per consistency check"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", default=None, help="path to a JSON configuration")
        if name != "verify":
            p.add_argument("--out", default="out", help="output directory")
        if name == "suite":
            p.add_argument("--axis", required=True, choices=SUITE_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated integer axis values")
    args = parser.parse_args(argv)

    try:
        cfg = _load_cli_config(args.config)
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.command == "bands":
        grid = QuasiMomentumGrid(n_nodes=cfg.N_kappa, period=cfg.potential.period)
        bands = compute_band_structure(cfg.potential, grid, cfg.M, cfg.n_bands)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "bands.csv", "n,kappa,energy", _bands_rows(bands))
        _write_csv(out / "gaps.csv", "n,beta_n,alpha_n1,width", _gaps_rows(bands))
        print(f"wrote {out / 'bands.csv'} and {out / 'gaps.csv'}")
        return 0

    if args.command == "suite":
        try:
            values = [int(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            print("error: --values must be comma-separated integers", file=sys.stderr)
            return 2
        try:
            path = scaling_suite(args.axis, values, cfg, args.out)
        except (SuiteError, ValidationError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print(f"wrote {path}")
        return 0

    try:
        result = compute_run(cfg)
    except Exception as err:
        print(f"error: {type(err).__module__}.{type(err).__name__}: {err}", file=sys.stderr)
        return 1

    if args.command == "plot":
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        svg = out / "staircase.svg"
        svg.write_text(render_svg(result.staircase, result.zeros, result.affine, cfg.T))
        print(f"wrote {svg}")
        return 0

    if args.command == "verify":
        _print_checks(result)
        return 0 if result.all_checks_pass else 1

    # run
    artifacts = write_artifacts(result, args.out)
    _print_checks(result)
    print(f"wrote {len(artifacts.paths)} artifacts to {artifacts.directory}")
    return 0 if result.all_checks_pass else 1


if __name__ == "__main__":
    sys.exit(main())

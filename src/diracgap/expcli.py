"""Experiment configuration, orchestration, artifact emission, and the CLI.

A single JSON document configures the whole pipeline; its keys are the
fields of ExperimentConfig, and an empty document is the default
configuration.  Each value is coerced by the rule of its field's type.
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
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import arithmetic, gapspec, matmodel, tracekit, zeta
from .floquet import (
    GAP_TOLERANCE,
    BandStructure,
    PotentialSpec,
    QuasiMomentumGrid,
    compute_band_structure,
    fiber_eigenvalues,
    select_reference_energy,
)
from .shift import Staircase, StationaryScan, TestFunction, build_staircase, stationary_scan

VERSION = "0.1.0"

TRACE_REL_GAP = 1e-6
KREIN_TOL = 1e-9
EULER_EXACT_TOL = 1e-12
KAPPA_REFLECTION_TOL = 1e-12

# Largest t grid a configuration may ask for; M=64, N_kappa=1001, n_bands=16 uses 18,201.
MAX_T_POINTS = 2**22

MODEL_MAX_FIBERS = 128
MODEL_MAX_MODES = 16


class ValidationError(ValueError):
    """Configuration rejected; the message names the violated rule."""


@dataclass(frozen=True)
class ExperimentConfig:
    """The configuration schema: each field is a JSON key, with its default."""

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


_DEFAULT = ExperimentConfig()


def _integer(key: str, value) -> int:
    """An integer value; a bool, a fraction or an integer beyond float range is rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    _real(key, value)  # rejects an integer beyond float range
    return int(value)


def _real(key: str, value) -> float:
    """A real value; a bool, a string or an integer beyond float range is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{key} must be finite, got an integer beyond float range") from None


def _potential(key: str, doc) -> PotentialSpec:
    """An even potential; omitted keys take the default potential's values."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{key} must be an object")
    if any(k.startswith("sine") for k in doc):
        raise ValidationError(
            "Assumption C violated: the potential must be even; only "
            "cosine_coefficients are accepted"
        )
    unknown = set(doc) - {f.name for f in fields(PotentialSpec)}
    if unknown:
        raise ValidationError(f"unknown {key} keys: {sorted(unknown)}")
    coefficients = doc.get("cosine_coefficients", _DEFAULT.potential.cosine_coefficients)
    if not isinstance(coefficients, (list, tuple)):
        raise ValidationError(f"{key}.cosine_coefficients must be a list, got {coefficients!r}")
    period = _real(f"{key}.period", doc.get("period", _DEFAULT.potential.period))
    coefficients = tuple(_real(f"{key}.cosine_coefficients[{i}]", c)
                         for i, c in enumerate(coefficients))
    try:
        return PotentialSpec(period=period, cosine_coefficients=coefficients)
    except ValueError as err:
        raise ValidationError(f"{key}: {err}") from err


# The coercion rule of each ExperimentConfig field, by its annotated type.
_COERCE = {
    "PotentialSpec": _potential,
    "int": _integer,
    "float": _real,
    "float | None": lambda key, value: None if value is None else _real(key, value),
    "str": lambda key, value: str(value),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except ValueError as err:  # JSONDecodeError, or an integer literal over the digit limit
        raise ValidationError(f"configuration is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValidationError("configuration must be a JSON object")

    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")
    cfg = replace(_DEFAULT, **{f.name: _COERCE[f.type](f.name, doc[f.name])
                               for f in fields(ExperimentConfig) if f.name in doc})
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
    # largest |kappa + 2 pi m / L|: its square is the largest fiber diagonal entry
    wave_max = (2.0 * cfg.M + 1.0) * math.pi / cfg.potential.period
    if not math.isfinite(4.0 * wave_max * wave_max):
        raise ValidationError(
            f"period L={cfg.potential.period:g} is too small for M={cfg.M}: the largest fiber "
            "diagonal entry ((2M+1) pi / L)^2 must stay a factor 4 inside the float range"
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
    n_zeros = len(zeta.load_zero_table())
    if cfg.K > n_zeros:
        raise ValidationError(f"K={cfg.K} exceeds the {n_zeros} zeros of the bundled table")
    if not (cfg.T > 0.0 and math.isfinite(2.0 * cfg.T)):
        raise ValidationError("T must be positive and 2T finite (the window is [-T, T])")
    if not (cfg.h_t > 0.0 and math.isfinite(cfg.h_t)):
        raise ValidationError("h_t must be positive and finite")
    if cfg.t_max is not None and not (cfg.t_max > 0.0 and math.isfinite(cfg.t_max)):
        raise ValidationError("t_max must be positive and finite when given")
    _check_t_grid(cfg, 0.0)


def _check_t_grid(cfg: ExperimentConfig, q_max: float) -> None:
    """Reject a t grid over MAX_T_POINTS; h bounds default_t_grid's step if q_max <= max|E - E*|."""
    T = cfg.t_max or tracekit.tail_half_width(cfg.alpha, cfg.n_bands, cfg.potential.period)
    h = min(cfg.h_t, 2.0 * math.pi / (q_max + 8.0 * cfg.alpha + 1.0))
    if not (math.isfinite(T / h) and 2 * math.ceil(T / h) + 1 <= MAX_T_POINTS):
        raise ValidationError(f"the t grid needs 2*ceil(T/h)+1 > MAX_T_POINTS={MAX_T_POINTS} points "
                              f"(half-width T={T:.6g}, step h <= {h:.6g} from h_t, alpha "
                              f"and the band energies up to {q_max:.6g} from E*)")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON for hashing and manifests; parse round-trips exactly."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


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
    gap_values: gapspec.GapValues
    spectrum: gapspec.GapSpectrum
    staircase: Staircase
    trace: tracekit.TraceReport
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


def compute_run(cfg: ExperimentConfig) -> RunResult:
    """Execute the full pipeline for one configuration (no file output)."""
    grid = QuasiMomentumGrid(n_nodes=cfg.N_kappa, period=cfg.potential.period)
    bands = compute_band_structure(cfg.potential, grid, cfg.M, cfg.n_bands)
    try:
        e_star = select_reference_energy(bands, cfg.gap_index)
    except ValueError as err:  # NoOpenGapError, or gap_index beyond the open gaps
        raise ValidationError(
            f"gap_index={cfg.gap_index} must select an open gap (width > {GAP_TOLERANCE:g}): {err}"
        ) from err
    _check_t_grid(cfg, float(np.abs(bands.bands - e_star).max()))

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
        bands, e_star, shifts, phi, h_max=cfg.h_t, t_max=cfg.t_max
    )

    model = matmodel.assemble(
        bands, e_star, shifts, max_fibers=MODEL_MAX_FIBERS, max_modes=MODEL_MAX_MODES
    )
    krein = matmodel.krein_from_counting(model, phi)
    norm_report = matmodel.norm_bound_checks(family, primes, shifts)

    zeros = zeta.load_zero_table()
    diag = zeta.diagnostics(spectrum.positive_values, spectrum.multiplicities, zeros,
                            cfg.K, cfg.T)
    scan = stationary_scan(spectrum, phi, _scan_grid(staircase, cfg.alpha))

    checks = _consistency_checks(cfg, bands, staircase, trace, krein, norm_report, diag)
    return RunResult(
        config=cfg, bands=bands, e_star=e_star, ensemble=ensemble, family=family,
        shifts=shifts, band_set=band_set, gap_values=gap_values, spectrum=spectrum,
        staircase=staircase, trace=trace, krein=krein, norm_report=norm_report,
        model_dimension=model.dimension, zeros=zeros, affine=diag.affine,
        diagnostics=diag, scan=scan, checks=checks,
    )


def _kappa_reflection_defect(bands: BandStructure) -> tuple[float, int]:
    """Largest |E - E_mirrored| / max(1, |E|) at -pi/L, a middle node and the node left of 0.

    Bands are solved for kappa >= 0 and mirrored, which holds only for an even potential.
    """
    nodes = sorted({0, bands.grid.half_index // 2, bands.grid.half_index - 1})
    solved = np.array([fiber_eigenvalues(bands.potential, bands.grid.nodes[j], bands.truncation,
                                         bands.n_bands) for j in nodes]).T
    defect = np.abs(solved - bands.bands[:, nodes]) / np.maximum(1.0, np.abs(solved))
    return float(defect.max()), len(nodes)


def _consistency_checks(cfg, bands, staircase, trace, krein, norm_report,
                        diag) -> tuple[Check, ...]:
    checks = []

    def add(name, passed, detail):
        checks.append(Check(name=name, passed=bool(passed), detail=detail))

    # A trace far below the quadrature noise floor (eps-scale of the
    # integrand's L1 mass) cannot be resolved relatively; agreement at the
    # floor is the honest criterion there.  The Fourier side leaves out the
    # bands the window cannot see, so the floor also holds their bounded mass.
    noise_floor = 1e-12 * trace.l1_mass + trace.band_prune_bound
    trace_ok = trace.rel_gap < TRACE_REL_GAP or trace.abs_gap <= noise_floor
    add("trace_agreement", trace_ok,
        f"rel_gap={trace.rel_gap:.3e} (tol {TRACE_REL_GAP}), "
        f"abs_gap={trace.abs_gap:.3e} (noise floor {noise_floor:.3e})")
    add("krein_identity", krein.gap < KREIN_TOL,
        f"gap={krein.gap:.3e} (tol {KREIN_TOL})")
    add("norm_bounds", norm_report.all_bounds_hold,
        f"tail_norms={[f'{x:.3e}' for x in norm_report.tail_norms]}")

    defect, n_nodes = _kappa_reflection_defect(bands)
    add("kappa_reflection", defect <= KAPPA_REFLECTION_TOL,
        f"defect={defect:.3e} at {n_nodes} directly solved negative kappa nodes "
        f"(tol {KAPPA_REFLECTION_TOL} max(1, |E|))")

    x = np.random.default_rng(0).uniform(0.0, 2.0, size=64)
    add("staircase_odd", np.array_equal(staircase(-x), -staircase(x)),
        "64 random probes, exact integer oddness")

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


def _write_csv(path: Path, header: str, lines) -> None:
    """Write a header and the lines, joined in blocks of 4096 lines to bound memory."""
    lines = iter(lines)
    with path.open("w") as f:
        f.write(header + "\n")
        while block := list(islice(lines, 4096)):
            f.write("\n".join(block) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _bands_lines(bands: BandStructure):
    nodes = bands.grid.nodes.tolist()
    return (f"{n},{kappa:.17g},{e:.17g}"
            for n, row in enumerate(bands.bands) for kappa, e in zip(nodes, row.tolist()))


def _gaps_lines(bands: BandStructure) -> list[str]:
    return [f"{g.index},{g.lower:.17g},{g.upper:.17g},{g.width:.17g}" for g in bands.gaps]


def _staircase_lines(staircase: Staircase) -> list[str]:
    """Two points per jump (before, after), from -lambda_max up to lambda_max."""
    cum = staircase.heights.tolist()
    pos = [(x, c) for k, x in enumerate(staircase.locations) for c in (cum[k], cum[k + 1])]
    return [f"{-x:.17g},{-c}" for x, c in reversed(pos)] + [f"{x:.17g},{c}" for x, c in pos]


def render_svg(
    staircase: Staircase, zeros: zeta.ZeroTable, affine: zeta.AffineMap, T: float
) -> str:
    """Deterministic SVG of the two aligned odd staircases on [-T, T]."""
    width, height, pad = 900.0, 480.0, 45.0

    model = zeta.mapped_staircase(affine(np.array(staircase.locations)), staircase.weights)
    zero = zeta.zero_staircase(zeros)
    y_max = max(int(model(T)), int(zero(T)), 1)

    def x_pix(x):
        return pad + (x + T) / (2.0 * T) * (width - 2.0 * pad)

    def y_pix(y):
        return height / 2.0 - y * (height / 2.0 - pad) / y_max

    def step_path(s: Staircase) -> str:
        """(-T, xi(-T)), then the values before and after each jump in (-T, T), then (T, xi(T))."""
        jumps = np.array(s.locations)
        b = np.unique(np.concatenate([-jumps[jumps < T], jumps[jumps < T]]))
        before = s(np.where(b < 0, b, np.nextafter(b, -np.inf)))
        after = s(np.where(b > 0, b, np.nextafter(b, np.inf)))
        xs = [-T] + np.repeat(b, 2).tolist() + [T]
        ys = [int(s(-T))] + np.stack([before, after], axis=1).ravel().tolist() + [int(s(T))]
        return " ".join(f"{x_pix(x):.3f},{y_pix(y):.3f}" for x, y in zip(xs, ys))

    model_path = step_path(model)
    zero_path = step_path(zero)
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
        written.append(path)  # before writing: a writer failing midway leaves a partial file
        writer(path)
        paths[name] = path

    cfg = result.config
    try:
        emit("bands.csv", lambda p: _write_csv(p, "n,kappa,energy", _bands_lines(result.bands)))
        emit("gaps.csv", lambda p: _write_csv(p, "n,beta_n,alpha_n1,width", _gaps_lines(result.bands)))
        emit("ensemble.csv", lambda p: _write_csv(p, "p,m,lambda", (
            f"{prime},{m},{x:.17g}"
            for prime, row in zip(result.ensemble.primes, result.ensemble.samples)
            for m, x in enumerate(row.tolist(), start=1)
        )))
        emit("massshifts.csv", lambda p: _write_csv(p, "m,mass", (
            f"{m},{v:.17g}" for m, v in enumerate(result.shifts.values.tolist(), start=1)
        )))
        emit("spectrum.csv", lambda p: _write_csv(p, "k,lambda_k,multiplicity", (
            f"{k},{lam:.17g},{mult}" for k, (lam, mult) in enumerate(
                zip(result.spectrum.positive_values, result.spectrum.multiplicities), start=1)
        )))
        emit("spectrum_fibers.csv", lambda p: _write_csv(p, "k,n,j,m", (
            f"{k},{n},{j},{m}" for k, fibers in enumerate(result.spectrum.provenance, start=1)
            for (n, j, m) in fibers
        )))
        emit("staircase.csv", lambda p: _write_csv(p, "lambda,xi", _staircase_lines(result.staircase)))
        emit("stationary.csv", lambda p: _write_csv(p, "t_root,kind", (
            f"{r:.17g},{k}" for r, k in zip(result.scan.roots, result.scan.kinds)
        )))
        emit("trace_report.json", lambda p: _write_json(p, asdict(result.trace)))
        emit("matmodel_report.json", lambda p: _write_json(p, {
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

        hashes = {}
        for name in sorted(paths):  # streamed: no artifact is held in memory whole
            with paths[name].open("rb") as f:
                hashes[name] = hashlib.file_digest(f, "sha256").hexdigest()
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


SUITE_AXES = ("N_P", "N_H", "seed")


def scaling_suite(axis: str, values, base: ExperimentConfig, out_dir) -> Path:
    """One diagnostics row per axis value, written as suite_<axis>.csv.

    Every row's configuration is validated before any row is computed; a
    rejected row raises ValidationError naming its value.
    """
    if axis not in SUITE_AXES:
        raise ValidationError(f"axis must be one of {SUITE_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ValidationError("values must be nonempty")
    configs = [replace(base, **{axis: int(v)}) for v in values]
    for v, cfg in zip(values, configs):
        try:
            validate_config(cfg)
        except ValidationError as err:
            raise ValidationError(f"suite row {axis}={v}: {err}") from None
    rows = []
    for v, cfg in zip(values, configs):
        d = compute_run(cfg).diagnostics
        rows.append(f"{int(v)},{d.mae:.17g},{d.max_abs:.17g},{d.e_step:.17g}")
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
        _write_csv(out / "bands.csv", "n,kappa,energy", _bands_lines(bands))
        _write_csv(out / "gaps.csv", "n,beta_n,alpha_n1,width", _gaps_lines(bands))
        print(f"wrote {out / 'bands.csv'} and {out / 'gaps.csv'}")
        return 0

    try:
        if args.command == "suite":
            try:
                values = [int(v) for v in args.values.split(",") if v.strip()]
            except ValueError:
                raise ValidationError("--values must be comma-separated integers") from None
            print(f"wrote {scaling_suite(args.axis, values, cfg, args.out)}")
            return 0
        result = compute_run(cfg)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
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

"""Experiment configuration, orchestration, artifact emission, and the CLI.

A single JSON document configures the whole pipeline: its keys are the
fields of ExperimentConfig, and {} is the default.  ExperimentConfig checks
itself when built (by parse_config, directly or by dataclasses.replace): it
coerces each value by its field type's rule, then names in a ValidationError
the rule broken, and the assumption where one applies (B: summability, C:
even potential, G: monotone window); its rules read only its values and the
bundled zero table.  The stage that derives a quantity checks its rule: the
bands whether the selected gap is open, the trace whether its t grid fits
MAX_T_POINTS; compute_run raises both as ValidationError, `bands` checks neither.

A run executes the five pipeline steps (bands, ensemble, mass shifts, gap
filter, staircase), then the trace-formula cross-check and the zero-alignment
diagnostics, and finally writes the artifact set with a manifest of content
hashes.  Each consistency check is one Check record, a value against a
budget; run, verify and each suite row print one line per record, and
diagnostics.json holds them all.  Reruns of the same configuration are
byte-identical; no timestamps or environment state enter any output.
Writers build each file's whole text; _emit alone writes every output file
of every subcommand, removing what it wrote if one fails.

CLI subcommands: bands, run, suite, verify.  Each prints one `error:`
line and exits 2 on a rejected configuration, 1 on any other failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

# CPython's built-in SHA-256, hashlib's own fallback: hashlib would load OpenSSL, about
# 3.5 MiB of resident memory in every process, for the same digests.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    from _sha256 import sha256  # CPython 3.11

from . import arithmetic, gapspec, tracekit, zeta
from .floquet import (
    BandStructure,
    PotentialSpec,
    compute_band_structure,
    select_reference_energy,
    truncation_bound,
)
from .shift import Staircase, TestFunction

VERSION = "0.1.0"

TRACE_REL_GAP = 1e-6


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

    def __post_init__(self):
        """Coerce each value by its type's rule; a broken rule raises ValidationError naming it."""
        for f in fields(self):
            object.__setattr__(self, f.name, _COERCE[f.type](f.name, getattr(self, f.name)))
        if not self.epsilon > 0.0 or not math.isfinite(self.epsilon):
            raise ValidationError(
                "Assumption B violated: epsilon must be finite and positive, got "
                f"{self.epsilon!r}; sum_p p^-(1+epsilon) diverges for epsilon <= 0"
            )
        if not self.alpha > 0.0 or not math.isfinite(self.alpha):
            raise ValidationError(
                "Assumption G violated: the Gaussian window width alpha must be positive"
            )
        if self.N_P < 1:
            raise ValidationError("N_P must be >= 1")
        if self.N_H < 1:
            raise ValidationError("N_H must be >= 1")
        if self.N_kappa < 3 or self.N_kappa % 2 == 0:
            raise ValidationError("N_kappa must be odd and >= 3 so kappa = 0 is a node")
        if self.M < max(1, self.potential.harmonic_count):
            raise ValidationError(f"M={self.M} must be >= max(1, R) with R="
                                  f"{self.potential.harmonic_count} potential harmonics")
        # largest |kappa + 2 pi m / L|: its square is the largest fiber diagonal entry
        wave_max = (2.0 * self.M + 1.0) * math.pi / self.potential.period
        if not math.isfinite(4.0 * wave_max * wave_max):
            raise ValidationError(
                f"period L={self.potential.period:g} is too small for M={self.M}: the largest fiber "
                "diagonal entry ((2M+1) pi / L)^2 must stay a factor 4 inside the float range"
            )
        if self.n_bands < 1 or self.n_bands > 2 * self.M:
            raise ValidationError(f"n_bands must lie in [1, 2M] = [1, {2 * self.M}]")
        if self.gap_index < 0:
            raise ValidationError("gap_index must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")
        if self.mode not in arithmetic.MODES:
            raise ValidationError(f"mode must be one of {arithmetic.MODES}")
        if self.K < 2:
            raise ValidationError("K must be >= 2 to fit the affine alignment")
        n_zeros = len(zeta.load_zero_table())
        if self.K > n_zeros:
            raise ValidationError(f"K={self.K} exceeds the {n_zeros} zeros of the bundled table")
        if not (self.T > 0.0 and math.isfinite(2.0 * self.T)):
            raise ValidationError("T must be positive and 2T finite (the window is [-T, T])")


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
    """An even potential, as is or from an object whose omitted keys take the default's values."""
    if isinstance(doc, PotentialSpec):
        return doc
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
    coefficients = doc.get("cosine_coefficients", PotentialSpec.mathieu().cosine_coefficients)
    if not isinstance(coefficients, (list, tuple)):
        raise ValidationError(f"{key}.cosine_coefficients must be a list, got {coefficients!r}")
    period = _real(f"{key}.period", doc.get("period", PotentialSpec.mathieu().period))
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
    "str": lambda key, value: str(value),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON configuration document; ExperimentConfig checks its values."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except ValueError as err:  # JSONDecodeError, or an integer literal over the digit limit
        raise ValidationError(f"configuration is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValidationError("configuration must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")
    return ExperimentConfig(**doc)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON for hashing and manifests; parse round-trips exactly."""
    return _json(asdict(cfg))


def config_hash(cfg: ExperimentConfig) -> str:
    return sha256(serialize_config(cfg).encode()).hexdigest()


@dataclass(frozen=True)
class Check:
    """A consistency check: a value against its budget, and what the value means."""

    name: str
    value: float
    budget: float
    meaning: str

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.budget)  # a NaN value fails

    def __str__(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.value:.4g} "
                f"{'<=' if self.passed else '>'} {self.budget:.4g} ({self.meaning})")


@dataclass(frozen=True)
class StationaryScan:
    """The retired stationary scan, always empty: perfbench/worker.py reads its two fields,
    and ROADMAP item 5b deletes it."""

    roots: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunResult:
    """Everything a run computes, before any artifact is written."""

    config: ExperimentConfig
    bands: BandStructure
    e_star: float
    ensemble: arithmetic.HeckeEnsemble
    shifts: arithmetic.MassShifts
    gap_values: gapspec.GapValues
    spectrum: gapspec.GapSpectrum
    staircase: Staircase
    trace: tracekit.TraceReport
    model_dimension: int
    zeros: zeta.ZeroTable
    affine: zeta.AffineMap
    diagnostics: zeta.DiagnosticsReport
    checks: tuple[Check, ...]
    scan: StationaryScan = field(default=StationaryScan(), init=False)

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def compute_run(cfg: ExperimentConfig) -> RunResult:
    """Execute the full pipeline for one configuration (no file output)."""
    bands = compute_band_structure(cfg.potential, cfg.N_kappa, cfg.M, cfg.n_bands)
    try:
        e_star = select_reference_energy(bands, cfg.gap_index)
    except ValueError as err:  # gap_index selects no open gap
        raise ValidationError(str(err)) from err

    primes = arithmetic.generate_primes(cfg.N_P)
    ensemble = arithmetic.sample_hecke_ensemble(primes, cfg.N_H, cfg.seed, cfg.mode)
    shifts = arithmetic.mass_shifts(ensemble, cfg.epsilon)
    try:  # first of the stages after the shifts, so a t grid too large is rejected first
        trace = tracekit.compare_trace_representations(
            bands, e_star, shifts, TestFunction(alpha=cfg.alpha))
    except tracekit.GridError as err:
        raise ValidationError(str(err)) from None

    gap_values = gapspec.fiber_gap_eigenvalues(bands, e_star, shifts)
    spectrum = gapspec.aggregate_spectrum(gap_values)
    staircase = Staircase(spectrum.positive_values, spectrum.multiplicities)  # shares the arrays

    zeros = zeta.load_zero_table()
    diag = zeta.diagnostics(staircase.locations, staircase.weights, zeros, cfg.K, cfg.T)

    checks = _consistency_checks(cfg, bands, shifts, trace)
    return RunResult(
        config=cfg, bands=bands, e_star=e_star, ensemble=ensemble, shifts=shifts,
        gap_values=gap_values, spectrum=spectrum, staircase=staircase, trace=trace,
        model_dimension=2 * bands.n_bands * bands.grid.n_nodes * len(shifts), zeros=zeros,
        affine=diag.affine, diagnostics=diag, checks=checks,
    )


def _band_truncation_check(bands: BandStructure) -> Check:
    """Whether the truncation M resolves the band edges the gap filter uses."""
    return Check("band_truncation", truncation_bound(bands), gapspec.MEMBERSHIP_MARGIN,
                 f"bound on max_n E_n(M) - E_n from the potential, M={bands.truncation}")


def _euler_budget(trace: tracekit.TraceReport, shifts: arithmetic.MassShifts) -> float:
    """eps (4 (t_max + h) max|m| + N_H + 6): in constant_one mode A_joint and A_prod are both
    e^{i t m}, and each operation of their routes errs by at most one ulp, eps.  The phase t m:
    A_prod rounds k h and its product with m (2 eps t m); A_joint does so for two parts of t
    whose sizes sum to at most t_max + h (tables: b R h, r h; Taylor: segment centre, offset).
    Values: one exp in A_prod; two in A_joint, their product (2 sqrt 2 < 3) and the mean (N_H)."""
    m = float(np.abs(shifts.values).max())
    return float(np.finfo(float).eps) * (4.0 * (trace.t_max + trace.h_t) * m + len(shifts) + 6)


def _consistency_checks(cfg, bands, shifts, trace) -> tuple[Check, ...]:
    # A trace far below the quadrature noise floor (eps-scale of the integrand's L1 mass)
    # cannot be resolved relatively: agreement at the floor is the criterion there.
    noise_floor = 1e-12 * trace.l1_mass
    checks = [
        Check("trace_agreement", trace.abs_gap,
              max(TRACE_REL_GAP * max(abs(trace.theta_fiber), np.finfo(float).tiny), noise_floor),
              f"|theta_fiber - theta_separated|; budget max({TRACE_REL_GAP} |theta_fiber|, "
              "1e-12 l1_mass)"),
        _band_truncation_check(bands),
    ]
    if cfg.mode == "constant_one":
        checks.append(Check("euler_factorization_exact", trace.euler_gap,
                            _euler_budget(trace, shifts), "max_t |A_joint - A_prod|; budget "
                            "eps (4 (t_max + h_t) max|m| + N_H + 6), the rounding of both"))
    return tuple(checks)


# ---------------------------------------------------------------------------
# artifact emission: _csv and _json build each file's text, and _emit alone writes it

@dataclass(frozen=True)
class RunArtifacts:
    paths: dict


def _emit(out_dir, texts: dict[str, str]) -> dict[str, Path]:
    """Write each text's UTF-8 bytes to out_dir/name in order; on any failure remove every file."""
    out = Path(out_dir)
    paths: dict[str, Path] = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            paths[name] = out / name  # registered first: a failed write may leave a partial file
            paths[name].write_bytes(text.encode())
    except BaseException:
        for path in paths.values():
            path.unlink(missing_ok=True)
        raise
    return paths


def _csv(header: str, lines) -> str:
    """The header and the lines, each ending in a newline."""
    return "\n".join([header, *lines]) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _band_texts(bands: BandStructure) -> dict[str, str]:
    """bands.csv (kappa >= 0 only) and gaps.csv, written by both `run` and `bands`."""
    nodes = [f"{kappa:.17g}" for kappa in bands.grid.nodes[bands.grid.half_index:].tolist()]
    beta, alpha = bands.uppers.tolist(), bands.lowers.tolist()
    return {
        "bands.csv": _csv("n,kappa,energy", (
            f"{n},{kappa},{e:.17g}"
            for n, row in enumerate(bands.bands) for kappa, e in zip(nodes, row.tolist())
        )),
        "gaps.csv": _csv("n,beta_n,alpha_n1,width", [
            f"{n},{beta[n]:.17g},{alpha[n + 1]:.17g},{alpha[n + 1] - beta[n]:.17g}"
            for n in bands.gaps.tolist()
        ]),
    }


def write_artifacts(result: RunResult, out_dir) -> RunArtifacts:
    """Write the full artifact set, manifest last; on any failure remove what was written."""
    spectrum = result.spectrum
    # k of each fiber row; a row off kappa = 0 also stands for its mirror, as in bands.csv
    group = np.searchsorted(spectrum.starts, np.arange(len(spectrum.fibers)), side="right")
    texts = _band_texts(result.bands) | {
        "massshifts.csv": _csv("m,mass", (
            f"{m},{v:.17g}" for m, v in enumerate(result.shifts.values.tolist(), start=1)
        )),
        # lambda_k is rounded to 12 decimals: repr, the shortest text that parses back to
        # it, drops the noise digits that .17g writes after them.
        "spectrum.csv": _csv("k,lambda_k,multiplicity", (
            f"{k},{lam!r},{mult}" for k, (lam, mult) in enumerate(zip(
                spectrum.positive_values.tolist(), spectrum.multiplicities.tolist()), start=1)
        )),
        "spectrum_fibers.csv": _csv("k,n,j,m", (
            f"{k},{n},{j},{m}" for k, n, j, m in np.column_stack([group, spectrum.fibers]).tolist()
        )),
        "trace_report.json": _json(asdict(result.trace)),
        "diagnostics.json": _json(asdict(result.diagnostics) | {
            "checks": [asdict(c) | {"passed": c.passed} for c in result.checks]}),
    }
    texts["manifest.json"] = _json({
        "config": asdict(result.config),
        "config_hash": config_hash(result.config),
        "artifact_hashes": {name: sha256(texts[name].encode()).hexdigest()
                            for name in sorted(texts)},
        "version": VERSION,
    })
    return RunArtifacts(paths=_emit(out_dir, texts))


SUITE_AXES = ("N_P", "N_H", "seed")


def scaling_suite(axis: str, values, base: ExperimentConfig, out_dir, *, report=None) -> Path:
    """One diagnostics row per axis value, written as suite_<axis>.csv.

    Every row's value is coerced and its configuration validated before any
    row is computed; a rejected row raises ValidationError naming its value.
    Each row's RunResult goes to `report`, if given, as soon as it is computed.
    """
    if axis not in SUITE_AXES:
        raise ValidationError(f"axis must be one of {SUITE_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ValidationError("values must be nonempty")
    configs = []
    for v in values:
        try:
            configs.append(replace(base, **{axis: v}))
        except ValidationError as err:
            raise ValidationError(f"suite row {axis}={v}: {err}") from None
    rows = []
    for cfg in configs:
        result = compute_run(cfg)
        if report is not None:
            report(result)
        d = result.diagnostics
        rows.append(f"{getattr(cfg, axis)},{d.mae:.17g},{d.max_abs:.17g},{d.e_step:.17g}")
    name = f"suite_{axis}.csv"
    return _emit(out_dir, {name: _csv("axis_value,MAE,max_abs,E_step", rows)})[name]


# ---------------------------------------------------------------------------
# command line

def _report(result: RunResult, prefix: str = "") -> bool:
    """Print one line per check; whether every check passed."""
    for c in result.checks:
        print(f"{prefix}{c}")
    return result.all_checks_pass


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
        try:
            text = Path(args.config).read_bytes().decode() if args.config else "{}"
        except OSError as err:
            raise ValidationError(str(err)) from None
        except UnicodeDecodeError as err:
            raise ValidationError(f"configuration is not UTF-8 text: {err}") from None
        cfg = parse_config(text)

        if args.command == "bands":
            bands = compute_band_structure(cfg.potential, cfg.N_kappa, cfg.M, cfg.n_bands)
            check = _band_truncation_check(bands)
            print(check)
            paths = _emit(args.out, _band_texts(bands))
            print(f"wrote {paths['bands.csv']} and {paths['gaps.csv']}")
            return 0 if check.passed else 1
        passed = []  # whether each computed run passed its checks
        if args.command == "suite":
            try:
                values = [int(v) for v in args.values.split(",") if v.strip()]
            except ValueError:
                raise ValidationError("--values must be comma-separated integers") from None
            path = scaling_suite(args.axis, values, cfg, args.out, report=lambda r: passed.append(
                _report(r, f"{args.axis}={getattr(r.config, args.axis)}: ")))
            print(f"wrote {path}")
        else:
            result = compute_run(cfg)
            passed.append(_report(result))
            if args.command == "run":
                paths = write_artifacts(result, args.out).paths
                print(f"wrote {len(paths)} artifacts to {Path(args.out)}")
        return 0 if all(passed) else 1
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"error: {type(err).__module__}.{type(err).__name__}: {err}", file=sys.stderr)
        return 1

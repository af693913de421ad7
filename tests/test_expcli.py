import builtins
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracgap import arithmetic, expcli, floquet, tracekit, zeta
from diracgap.arithmetic import generate_primes, sample_hecke_ensemble
from diracgap.expcli import (
    StationaryScan,
    ValidationError,
    compute_run,
    config_hash,
    main,
    parse_config,
    scaling_suite,
    serialize_config,
)
from diracgap.floquet import compute_band_structure, fiber_eigenvalues, truncation_bound
from diracgap.shift import Staircase
from oracles import mirrored_bands

REDUCED = '{"M": 8, "N_kappa": 41, "n_bands": 4, "N_P": 5, "N_H": 5, "K": 5, "T": 40.0}'
ARTIFACTS = (
    "bands.csv", "gaps.csv", "massshifts.csv", "spectrum.csv", "spectrum_fibers.csv",
    "trace_report.json", "diagnostics.json", "manifest.json",
)
# the fields of zeta.DiagnosticsReport and the run's checks
DIAGNOSTICS_KEYS = ["K", "T", "affine", "checks", "e_step", "flags", "mae", "max_abs"]


@pytest.fixture(scope="module")
def reduced_run():
    return compute_run(parse_config(REDUCED))


def tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_empty_document_gives_defaults():
    cfg = parse_config("{}")
    assert cfg.potential.cosine_coefficients == (2.0,)
    assert cfg.potential.period == 1.0
    assert (cfg.M, cfg.N_kappa, cfg.n_bands, cfg.gap_index) == (32, 201, 8, 0)
    assert (cfg.N_P, cfg.N_H, cfg.epsilon, cfg.seed) == (20, 20, 0.35, 12345)
    assert (cfg.mode, cfg.alpha, cfg.K, cfg.T) == ("iid_uniform", 0.5, 20, 80.0)
    assert parse_config("") == cfg
    assert len(fields(expcli.ExperimentConfig)) == 13


def test_assumption_named_rejections():
    with pytest.raises(ValidationError, match="Assumption B"):
        parse_config('{"epsilon": -1}')
    with pytest.raises(ValidationError, match="Assumption B"):
        parse_config('{"epsilon": 0}')
    with pytest.raises(ValidationError, match="Assumption B"):
        parse_config('{"epsilon": Infinity}')
    with pytest.raises(ValidationError, match="Assumption B"):
        expcli.ExperimentConfig(epsilon=math.inf)
    with pytest.raises(ValidationError, match="Assumption C"):
        parse_config('{"potential": {"sine_coefficients": [1.0]}}')
    with pytest.raises(ValidationError, match="period must be positive and finite"):
        parse_config('{"potential": {"period": -2.0}}')
    with pytest.raises(ValidationError, match="Assumption G"):
        parse_config('{"alpha": 0.0}')


def test_structural_rejections():
    for doc, frag in [
        ('{"N_H": 0}', "N_H"),
        ('{"N_P": 0}', "N_P"),
        ('{"N_kappa": 200}', "odd"),
        ('{"M": 2, "n_bands": 5}', "n_bands"),
        ('{"M": 0}', r"M=0 must be >= max\(1, R\) with R=1 potential harmonics"),
        ('{"M": 0, "potential": {"cosine_coefficients": []}}',
         r"M=0 must be >= max\(1, R\) with R=0 potential harmonics"),
        ('{"mode": "gaussian"}', "mode"),
        ('{"K": 1}', "K"),
        ('{"T": -3}', "T"),
        ('{"seed": -1}', "seed"),
        ('{"unknown_key": 1}', "unknown"),
        ('{"potential": {"foo": 1}}', "unknown potential"),
        ('{"potential": 5}', "potential must be an object"),
        ('{"M": 1, "potential": {"cosine_coefficients": [1.0, 1.0]}}',
         r"M=1 must be >= max\(1, R\) with R=2 potential harmonics"),
        ('{"gap_index": -1}', "gap_index must be >= 0"),
        ("[1,2]", "object"),
        ("{not json", "JSON"),
    ]:
        with pytest.raises(ValidationError, match=frag):
            parse_config(doc)


def test_config_round_trip():
    for doc in ("{}", REDUCED, '{"mode": "constant_one", "epsilon": 7.5}'):
        cfg = parse_config(doc)
        assert parse_config(serialize_config(cfg)) == cfg
    a = config_hash(parse_config("{}"))
    b = config_hash(parse_config('{"seed": 54321}'))
    assert a != b


def test_run_experiment_writes_full_artifact_set(tmp_path, reduced_run):
    arts = expcli.write_artifacts(reduced_run, tmp_path / "run")
    assert list(arts.paths) == list(ARTIFACTS)  # written in this order, manifest last
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(ARTIFACTS)
    assert not (tmp_path / "run" / "stationary.csv").exists()  # the scan is retired
    assert reduced_run.scan == StationaryScan() == StationaryScan(roots=(), warnings=())
    diag = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
    assert sorted(diag) == DIAGNOSTICS_KEYS
    spectrum_csv = (tmp_path / "run" / "spectrum.csv").read_text().splitlines()
    assert spectrum_csv[0] == "k,lambda_k,multiplicity"
    assert len(spectrum_csv) > 1  # nonempty spectrum
    assert reduced_run.all_checks_pass


@pytest.mark.parametrize("doc", [REDUCED, '{"mode": "constant_one"}'],
                         ids=["reduced", "constant_one"])
def test_diagnostics_json_is_the_diagnostics_record_and_the_checks(tmp_path, doc):
    # The file is asdict(DiagnosticsReport) plus the checks, every float with its bits;
    # constant_one's record flags insufficient-spectrum.
    result = compute_run(parse_config(doc))
    expcli.write_artifacts(result, tmp_path)
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag.pop("checks") == [asdict(c) | {"passed": c.passed} for c in result.checks]
    record = asdict(result.diagnostics)
    assert diag == record | {"flags": list(record["flags"])}
    assert bool(diag["flags"]) == ("constant_one" in doc)


# The default run, three larger ensembles or grids (bands_wide is perfbench's workload),
# the constant_one run (which flags insufficient-spectrum) and two cheaper windows or grids.
RETIRED_SCAN_CONFIGS = {
    "default": {}, "primes_1000": {"N_P": 1000}, "modes_500": {"N_H": 500},
    "bands_wide": {"M": 64, "N_kappa": 1001, "n_bands": 16}, "constant_one": {"mode": "constant_one"},
    "alpha_0.1": {"alpha": 0.1}, "kappa_3": {"N_kappa": 3},
}


@pytest.mark.parametrize("doc", RETIRED_SCAN_CONFIGS.values(), ids=RETIRED_SCAN_CONFIGS)
def test_no_run_writes_or_prints_the_retired_scan(tmp_path, capsys, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"wrote 8 artifacts to {tmp_path / 'r'}"
    assert [ln for ln in out if ln.startswith(("PASS", "FAIL"))] == out[:-1]  # no WARN line
    assert sorted(p.name for p in (tmp_path / "r").iterdir()) == sorted(ARTIFACTS)
    diag = json.loads((tmp_path / "r" / "diagnostics.json").read_text())
    assert sorted(diag) == DIAGNOSTICS_KEYS
    assert diag["flags"] == (["insufficient-spectrum"] if doc.get("mode") == "constant_one" else [])


def test_the_retired_scan_record_is_empty_frozen_and_not_settable(reduced_run):
    scan = reduced_run.scan
    assert scan == StationaryScan() and (scan.roots, scan.warnings) == ((), ())
    assert [f.name for f in fields(StationaryScan)] == ["roots", "warnings"]
    with pytest.raises(AttributeError):
        scan.roots = (1.0,)
    # compute_run passes no scan, and no caller can: the field takes no argument
    assert [f.name for f in fields(expcli.RunResult) if not f.init] == ["scan"]
    with pytest.raises(ValueError, match="init=False"):
        replace(reduced_run, scan=StationaryScan(roots=(1.0,)))


def test_manifest_hashes_and_config_echo(tmp_path, reduced_run):
    arts = expcli.write_artifacts(reduced_run, tmp_path / "m")
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(reduced_run.config)
    assert manifest["version"] == expcli.VERSION
    assert parse_config(json.dumps(manifest["config"])) == reduced_run.config
    for name, digest in manifest["artifact_hashes"].items():
        assert hashlib.sha256((tmp_path / "m" / name).read_bytes()).hexdigest() == digest
    assert sorted(manifest["artifact_hashes"]) == sorted(
        n for n in ARTIFACTS if n != "manifest.json"
    )


def test_spectrum_csv_rebuilds_the_staircase(tmp_path, default_run):
    # xi is the odd cumulative sum of the multiplicities over the jumps +-lambda_k
    expcli.write_artifacts(default_run, tmp_path)
    _, lam, mult = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1, unpack=True)

    def xi(x):
        return np.sign(x) * np.array([mult[lam <= abs(v)].sum() for v in x])

    assert len(lam) > 1
    for x in (lam, -lam):
        probes = np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, 2.0 * x)])
        assert np.array_equal(default_run.staircase(probes), xi(probes))


@pytest.mark.parametrize("doc", ["{}", '{"N_H": 500, "seed": 3}'])
def test_spectrum_csv_writes_the_rounded_values_in_their_shortest_form(tmp_path, doc):
    # lambda_k is rounded to 12 decimals: its text parses back bitwise, and below
    # 2^52 / 10^12 ~ 4503.6, where a 12-decimal value has a double of its own, it
    # shows no digit past the 12th decimal (.17g wrote 0.27727211622600001).
    run = compute_run(parse_config(doc))
    expcli.write_artifacts(run, tmp_path)
    text = [row.split(",")[1] for row in (tmp_path / "spectrum.csv").read_text().splitlines()[1:]]
    assert np.array_equal(np.array([float(v) for v in text]), run.spectrum.positive_values)
    assert all(-Decimal(v).as_tuple().exponent <= 12 for v in text if abs(float(v)) < 4503.6)


@pytest.mark.parametrize("doc", [REDUCED, REDUCED[:-1] + ', "seed": 18446744073709551615}',
                                 REDUCED[:-1] + ', "mode": "constant_one"}'])
def test_manifest_config_regenerates_the_ensemble_bitwise(tmp_path, doc):
    result = compute_run(parse_config(doc))
    expcli.write_artifacts(result, tmp_path)
    cfg = json.loads((tmp_path / "manifest.json").read_text())["config"]
    ensemble = sample_hecke_ensemble(generate_primes(cfg["N_P"]), cfg["N_H"], cfg["seed"],
                                     cfg["mode"])
    assert ensemble.samples.tobytes() == result.ensemble.samples.tobytes()


def test_counts_keep_their_whole_grid_meaning(default_run):
    # The bands and gap values hold kappa >= 0 only; every count still counts
    # the whole kappa grid.  The numbers are those of the run that stored both halves.
    r = default_run
    assert len(r.gap_values) == 432
    assert r.model_dimension == 2 * 8 * 201 * 20 == 64320
    assert r.spectrum.multiplicities.tolist() == [2] * 98 + [1] * 20
    # the spectrum lists its kappa >= 0 fibers only; each (n, j, m) off kappa = 0 also stands
    # for its mirror (n, N_kappa - 1 - j, m), and that rule rebuilds the whole grid's 216, once
    fibers = [tuple(f) for f in r.spectrum.fibers.tolist()]
    assert len(fibers) == 118
    assert int(r.bands.grid.copies(r.spectrum.fibers[:, 1]).sum()) == 216
    whole = fibers + [(n, 200 - j, m) for n, j, m in fibers if j > 100]
    assert len(set(whole)) == len(whole) == 216
    assert {(n, 200 - j, m) for n, j, m in whole} == set(whole)
    assert sum(j == 100 for _, j, _ in fibers) == 20  # kappa = 0 is its own mirror


def test_spectrum_fibers_rows_hold_kappa_half_and_count_each_multiplicity(tmp_path, default_run):
    # Like bands.csv, spectrum_fibers.csv writes kappa >= 0 only: a row off kappa = 0 stands
    # for its mirror fiber too, so a group's rows count its multiplicity by the grid's copies.
    expcli.write_artifacts(default_run, tmp_path / "d")
    rows = np.loadtxt(tmp_path / "d" / "spectrum_fibers.csv", delimiter=",", skiprows=1,
                      dtype=np.int64)
    spectrum = np.loadtxt(tmp_path / "d" / "spectrum.csv", delimiter=",", skiprows=1)
    grid = default_run.bands.grid
    k, j = rows[:, 0], rows[:, 2]
    assert j.min() >= grid.half_index
    counted = np.bincount(k, weights=grid.copies(j), minlength=len(spectrum) + 1)
    assert counted.tolist() == [0] + spectrum[:, 2].tolist()


def test_compute_run_evaluates_each_eta_row_once(monkeypatch):
    # one mass_shifts call evaluates eta_p once per prime row; the run keeps those rows
    calls, shifts = [], arithmetic.mass_shifts
    monkeypatch.setattr(arithmetic, "mass_shifts",
                        lambda ens, eps: calls.append((ens.primes, eps)) or shifts(ens, eps))
    result = compute_run(parse_config(REDUCED.replace('"N_P": 5', '"N_P": 40')))
    assert calls == [(generate_primes(40), result.config.epsilon)]
    assert result.shifts.terms.shape == (40, result.config.N_H)


def test_reruns_are_byte_identical(tmp_path):
    cfg = parse_config(REDUCED)
    expcli.write_artifacts(compute_run(cfg), tmp_path / "a")
    expcli.write_artifacts(compute_run(cfg), tmp_path / "b")
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def fail_write_midway(monkeypatch, name):
    """Make the write of the file `name` write half its bytes and then raise; the returned list
    receives the names in its directory at that moment."""
    write_bytes, present = Path.write_bytes, []

    def failing(path, data):
        if path.name != name:
            return write_bytes(path, data)
        write_bytes(path, data[:len(data) // 2])
        present.extend(sorted(p.name for p in path.parent.iterdir()))
        raise OSError("disk full (simulated)")

    monkeypatch.setattr(Path, "write_bytes", failing)
    return present


def test_failed_run_removes_partial_artifacts(tmp_path, reduced_run, monkeypatch):
    present = fail_write_midway(monkeypatch, "diagnostics.json")  # the 7th file, after six
    out = tmp_path / "broken"
    with pytest.raises(OSError, match="disk full"):
        expcli.write_artifacts(reduced_run, out)
    assert present == sorted(ARTIFACTS[:7])
    assert list(out.iterdir()) == []


def test_writer_failing_midway_leaves_no_partial_file(tmp_path, reduced_run, monkeypatch):
    fail_write_midway(monkeypatch, "spectrum.csv")
    out = tmp_path / "broken"
    with pytest.raises(OSError, match="disk full"):
        expcli.write_artifacts(reduced_run, out)
    assert list(out.iterdir()) == []


def test_failing_manifest_leaves_no_file(tmp_path, reduced_run, monkeypatch):
    present = fail_write_midway(monkeypatch, "manifest.json")  # written last, after seven
    out = tmp_path / "broken"
    with pytest.raises(OSError, match="disk full"):
        expcli.write_artifacts(reduced_run, out)
    assert present == sorted(ARTIFACTS)
    assert list(out.iterdir()) == []


def test_failing_text_builder_creates_no_output_directory(tmp_path, capsys, monkeypatch):
    # every text is built before _emit creates the directory
    def failing(*args):
        raise RuntimeError("render failed (simulated)")

    monkeypatch.setattr(expcli, "_band_texts", failing)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    out = tmp_path / "broken"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "error: builtins.RuntimeError: render failed (simulated)" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_hashes_the_bytes_written_without_reading_any_back(
        tmp_path, reduced_run, monkeypatch):
    out = (tmp_path / "out").resolve()

    def no_digest(*args):
        raise AssertionError("an artifact was hashed by reading it back")

    def guarded(opener):
        def open_(file, mode="r", *args, **kwargs):
            if (isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+")
                    and Path(file).resolve().is_relative_to(out)):
                raise AssertionError(f"{file} was opened for reading")
            return opener(file, mode, *args, **kwargs)
        return open_

    monkeypatch.setattr(hashlib, "file_digest", no_digest)
    monkeypatch.setattr(builtins, "open", guarded(builtins.open))
    monkeypatch.setattr(io, "open", guarded(io.open))
    monkeypatch.setattr(Path, "open", guarded(Path.open))
    paths = expcli.write_artifacts(reduced_run, out).paths
    monkeypatch.undo()
    assert sorted(p.name for p in out.iterdir()) == sorted(paths) == sorted(ARTIFACTS)
    hashes = json.loads((out / "manifest.json").read_text())["artifact_hashes"]
    assert hashes == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                      for name in sorted(ARTIFACTS[:-1])}


@pytest.mark.parametrize("command,name", [
    (["bands"], "gaps.csv"),
    (["suite", "--axis", "N_H", "--values", "5"], "suite_N_H.csv"),
])
def test_cli_writer_failing_midway_leaves_no_file(tmp_path, capsys, monkeypatch, command, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    fail_write_midway(monkeypatch, name)
    out = tmp_path / "broken"
    assert main([*command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "error: builtins.OSError: disk full (simulated)" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["bands", "run"])
def test_cli_output_under_a_regular_file_exits_1(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    not_a_dir = tmp_path / "notadir"
    not_a_dir.write_text("")
    assert main([command, "--config", str(cfg_path), "--out", str(not_a_dir / "x")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: builtins.NotADirectoryError: ")
    assert not_a_dir.read_text() == ""


def test_csv_float_format_is_17_digits(tmp_path, reduced_run):
    arts = expcli.write_artifacts(reduced_run, tmp_path / "fmt")
    line = (tmp_path / "fmt" / "bands.csv").read_text().splitlines()[2]
    _, kappa, energy = line.split(",")
    grid = reduced_run.bands.grid
    assert float(kappa) == grid.nodes[grid.half_index + 1]  # bands.csv starts at kappa = 0
    assert float(energy) == reduced_run.bands.bands[0, 1]  # round-trips exactly


def test_suite_single_row_matches_standalone(tmp_path):
    cfg = parse_config(REDUCED)
    path = scaling_suite("N_H", [5], cfg, tmp_path)
    rows = path.read_text().splitlines()
    assert rows[0] == "axis_value,MAE,max_abs,E_step"
    d = compute_run(cfg).diagnostics
    assert rows[1] == f"5,{d.mae:.17g},{d.max_abs:.17g},{d.e_step:.17g}"


def test_suite_aborts_naming_value(tmp_path, monkeypatch):
    cfg = parse_config(REDUCED)
    # every row is validated before any row is computed
    monkeypatch.setattr(expcli, "compute_run", lambda cfg: pytest.fail("a row was computed"))
    with pytest.raises(ValidationError, match="N_P=0: N_P must be >= 1"):
        scaling_suite("N_P", [5, 0], cfg, tmp_path)
    with pytest.raises(ValidationError):
        scaling_suite("M", [8], cfg, tmp_path)
    with pytest.raises(ValidationError):
        scaling_suite("N_P", [], cfg, tmp_path)
    # a fractional or boolean value is rejected, not truncated to a row for int(value)
    with pytest.raises(ValidationError, match=r"suite row N_H=5\.7: N_H must be an integer"):
        scaling_suite("N_H", [5.7, 6], cfg, tmp_path)
    with pytest.raises(ValidationError, match="suite row N_H=True: N_H must be an integer"):
        scaling_suite("N_H", [5, True], cfg, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_zero_mass_run_degrades_gracefully(tmp_path):
    cfg = parse_config(
        '{"M": 8, "N_kappa": 41, "n_bands": 4, "N_P": 5, "N_H": 5, "K": 5,'
        ' "T": 40.0, "mode": "constant_one", "epsilon": 50.0}'
    )
    result = compute_run(cfg)
    assert len(result.spectrum) == 0  # mass ~ 2^-51 stays inside the margin
    assert "insufficient-spectrum" in result.diagnostics.flags
    assert result.all_checks_pass
    expcli.write_artifacts(result, tmp_path / "zm")
    assert (tmp_path / "zm" / "spectrum.csv").read_text() == "k,lambda_k,multiplicity\n"


def test_written_files_redraw_the_aligned_staircases(tmp_path, reduced_run):
    # README's recipe: the spectrum.csv jumps moved to |a lambda_k + b| with affine.a and
    # affine.b from diagnostics.json, against the bundled zero table, give back e_step bit
    # for bit
    expcli.write_artifacts(reduced_run, tmp_path)
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    lam = np.array([float(r.split(",")[1]) for r in rows])
    mult = np.array([int(r.split(",")[2]) for r in rows])
    assert len(lam) >= reduced_run.config.K
    model = zeta.mapped_staircase(diag["affine"]["a"] * lam + diag["affine"]["b"], mult)
    zero = zeta.zero_staircase(zeta.load_zero_table())
    assert zeta.staircase_mismatch(model, zero, diag["T"]) == diag["e_step"]


def test_small_constant_mass_shifts_unperturbed_positions():
    cfg = parse_config(
        '{"M": 8, "N_kappa": 41, "n_bands": 4, "N_P": 5, "N_H": 5, "K": 2,'
        ' "T": 40.0, "mode": "constant_one", "epsilon": 6.0}'
    )
    result = compute_run(cfg)
    mass = float(result.shifts.values[0])
    assert 0 < mass < 0.01
    # jump locations are exactly |E - E* + mass| for the surviving fibers
    for k, lam in enumerate(result.spectrum.positive_values):
        n, j, m = result.spectrum.fibers[result.spectrum.starts[k]]
        v = mirrored_bands(result.bands)[n, j] - result.e_star + mass
        assert abs(lam - abs(v)) < 1e-10


def test_a_run_builds_three_staircases(tmp_path, monkeypatch):
    # The run's staircase, then the mapped model and zero staircases that E_step
    # compares; all three are built in compute_run, and writing builds none.
    built = []
    post_init = Staircase.__post_init__
    monkeypatch.setattr(Staircase, "__post_init__", lambda s: built.append(s) or post_init(s))
    result = compute_run(parse_config(REDUCED))
    assert len(built) == 3
    assert built[0] is result.staircase
    assert zeta.staircase_mismatch(built[1], built[2], result.config.T) == result.diagnostics.e_step
    assert built[2].locations.tolist() == list(zeta.load_zero_table().ordinates)
    expcli.write_artifacts(result, tmp_path)
    assert len(built) == 3
    # the run's staircase holds the gap spectrum's arrays, not copies
    assert result.staircase.locations is result.spectrum.positive_values
    assert result.staircase.weights is result.spectrum.multiplicities


def test_cli_bands_and_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    free = tmp_path / "free.json"  # no open gap, which bands does not need
    free.write_text(REDUCED.replace('"M": 8', '"potential": {"cosine_coefficients": []}, "M": 8'))
    for path, out in ((cfg_path, tmp_path / "b"), (free, tmp_path / "free")):
        assert main(["bands", "--config", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["bands.csv", "gaps.csv"]
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "manifest.json").is_file()
    for name in ("bands.csv", "gaps.csv"):  # one writer for both subcommands
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "r" / name).read_bytes()
    assert (tmp_path / "free" / "gaps.csv").read_bytes() == b"n,beta_n,alpha_n1,width\n"


def test_cli_verify(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    assert main(["verify", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2  # every check of an iid_uniform run
    assert "FAIL" not in out


def test_cli_suite(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    assert main(["suite", "--config", str(cfg_path), "--axis", "N_H",
                 "--values", "5,6", "--out", str(tmp_path / "s")]) == 0
    rows = (tmp_path / "s" / "suite_N_H.csv").read_text().splitlines()
    assert len(rows) == 3


def test_cli_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"epsilon": -2}')
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    bad.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["verify", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: configuration is not UTF-8 text: ")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    assert main(["suite", "--config", str(cfg_path), "--axis", "N_P",
                 "--values", "5,zzz", "--out", str(tmp_path / "s2")]) == 2


def test_checks_cover_spec_contract(reduced_run):
    assert [c.name for c in reduced_run.checks] == ["trace_agreement", "band_truncation"]


# theta_fiber is 9.0e-13 on alpha 0.1, below the floor 1e-12 l1_mass = 1.2e-12, so the
# check passes even when the separated route returns nothing.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_trace_agreement_fails_a_separated_trace_of_zero():
    r = compute_run(parse_config('{"alpha": 0.1}'))
    trace = replace(r.trace, theta_separated=0.0, abs_gap=abs(r.trace.theta_fiber))
    (check, *_) = expcli._consistency_checks(r.config, r.bands, r.shifts, trace)
    assert check.name == "trace_agreement" and not check.passed


# In constant_one mode euler_gap is the rounding of the phase t m, which grows with the
# window's t_max: here it is 1.3e-12 at t_max = 1754, and a run without a fault passes.
EULER_LONG_WINDOW = '{"mode": "constant_one", "N_P": 1000, "epsilon": 0.01, "alpha": 0.006}'


def test_euler_budget_passes_a_long_window_without_a_fault(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(EULER_LONG_WINDOW)
    assert main(["verify", "--config", str(cfg_path)]) == 0
    check = compute_run(parse_config(EULER_LONG_WINDOW)).checks[-1]
    assert check.name == "euler_factorization_exact" and 1e-12 < check.value
    assert 2 * check.value <= check.budget < 4 * check.value  # a margin, and not a loose one
    assert f"PASS euler_factorization_exact: {check.value:.4g}" in capsys.readouterr().out


@pytest.mark.parametrize("doc", ['{"mode": "constant_one"}', EULER_LONG_WINDOW],
                         ids=["constant_one", "long-window"])
def test_euler_check_fails_an_a_prod_moved_by_ten_budgets_at_one_t(monkeypatch, doc):
    cfg = parse_config(doc)
    budget = compute_run(cfg).checks[-1].budget
    factors = tracekit.arithmetic_factors

    def moved(*args):
        a_joint, a_prod, *rest = factors(*args)
        a_prod = a_prod.copy()
        a_prod[len(a_prod) // 2] += 10.0 * budget
        return a_joint, a_prod, *rest

    monkeypatch.setattr(tracekit, "arithmetic_factors", moved)
    assert [c.name for c in compute_run(cfg).checks if not c.passed] == [
        "euler_factorization_exact"]


# constant_one runs over ensembles, windows and the long windows of alpha 0.004 - 0.008
# (0.006 is EULER_LONG_WINDOW above); budget / euler_gap reads 2.3 (alpha 0.02) to 17 (N_H 2000).
EULER_MARGIN_CONFIGS = {
    "default": {}, "N_P_200": {"N_P": 200}, "N_P_1000": {"N_P": 1000}, "N_H_500": {"N_H": 500},
    "N_H_2000": {"N_H": 2000}, "alpha_0.02": {"alpha": 0.02}, "alpha_0.1": {"alpha": 0.1},
    "epsilon_0.01": {"epsilon": 0.01},
    **{f"long-window-alpha_{a}": {"N_P": 1000, "epsilon": 0.01, "alpha": a}
       for a in (0.004, 0.005, 0.007, 0.008)},
}


@pytest.mark.parametrize("doc", EULER_MARGIN_CONFIGS.values(), ids=EULER_MARGIN_CONFIGS)
def test_euler_budget_keeps_a_twofold_margin(doc):
    check = compute_run(parse_config(json.dumps(dict(doc, mode="constant_one")))).checks[-1]
    assert check.name == "euler_factorization_exact" and check.passed
    assert 0.0 < 2 * check.value <= check.budget


# Two runs whose plane-wave truncation M is too small for their bands: truncation_bound
# reads 0.3985 on the first (band 15 moves by 1.6e-3 between M = 8 and 16) and 1.866e4, its
# E_top + S fallback, on the second (the three-harmonic bands move by 1.0e4).
UNDERRESOLVED = [
    '{"M": 8, "n_bands": 16}',
    '{"potential": {"period": 1000.0, "cosine_coefficients": [2.0, -10000.0, 0.5]}, "M": 5,'
    ' "N_kappa": 9, "n_bands": 10, "mode": "constant_one", "alpha": 1000.0, "K": 3}',
]


@pytest.mark.parametrize("doc", UNDERRESOLVED, ids=["M8-16-bands", "M5-three-harmonics"])
def test_verify_fails_an_underresolved_truncation(tmp_path, capsys, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    assert main(["verify", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in out if ln.startswith("FAIL")] == ["FAIL band_truncation"]


@pytest.mark.parametrize("M", [3, 16])
def test_verify_passes_a_resolved_truncation_at_a_large_band_scale(tmp_path, capsys, M):
    # Bands up to 1.6e8, where one ulp is 3e-8, above the 1e-8 budget: a check that read
    # rounding would fail at any M.  The bound reads 5.1e-9 and 3.6e-49.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "potential": {"period": 0.001, "cosine_coefficients": [1.0, 0.0, 0.3]}, "gap_index": 1,
        "alpha": 1e10, "M": M, "n_bands": 4, "N_kappa": 5, "N_P": 1, "N_H": 2, "K": 2, "T": 1e-6}))
    assert main(["verify", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in out] == ["PASS trace_agreement", "PASS band_truncation"]


@pytest.mark.parametrize("doc,code", [("{}", 0), (UNDERRESOLVED[0], 1)],
                         ids=["default", "M8-16-bands"])
def test_bands_checks_the_truncation_of_what_it_writes(tmp_path, capsys, doc, code):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    assert main(["bands", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == code
    out = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in out if ln.startswith(("PASS", "FAIL"))] == [
        f"{'FAIL' if code else 'PASS'} band_truncation"]
    run = compute_run(parse_config(doc))
    assert out[0] == str(next(c for c in run.checks if c.name == "band_truncation"))
    # the files are written either way: one line per band value on kappa >= 0, and the gaps
    cfg = run.config
    assert (tmp_path / "b" / "bands.csv").read_text().count("\n") == (
        cfg.n_bands * (cfg.N_kappa // 2 + 1) + 1)
    assert (tmp_path / "b" / "gaps.csv").is_file()


@pytest.mark.parametrize("doc,code", [("{}", 0), (UNDERRESOLVED[0], 1)],
                         ids=["default", "M8-16-bands"])
def test_run_and_suite_report_every_run(tmp_path, capsys, doc, code):
    # run and each suite row print the check lines of verify; a failing check exits 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == code
    out = capsys.readouterr().out.splitlines()
    assert ("FAIL band_truncation" in [ln.split(":")[0] for ln in out]) == bool(code)
    assert out[-1] == f"wrote 8 artifacts to {tmp_path / 'r'}"
    assert [ln for ln in out if "WARN" in ln] == []  # the scan and its warnings are retired
    assert main(["suite", "--config", str(cfg_path), "--axis", "seed", "--values", "1,2",
                 "--out", str(tmp_path / "s")]) == code
    out = capsys.readouterr().out.splitlines()
    assert len((tmp_path / "s" / "suite_seed.csv").read_text().splitlines()) == 3
    assert [ln for ln in out if "WARN" in ln] == []
    for seed in (1, 2):
        prefix = f"seed={seed}: "
        lines = [ln.removeprefix(prefix) for ln in out if ln.startswith(prefix)]
        assert len([ln for ln in lines if ln.startswith(("PASS", "FAIL"))]) == 2
        assert ("FAIL band_truncation" in [ln.split(":")[0] for ln in lines]) == bool(code)


def test_every_fiber_solve_goes_through_floquet(monkeypatch, tmp_path):
    # One batch, the half grid, for a run and for `bands`: the band_truncation check solves
    # nothing, and a counter on floquet.fiber_eigenvalues sees every solve.
    calls, solve = [], floquet.fiber_eigenvalues
    monkeypatch.setattr(floquet, "fiber_eigenvalues",
                        lambda *a: calls.append((a[2], len(a[1]))) or solve(*a))
    result = compute_run(parse_config(REDUCED))
    M, fibers = result.config.M, result.config.N_kappa // 2 + 1
    assert calls == [(M, fibers)]
    calls.clear()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    assert main(["bands", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    assert calls == [(M, fibers)]


# The default run, the default potential at M = 4..10, the three-harmonic potential of period 2
# at M = 4..8, a strong cosine at M = 2..8, and both underresolved runs.
TRUNCATIONS = {
    "default": "{}",
    **{f"default-M{M}": json.dumps({"M": M}) for M in range(4, 11)},
    **{f"three-harmonics-M{M}": json.dumps({"potential": {
        "period": 2.0, "cosine_coefficients": [2.0, 0.7, 0.3]}, "M": M}) for M in range(4, 9)},
    **{f"cosine-20-M{M}": json.dumps({"potential": {"cosine_coefficients": [20.0]}, "M": M,
                                      "n_bands": 4}) for M in range(2, 9)},
    "M8-16-bands": UNDERRESOLVED[0], "M5-three-harmonics": UNDERRESOLVED[1],
}


@pytest.mark.parametrize("doc", TRUNCATIONS.values(), ids=TRUNCATIONS)
def test_a_finer_truncation_never_raises_a_band(doc):
    # Min-max: the 4M+8 basis holds the M basis and is a compression of the untruncated fiber,
    # so 0 <= E_n(M) - E_n(4M+8) <= E_n(M) - E_n <= truncation_bound.  Each solve errs by
    # about eps max|E|, which 64 ulps of max|E| cover on both sides.
    cfg = parse_config(doc)
    bands = compute_band_structure(cfg.potential, cfg.N_kappa, cfg.M, cfg.n_bands)
    bound, grid = truncation_bound(bands), bands.grid
    for kappa in (0.0, grid.nodes[(grid.half_index + cfg.N_kappa - 1) // 2], grid.nodes[-1]):
        coarse, fine = (fiber_eigenvalues(cfg.potential, [kappa], M, cfg.n_bands)[0]
                        for M in (cfg.M, 4 * cfg.M + 8))
        slack = 64 * np.spacing(np.abs(coarse).max())
        assert np.all(coarse - fine >= -slack)
        assert np.all(coarse - fine <= bound + slack)


@pytest.mark.parametrize("name,doc", [
    ("two-harmonic", '{"potential": {"period": 1.0, "cosine_coefficients": [2.0, 0.8]},'
                     ' "M": 16, "N_kappa": 81, "n_bands": 6, "N_P": 8, "N_H": 8, "K": 5, "T": 40.0}'),
    ("period-2", '{"potential": {"period": 2.0, "cosine_coefficients": [3.0]},'
                 ' "M": 16, "N_kappa": 81, "n_bands": 6, "N_P": 8, "N_H": 8, "K": 5, "T": 40.0}'),
    ("second-gap", '{"M": 16, "N_kappa": 81, "n_bands": 6, "gap_index": 1,'
                   ' "N_P": 8, "N_H": 8, "K": 5, "T": 40.0}'),
    ("third-gap", '{"M": 16, "N_kappa": 81, "n_bands": 6, "gap_index": 2,'
                  ' "N_P": 8, "N_H": 8, "K": 5, "T": 40.0}'),
    ("wide-window", '{"M": 16, "N_kappa": 81, "n_bands": 6, "N_P": 8, "N_H": 8,'
                    ' "alpha": 5.0, "K": 5, "T": 40.0}'),
    ("narrow-window", '{"M": 16, "N_kappa": 81, "n_bands": 6, "N_P": 8, "N_H": 8,'
                      ' "alpha": 0.05, "K": 5, "T": 40.0}'),
    ("sixteen-bands", '{"M": 32, "N_kappa": 81, "n_bands": 16, "N_P": 8, "N_H": 8,'
                      ' "K": 5, "T": 40.0}'),
])
def test_non_default_configurations_stay_green(name, doc):
    result = compute_run(parse_config(doc))
    failed = [c.name for c in result.checks if not c.passed]
    assert failed == [], f"{name}: {failed}"
    assert len(result.spectrum) >= result.config.K


def test_narrow_window_trace_is_noise_floor_limited():
    # At alpha = 0.05 every fiber value is >= ~1 away from zero, so the
    # trace is ~1e-174 while the Fourier-side integrand is O(1): relative
    # agreement is unattainable in float64 and the check must fall back to
    # the quadrature noise floor.
    doc = ('{"M": 16, "N_kappa": 81, "n_bands": 6, "N_P": 8, "N_H": 8,'
           ' "alpha": 0.05, "K": 5, "T": 40.0}')
    result = compute_run(parse_config(doc))
    trace = result.trace
    assert abs(trace.theta_fiber) < 1e-50
    assert trace.rel_gap > 1e-6  # relative resolution genuinely lost
    assert trace.abs_gap <= 1e-12 * trace.l1_mass


@pytest.mark.parametrize("doc,rule", [
    ('{"M": true}', "M must be an integer"),
    ('{"M": 32.9}', "M must be an integer"),
    ('{"N_H": false}', "N_H must be an integer"),
    ('{"seed": 1.5}', "seed must be an integer"),
    ('{"K": 101}', "exceeds the 100 zeros"),
    ('{"T": 1e308}', "2T finite"),
    ('{"alpha": "0.5"}', "alpha must be a number"),
    ('{"h_t": 0.01}', "unknown configuration keys"),
    ('{"t_max": 9.5}', "unknown configuration keys"),
    ('{"potential": {"period": 1e-300}}', "too small for M=32: the largest fiber diagonal"),
])
def test_strict_config_rejections(tmp_path, capsys, doc, rule):
    with pytest.raises(ValidationError, match=rule):
        parse_config(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert rule in capsys.readouterr().err


@pytest.mark.parametrize("doc,rule", [
    ('{"potential": {"period": 1.0, "cosine_coefficients": []}}', "no open gaps"),
    ('{"potential": {"period": 1.0, "cosine_coefficients": [1e-9]}}', "no open gaps"),
    ('{"potential": {"period": 1e-150}}', "no open gaps"),
    ('{"gap_index": 7}', "3 open gaps available"),
    # bands near 4e13, where one ulp (0.0078) is wider than GAP_TOLERANCE: the second gap,
    # 1 ulp wide, is rounding, not a gap
    ('{"potential": {"period": 1e-06, "cosine_coefficients": [1.0]}, "gap_index": 1,'
     ' "alpha": 1e10}', "1 open gaps available"),
    # bands near 1.2e15, whose second gap is 2 ulps wide
    ('{"potential": {"period": 1.7782794100389227e-07, "cosine_coefficients": [1.0]},'
     ' "gap_index": 1, "alpha": 1e10, "M": 3, "n_bands": 4, "N_kappa": 5, "N_P": 1, "N_H": 2,'
     ' "K": 2, "T": 1e-6}', "no open gaps"),
    # the gaps of a cosine 1e-300 times smaller than the band scale are rounding
    ('{"potential": {"period": 1e-151}}', "no open gaps"),
    ('{"potential": {"period": 1e-40}, "N_kappa": 7}', "no open gaps"),
])
def test_config_errors_found_by_the_compute_stage_exit_2(tmp_path, capsys, doc, rule):
    # Whether a gap is open is known only once the bands are solved.
    with pytest.raises(ValidationError, match="must select an open gap"):
        compute_run(parse_config(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    for command in (["verify"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "must select an open gap" in err and rule in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    {"n_bands": 1}, {"potential": {"cosine_coefficients": []}}, {"gap_index": 7},
    {"n_bands": 2, "gap_index": 1},
])
def test_a_closed_gap_is_named_once_with_the_rule_and_the_band_count(tmp_path, capsys, doc):
    # floquet alone words the open-gap rule: one error line, gap_index named once, and the
    # number of bands the open gaps were counted among
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert err.count("gap_index=") == 1 and "must select an open gap" in err
    assert f"among the {doc.get('n_bands', 8)} bands" in err


@pytest.mark.parametrize("doc", [
    '{"potential": {"period": 1e-151, "cosine_coefficients": [1e300]}}',
    '{"potential": {"period": 1e-140, "cosine_coefficients": [1e280]}}',
    '{"potential": {"period": 1.0, "cosine_coefficients": [2.0, 0.0, 1e30]}}',
    # the grid's edge node rounds one ulp past pi/L; the zone check must take it
    '{"potential": {"period": 1e-40, "cosine_coefficients": [1e80]}, "N_kappa": 7}',
])
def test_t_grid_rechecked_with_the_band_energies_exits_2(tmp_path, capsys, doc):
    # The step 2 pi / (v_max + 8 alpha + 1) shrinks with the bands, which are known
    # only once they are solved.
    with pytest.raises(ValidationError, match="MAX_T_POINTS"):
        compute_run(parse_config(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    for command in (["verify"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(cfg_path)]) == 2
        assert "MAX_T_POINTS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# at alpha = 1e308, 8 alpha overflows and the step is 0
@pytest.mark.parametrize("alpha", ["1e-9", "1e300", "1e308", "1e-200"])
def test_the_t_grid_rule_is_checked_by_the_trace_stage_alone(tmp_path, capsys, alpha):
    # The configuration is valid; only a run's trace stage builds the t grid, and rejects it.
    doc = f'{{"alpha": {alpha}}}'
    cfg = parse_config(doc)
    with pytest.raises(ValidationError, match="MAX_T_POINTS"):
        compute_run(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    for command in (["verify"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(cfg_path)]) == 2
        assert "MAX_T_POINTS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # `bands` builds no t grid, and alpha does not enter the bands
    assert main(["bands", "--config", str(cfg_path), "--out", str(tmp_path / "bands")]) == 0
    assert main(["bands", "--out", str(tmp_path / "default")]) == 0
    for name in ("bands.csv", "gaps.csv"):
        written = [(tmp_path / out / name).read_bytes() for out in ("bands", "default")]
        assert written[0] == written[1], name


def test_run_whose_window_sees_no_band_passes(tmp_path):
    # At alpha = 0.01 every band is >= 0.55 > sqrt(746) alpha from the window.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"M": 16, "N_kappa": 81, "n_bands": 6, "N_P": 8, "N_H": 8,'
                        ' "alpha": 0.01, "K": 5, "T": 40.0}')
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "trace_report.json").read_text())
    assert report["bands_kept"] == 0 and report["theta_separated"] == 0.0


def test_suite_config_errors_exit_2(tmp_path, capsys):
    no_gap = tmp_path / "no_gap.json"
    no_gap.write_text('{"potential": {"period": 1.0, "cosine_coefficients": []}}')
    assert main(["suite", "--config", str(no_gap), "--axis", "N_H", "--values", "5",
                 "--out", str(tmp_path / "s")]) == 2
    assert "must select an open gap" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    for values, rule in ((",", "values must be nonempty"), ("5,0", "N_P must be >= 1")):
        assert main(["suite", "--config", str(cfg_path), "--axis", "N_P", "--values", values,
                     "--out", str(tmp_path / "s")]) == 2
        assert rule in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_t_grid_precheck_is_the_lower_bound_at_the_limit():
    # v_max chosen so that T/h = K -+ 1/2: 2K+1 = 4,194,303 points pass, 2K+3 = 4,194,305 do not
    assert tracekit.MAX_T_POINTS == 2**22
    T = tracekit.tail_half_width(0.5, 8, 1.0)
    K = 2**21 - 1

    def v_max(steps):
        return 2.0 * np.pi / (T / steps) - 8.0 * 0.5 - 1.0

    assert tracekit.t_grid(0.5, 8, 1.0, v_max(K - 0.5))[0] == K
    with pytest.raises(tracekit.GridError, match="MAX_T_POINTS"):
        tracekit.t_grid(0.5, 8, 1.0, v_max(K + 0.5))


def test_t_grid_check_counts_the_mass_shifts(monkeypatch):
    # With 16 bands the aliasing rule, not H_MAX, sets the step, so max|m| alone
    # adds grid points: a limit that the bands alone fit under rejects the run.
    cfg = parse_config('{"n_bands": 16}')
    r = compute_run(cfg)
    v_bands = float(np.abs(r.bands.bands - r.e_star).max())
    K_bands, _ = tracekit.t_grid(cfg.alpha, cfg.n_bands, 1.0, v_bands)
    K_all, _ = tracekit.t_grid(cfg.alpha, cfg.n_bands, 1.0, v_bands + np.abs(r.shifts.values).max())
    assert K_all > K_bands
    monkeypatch.setattr(tracekit, "MAX_T_POINTS", 2 * K_bands + 1)
    with pytest.raises(ValidationError, match="MAX_T_POINTS"):
        compute_run(cfg)


def test_a_failing_trace_exits_1(monkeypatch, capsys):
    # Only the t grid's GridError is a rejected configuration: any other error of the
    # trace stage, a ValueError included, is a failure of the program.
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(tracekit, "theta_fiber", boom)
    assert main(["verify"]) == 1
    assert capsys.readouterr().err == "error: builtins.ValueError: boom\n"


@pytest.mark.parametrize("doc", [REDUCED, '{"n_bands": 16}'])  # h = H_MAX; h set by v_max
def test_compute_run_derives_the_t_grid_once(monkeypatch, doc):
    calls, t_grid = [], tracekit.t_grid

    def counted(*args):
        calls.append((args, t_grid(*args)))
        return calls[-1][1]

    monkeypatch.setattr(tracekit, "t_grid", counted)
    cfg = parse_config(doc)
    r = compute_run(cfg)
    [(args, (K, h))] = calls  # parse_config makes none
    v_max = np.abs(r.bands.bands - r.e_star).max() + np.abs(r.shifts.values).max()
    assert args == (cfg.alpha, cfg.n_bands, cfg.potential.period, v_max)
    assert (r.trace.t_max, r.trace.h_t) == (K * h, h)


def test_integral_values_are_accepted_as_integers():
    cfg = parse_config('{"M": 32.0, "K": 100, "T": 8.98e307}')
    assert (cfg.M, cfg.K) == (32, 100) and isinstance(cfg.M, int)


@pytest.mark.parametrize("potential,rule", [
    ('{"cosine_coefficients": 5}', "potential.cosine_coefficients must be a list"),
    ('{"cosine_coefficients": null}', "potential.cosine_coefficients must be a list"),
    ('{"cosine_coefficients": [true]}', "potential.cosine_coefficients[0] must be a number"),
    ('{"cosine_coefficients": [2.0, "1"]}', "potential.cosine_coefficients[1] must be a number"),
    ('{"period": [1]}', "potential.period must be a number"),
    ('{"period": true}', "potential.period must be a number"),
    ('{"period": 1' + "0" * 400 + "}", "potential.period must be finite"),
    ('{"period": 0.0}', "period must be positive and finite"),
])
def test_potential_values_take_the_strict_number_rule(tmp_path, capsys, potential, rule):
    doc = f'{{"potential": {potential}}}'
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert rule in str(err.value) and "Assumption C" not in str(err.value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert rule in capsys.readouterr().err


# Any JSON value, biased towards the kinds of value the configuration keys take.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.integers() | st.just(10**400)
    | st.floats() | st.sampled_from(["iid_uniform", "constant_one", "0.5"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["period", "cosine_coefficients", "sine_coefficients", "other"]),
        inner, max_size=3),
    max_leaves=5,
)
# A valid value for every configuration key, so that a good share of documents parse.
VALID_VALUES = {
    "potential": st.fixed_dictionaries({}, optional={
        "period": st.floats(0.5, 4.0),
        "cosine_coefficients": st.lists(st.floats(-5.0, 5.0), max_size=3)}),
    "M": st.integers(8, 64), "N_kappa": st.integers(1, 200).map(lambda k: 2 * k + 1),
    "n_bands": st.integers(1, 16), "gap_index": st.integers(0, 5),
    "N_P": st.integers(1, 100), "N_H": st.integers(1, 100), "epsilon": st.floats(0.01, 10.0),
    "seed": st.integers(0, 2**64 - 1), "mode": st.sampled_from(["iid_uniform", "constant_one"]),
    "alpha": st.floats(0.05, 5.0), "K": st.integers(2, 100), "T": st.floats(1.0, 200.0),
}


# Every field needs a valid-value strategy (a KeyError here names a new one).
@settings(max_examples=50, deadline=None)
@given(doc=st.fixed_dictionaries({}, optional={
    f.name: st.sampled_from([VALID_VALUES[f.name]] * 3 + [JSON_VALUES]).flatmap(lambda v: v)
    for f in fields(expcli.ExperimentConfig)}) | st.dictionaries(st.text(max_size=3), JSON_VALUES))
@example(doc={"potential": {"cosine_coefficients": 5}})
@example(doc={"potential": {"cosine_coefficients": None}})
@example(doc={"potential": {"period": [1]}})
@example(doc={"potential": {"period": 10**400}})
@example(doc={"M": 10**400})
@example(doc={"potential": {"period": 2.0, "cosine_coefficients": [1.5, -0.25]}})
@example(doc={"h_t": 0.01})
@example(doc={"t_max": 9.5})
@example(doc={})
@example(doc={"N_H": 5.5})
@example(doc={"K": 2.5})
def test_any_json_object_is_rejected_or_round_trips(doc):
    # Parsing a document with only known keys and constructing from it agree:
    # the same configuration, or the same rejection.
    unknown = set(doc) - {f.name for f in fields(expcli.ExperimentConfig)}
    try:
        cfg = parse_config(json.dumps(doc))
    except ValidationError as err:
        assert not unknown or "unknown configuration keys" in str(err)
        if not unknown:
            with pytest.raises(ValidationError) as built:
                expcli.ExperimentConfig(**doc)
            assert str(built.value) == str(err)
        return
    assert not unknown
    assert expcli.ExperimentConfig(**doc) == cfg
    assert parse_config(serialize_config(cfg)) == cfg
    with pytest.raises(ValidationError, match="M must be an integer, got True"):
        replace(cfg, M=True)


@st.composite
def cheap_configs(draw):
    """A cheap configuration: small fibers, grids and ensembles, but periods,
    coefficients, windows and sweep ranges across many orders of magnitude.
    M covers the harmonics, n_bands <= 2M and the gap index has a gap above it,
    so that most documents get past the parser."""
    M = draw(st.integers(1, 6))
    n_bands = draw(st.integers(1, 2 * M))
    return {
        # half the periods where a band scale (2 pi / L)^2 leaves gaps resolvable
        "potential": {"period": 10.0 ** draw(st.floats(-40.0, 3.0) | st.floats(-2.0, 3.0)),
                      "cosine_coefficients": draw(st.lists(st.floats(-1e4, 1e4),
                                                           max_size=min(M, 3)))},
        "M": M, "n_bands": n_bands, "gap_index": draw(st.integers(0, max(0, min(3, n_bands - 2)))),
        "N_kappa": draw(st.sampled_from([3, 5, 7, 9, 13, 15])),
        "N_P": draw(st.integers(1, 8)), "N_H": draw(st.integers(1, 8)),
        "epsilon": draw(st.floats(0.01, 10.0)), "seed": draw(st.integers(0, 2**64 - 1)),
        "mode": draw(st.sampled_from(["iid_uniform", "constant_one"])),
        "alpha": draw(st.sampled_from([0.2, 0.5, 5.0, 1e3])),
        "K": draw(st.sampled_from([2, 3, 20, 100])),
        "T": draw(st.sampled_from([1e-6, 0.5, 80.0, 1e6])),
    }


@settings(max_examples=100, deadline=None)
@given(doc=cheap_configs())
# a window of width 1000 over the bands of period 0.001
@example(doc={"potential": {"period": 0.001, "cosine_coefficients": [-30.0]}, "M": 5,
              "N_kappa": 5, "alpha": 1000.0, "n_bands": 2})
# the grid's edge node rounds one ulp past pi/L
@example(doc={"potential": {"period": 1e-40}, "N_kappa": 7})
# near 4e13 one ulp is wider than GAP_TOLERANCE, and the second gap is 1 ulp wide
@example(doc={"potential": {"period": 1e-06, "cosine_coefficients": [1.0]}, "gap_index": 1,
              "alpha": 1e10})
# near 1.2e15 the second gap is 2 ulps wide
@example(doc={"potential": {"period": 1.7782794100389227e-07, "cosine_coefficients": [1.0]},
              "gap_index": 1, "alpha": 1e10, "M": 3, "n_bands": 4, "N_kappa": 5, "N_P": 1,
              "N_H": 2, "K": 2, "T": 1e-6})
# lambda_1..3 spread 7.4e-6 near 1e3: a one-pass variance cancels to below 0
@example(doc={"potential": {"period": 1000.0, "cosine_coefficients": [-1e-09, -10000.0]},
              "M": 4, "N_kappa": 9, "N_P": 7, "N_H": 4, "alpha": 0.2, "epsilon": 0.001,
              "K": 3, "T": 0.5, "seed": 4304291062942567561, "n_bands": 8, "gap_index": 2})
def test_cheap_configurations_are_rejected_or_run_to_finite_results(doc):
    try:
        result = compute_run(parse_config(json.dumps(doc)))
    except ValidationError:
        return
    bands, n = result.bands, result.bands.gaps[result.config.gap_index]
    beta, alpha = float(bands.uppers[n]), float(bands.lowers[n + 1])
    assert alpha - beta > 64 * max(math.ulp(beta), math.ulp(alpha))  # not rounding alone
    trace = [getattr(result.trace, f.name) for f in fields(result.trace)]
    d = result.diagnostics
    values = [*trace, d.mae, d.max_abs, d.e_step, d.affine.a, d.affine.b]
    values += [x for c in result.checks for x in (c.value, c.budget)]
    assert all(math.isfinite(v) for v in values), values


@pytest.mark.parametrize("doc", [REDUCED, UNDERRESOLVED[0]], ids=["reduced", "M8-16-bands"])
def test_check_lines_match_the_diagnostics_checks(tmp_path, capsys, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(doc)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    checks = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["checks"]
    assert len(lines) == len(checks) > 0
    for line, c in zip(lines, checks):
        assert sorted(c) == ["budget", "meaning", "name", "passed", "value"]
        assert c["passed"] == (c["value"] <= c["budget"])
        assert line == (f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['value']:.4g} "
                        f"{'<=' if c['passed'] else '>'} {c['budget']:.4g} ({c['meaning']})")
    assert code == (0 if all(c["passed"] for c in checks) else 1)


def old_staircase_value(jumps, cum, x):
    """The staircase evaluator as first written: a scan over every jump per call."""
    if x == 0.0:
        return 0
    sign = 1 if x > 0 else -1
    x = abs(x)
    k = 0
    for j, loc in enumerate(jumps):
        if loc <= x:
            k = j + 1
    return sign * (cum[k - 1] if k else 0)


@settings(max_examples=80, deadline=None)
@given(
    jumps=st.lists(st.floats(min_value=1e-3, max_value=100.0), max_size=30),
    weights=st.lists(st.integers(min_value=1, max_value=5), min_size=30, max_size=30),
    probes=st.lists(st.floats(min_value=-120.0, max_value=120.0), min_size=1, max_size=10),
)
def test_staircase_value_matches_the_old_loop(jumps, weights, probes):
    jumps = sorted(jumps)
    weights = weights[: len(jumps)]
    cum = [sum(weights[: k + 1]) for k in range(len(jumps))]
    staircase = Staircase(locations=tuple(jumps), weights=tuple(weights))
    for x in probes + jumps + [-v for v in jumps] + [0.0]:
        for y in (x, float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf))):
            assert staircase(y) == old_staircase_value(jumps, cum, y)


def test_a_run_and_its_manifest_leave_openssl_unloaded(tmp_path):
    # The manifest's SHA-256 is CPython's built-in one: hashlib would load OpenSSL's
    # _hashlib, about 3.5 MiB of resident memory, in every process that writes a run.
    code = ("import sys; from diracgap import expcli; "
            "expcli.write_artifacts(expcli.compute_run(expcli.parse_config(sys.argv[1])), "
            "sys.argv[2]); print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    src = str(Path(expcli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, REDUCED, str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(ARTIFACTS)


def test_python_dash_m_runs_without_runpy_warning(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(REDUCED)
    src = str(Path(expcli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "diracgap", "verify",
         "--config", str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "PASS trace_agreement" in proc.stdout


def test_verify_passes_a_window_whose_mismatch_sum_would_overflow(tmp_path, capsys, default_run):
    # Every warning is an error here, so an overflow in E_step's sum would fail the run.
    # Past the last jump the integrand is |216 - 100|: the model's total weight less the
    # table's 100 zeros, and that is E_step when T is large.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"T": 1e307}')
    assert main(["verify", "--config", str(cfg_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    model = zeta.mapped_staircase(default_run.diagnostics.affine(default_run.staircase.locations),
                                  default_run.staircase.weights)
    zero = zeta.zero_staircase(zeta.load_zero_table())
    assert zeta.staircase_mismatch(model, zero, 1e307) == 116.0
    assert zeta.staircase_mismatch(model, zero, 5e-324) == 0.0  # no scale below T = 1

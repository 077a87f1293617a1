import json
import logging
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from cqed_lab import (cli, default_grid, propagate, read_signal,
                      read_spectrum, write_signal)
from oracles import rk4_trajectory, simpson_integral

SYSTEMS = {
    "mp": ("g_ueV = 22.6\nkappa_ueV = 110.0\ngamma_ueV = 1.3\n"
           "gamma_dp_ueV = 6.3\n", "-300, -150, -50, 0, 50, 150, 300",
           "crossing"),
    "pc": ("g_ueV = 92.4\nkappa_ueV = 195.0\ngamma_ueV = 0.2\n"
           "gamma_dp_ueV = 4.0\n", "-600, -400, -150, 0, 150, 400, 600",
           "anti_crossing"),
}


def write_config(path, system, extra=""):
    rates, deltas, _ = SYSTEMS[system]
    path.write_text(
        "[system]\n" + rates + "wavelength_nm = 930.0\n\n"
        f"[sweep]\ndeltas_ueV = {deltas}\n\n"
        "[spectra]\ngrid_span_ueV = 1500\ngrid_points = 1501\n"
        "convolve_irf = true\n\n"
        "[instrument]\nspectrometer_q = 40000.0\n"
        "temporal_irf_fwhm_ns = 0.05\n\n"
        "[synthesize]\npeak_counts = 10000.0\nnoise = true\n" + extra)


@pytest.fixture(scope="module")
def mp_synth(tmp_path_factory):
    """The MP config and its ``synthesize --seed 1`` output directory."""
    root = tmp_path_factory.mktemp("mp_synth")
    config = root / "mp.ini"
    write_config(config, "mp")
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(root / "data"), "--seed", "1", "--quiet"]) == 0
    return config, root / "data"


def restated(source, dest, value=None, key="detuning_ueV"):
    """Copy a data file, dropping its ``key`` header line or, with
    ``value``, replacing what it says."""
    lines = source.read_text().splitlines(keepends=True)
    dest.write_text("".join(
        line if not line.startswith(f"# {key} ") else
        "" if value is None else f"# {key} = {value}\n"
        for line in lines))
    return dest


def sampled_rate(params):
    """Inverse mean emission time by Simpson quadrature of a trajectory."""
    traj = propagate(params)
    w = params.gamma * traj.rho_qd + params.kappa * traj.rho_ca
    return (simpson_integral(w, traj.times)
            / simpson_integral(traj.times * w, traj.times))


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_synthesize_then_fit_spectra_verdict(tmp_path, system):
    config = tmp_path / f"{system}.ini"
    write_config(config, system)
    data, fits = tmp_path / "data", tmp_path / "fits"
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--seed", "3", "--quiet"]) == 0
    files = sorted(str(p) for p in data.glob("spectrum_delta_*ueV.txt"))
    assert len(files) == 7
    assert cli.main(["fit-spectra", "--config", str(config), "--out",
                     str(fits), "--quiet", *files]) == 0
    assert sorted(p.name for p in fits.iterdir()) == ["sweep_records.csv",
                                                      "verdict.json"]
    verdict = json.loads((fits / "verdict.json").read_text())
    assert verdict["n_failures"] == 0
    assert verdict["n_records"] == 7
    assert verdict["label"] == SYSTEMS[system][2]


def test_cli_import_leaves_out_stats_and_signal(tmp_path):
    # a fresh interpreter: importing the CLI and running every subcommand,
    # the fitting ones included, must not load any scipy module,
    # configparser, concurrent.futures (only --jobs > 1 needs it), nor
    # numpy.ma beyond what numpy itself loads
    config = tmp_path / "mp.ini"
    write_config(config, "mp", "\n[fit]\ncoupling_mode = full\n")
    code = textwrap.dedent("""
        import glob, os, sys
        import numpy
        with_numpy = {m for m in sys.modules  # numpy 1.x loads numpy.ma
                      if m == "numpy.ma" or m.startswith("numpy.ma.")}
        import cqed_lab.cli as cli

        def loaded():
            return sorted(m for m in set(sys.modules) - with_numpy if m in (
                "configparser", "concurrent.futures", "scipy", "numpy.ma")
                or m.startswith(("scipy.", "numpy.ma.")))

        config, root = sys.argv[1], sys.argv[2]
        print(loaded())
        sweep, synth = os.path.join(root, "sweep"), os.path.join(root, "synth")
        decay = os.path.join(synth, "decay.txt")

        def run(command, *extra):
            return cli.main([command, "--config", config, "--out",
                             os.path.join(root, command), "--quiet", *extra])

        codes = [cli.main(["simulate-sweep", "--config", config, "--out",
                           sweep, "--quiet"]),
                 cli.main(["synthesize", "--config", config, "--out", synth,
                           "--seed", "1", "--quiet"]),
                 run("deconvolve",
                     *sorted(glob.glob(os.path.join(sweep, "*.txt")))),
                 run("fit-spectra", *sorted(
                     glob.glob(os.path.join(synth, "spectrum_*ueV.txt")))),
                 run("fit-decay", decay),
                 run("compare-g", "--spectrum",
                     os.path.join(synth, cli._spectrum_filename(0.0)),
                     "--decay", decay)]
        print(codes)
        print(loaded())
    """)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code, str(config),
                          str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0, 0]", "[]"]


def test_simulate_sweep_rates_match_sampled_path(tmp_path):
    config = tmp_path / "mp.ini"
    write_config(config, "mp")
    out = tmp_path / "sweep"
    assert cli.main(["simulate-sweep", "--config", str(config), "--out",
                     str(out), "--quiet"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    deltas = [float(d) for d in SYSTEMS["mp"][1].split(",")]
    assert [float(r.split(",")[0]) for r in rows] == deltas
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["sweep.csv"] + [cli._spectrum_filename(d) for d in deltas])
    base = cli.load_config(str(config)).params
    for row in rows:
        delta, rate, _ = (float(v) for v in row.split(","))
        assert rate == pytest.approx(
            sampled_rate(base.with_(delta=delta)), rel=1e-6)
        spec, _ = read_spectrum(out / cli._spectrum_filename(delta))
        assert spec.omega.size == 1501


def test_deconvolve_writes_one_output_per_input(tmp_path):
    config = tmp_path / "pc.ini"
    write_config(config, "pc")
    sweep, dec = tmp_path / "sweep", tmp_path / "dec"
    assert cli.main(["simulate-sweep", "--config", str(config), "--out",
                     str(sweep), "--quiet"]) == 0
    files = sorted(sweep.glob("spectrum_delta_*ueV.txt"))
    assert len(files) == 7
    assert cli.main(["deconvolve", "--config", str(config), "--out", str(dec),
                     "--quiet", *map(str, files)]) == 0
    assert len(list(dec.iterdir())) == len(files)
    for path in files:
        source, _ = read_signal(path)
        out, _ = read_signal(dec / (path.stem + "_deconvolved.txt"))
        assert out.values.size == source.values.size
        assert np.all(np.isfinite(out.values))


def deconvolved_sweep_verdict(tmp_path, system):
    """``synthesize --seed 1``, ``deconvolve``, then ``fit-spectra`` on the
    deconvolved spectra; returns verdict.json."""
    config = tmp_path / f"{system}.ini"
    write_config(config, system)
    data, dec, fits = tmp_path / "data", tmp_path / "dec", tmp_path / "fits"
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--seed", "1", "--quiet"]) == 0
    assert cli.main(["deconvolve", "--config", str(config), "--out", str(dec),
                     "--quiet", *sorted(map(str, data.glob(
                         "spectrum_delta_*ueV.txt")))]) == 0
    assert cli.main(["fit-spectra", "--config", str(config), "--out",
                     str(fits), "--quiet",
                     *sorted(map(str, dec.glob("*_deconvolved.txt")))]) == 0
    return json.loads((fits / "verdict.json").read_text())


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_fit_spectra_on_deconvolved_sweep(tmp_path, system):
    verdict = deconvolved_sweep_verdict(tmp_path, system)
    assert verdict["n_records"] == 7
    assert verdict["n_failures"] == 0
    if system == "mp":
        assert verdict["label"] == "crossing"


def test_deconvolved_pc_sweep_anticrosses(tmp_path, caplog):
    caplog.set_level(logging.WARNING)
    verdict = deconvolved_sweep_verdict(tmp_path, "pc")
    assert verdict["label"] == "anti_crossing"
    # the far-detuned fits that drove the cavity line to zero area say so
    # in verdict.json and in the log; sweep_records.csv keeps 10 columns
    rows = [row.split(",") for row in (tmp_path / "fits" / "sweep_records.csv")
            .read_text().splitlines()[1:]]
    assert {len(row) for row in rows} == {10}
    zero_area = {row[0] for row in rows[1:] if float(row[-1]) == 0.0}
    assert len(zero_area) == 3
    assert {source for source, flags in verdict["flags"].items()
            if "vanished-line" in flags} == zero_area
    warned = [r.getMessage() for r in caplog.records
              if r.levelno == logging.WARNING and "pair fit flagged" in
              r.getMessage()]
    assert len(warned) == len(verdict["flags"])
    assert all(any(source in message for message in warned)
               for source in zero_area)


def test_compare_g_on_synthesized_micropillar(tmp_path):
    config = tmp_path / "mp.ini"
    write_config(config, "mp", "\n[fit]\ncoupling_mode = full\n")
    data, report = tmp_path / "data", tmp_path / "report"
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--seed", "2", "--quiet"]) == 0
    assert cli.main(["compare-g", "--config", str(config), "--out",
                     str(report), "--quiet",
                     "--spectrum", str(data / cli._spectrum_filename(0.0)),
                     "--decay", str(data / "decay.txt")]) == 0
    result = json.loads((report / "compare_g.json").read_text())
    assert result["spectral"]["available"]
    assert result["dynamical"]["available"]
    assert result["dynamical"]["inversion_mode"] == "full"


def test_compare_g_full_inversion_without_background_decay(tmp_path):
    # gamma = 0: the full-model rate is inverted in closed form, with no
    # search that could start at a g where the emitter never decays
    config = tmp_path / "pc.ini"
    write_config(config, "pc", "\n[fit]\ncoupling_mode = full\n")
    config.write_text(config.read_text()
                      .replace("gamma_ueV = 0.2", "gamma_ueV = 0")
                      .replace(SYSTEMS["pc"][1], "0"))
    data, report = tmp_path / "data", tmp_path / "report"
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--seed", "1", "--quiet"]) == 0
    assert cli.main(["compare-g", "--config", str(config), "--out",
                     str(report), "--quiet",
                     "--spectrum", str(data / cli._spectrum_filename(0.0)),
                     "--decay", str(data / "decay.txt")]) == 0
    result = json.loads((report / "compare_g.json").read_text())
    assert result["dynamical"]["available"]
    assert result["dynamical"]["inversion_mode"] == "full"
    assert result["spectral"]["available"]


def test_compare_g_fits_spectrum_through_spectrometer_irf(tmp_path):
    # noiseless data convolved with the spectrometer IRF: fitting through
    # the same IRF returns the true g, below the strong-coupling threshold
    config = tmp_path / "mp.ini"
    write_config(config, "mp")
    config.write_text(config.read_text()
                      .replace(SYSTEMS["mp"][1], "0")
                      .replace("noise = true", "noise = false"))
    data, report = tmp_path / "data", tmp_path / "report"
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--quiet"]) == 0
    assert cli.main(["compare-g", "--config", str(config), "--out",
                     str(report), "--quiet",
                     "--spectrum", str(data / cli._spectrum_filename(0.0)),
                     "--decay", str(data / "decay.txt")]) == 0
    result = json.loads((report / "compare_g.json").read_text())
    assert abs(result["spectral"]["g_ueV"] - 22.6) <= 1e-3
    assert result["spectral"]["messages"] == []
    assert result["comparison"]["spectral_verdict"] == "weak"


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_synthesized_decay_is_the_exact_flux(tmp_path, system):
    # with no temporal IRF and no noise, decay.txt holds the emitted flux
    # gamma rho_qd + kappa rho_ca on its own bins, scaled to peak_counts
    config = tmp_path / f"{system}.ini"
    write_config(config, system)
    config.write_text(config.read_text()
                      .replace(SYSTEMS[system][1], "0")
                      .replace("temporal_irf_fwhm_ns = 0.05\n", "")
                      .replace("noise = true", "noise = false"))
    data = tmp_path / "data"
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--quiet"]) == 0
    truth = json.loads((data / "decay_truth.json").read_text())
    assert truth["kind"] == "decay"
    curve, _ = read_signal(data / "decay.txt")
    lead = int(np.count_nonzero(curve.grid < 0.0))
    assert not curve.values[:lead].any()
    params = cli.load_config(str(config)).params
    _, y = rk4_trajectory(params, curve.grid[-1], curve.step / 100)
    flux = params.gamma * y[::100, 0] + params.kappa * y[::100, 1]
    expected = 1e4 * flux / flux.max()
    assert curve.values.size == lead + expected.size
    assert np.abs(curve.values[lead:] - expected).max() <= 1e-8 * 1e4


def test_compare_g_prints_its_table_only_without_quiet(tmp_path, capsys):
    config = tmp_path / "mp.ini"
    write_config(config, "mp")
    data = tmp_path / "data"
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--seed", "2", "--quiet"]) == 0
    capsys.readouterr()
    argv = ["compare-g", "--config", str(config), "--decay",
            str(data / "decay.txt")]
    assert cli.main([*argv, "--out", str(tmp_path / "quiet"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main([*argv, "--out", str(tmp_path / "loud")]) == 0
    report = (tmp_path / "loud" / "compare_g.json").read_text()
    g_dyn = json.loads(report)["dynamical"]["g_ueV"]
    assert capsys.readouterr().out.splitlines() == [
        "coupling-strength comparison", "  spectral: unavailable",
        f"  dynamical: g = {g_dyn:.2f} ueV"]
    assert (tmp_path / "quiet" / "compare_g.json").read_text() == report


def write_zero_detuning_config(path, system, g):
    """``system`` at coupling ``g`` (ueV) and zero detuning alone, on the
    4096-point default grid, inverting decays with the full model."""
    write_config(path, system, "\n[fit]\ncoupling_mode = full\n")
    rates, deltas, _ = SYSTEMS[system]
    path.write_text(path.read_text()
                    .replace(rates.splitlines()[0], f"g_ueV = {g}")
                    .replace(deltas, "0")
                    .replace("grid_span_ueV = 1500\ngrid_points = 1501",
                             "grid_points = 4096"))


def test_compare_g_reads_the_pc_doublet_as_the_paper_does(tmp_path, capsys):
    # the paper's PC comparison: the spectrum gives a g above the
    # strong-coupling threshold, the decay one below it
    spec_config, dyn_config = tmp_path / "spec.ini", tmp_path / "dyn.ini"
    write_zero_detuning_config(spec_config, "pc", 92.4)
    write_zero_detuning_config(dyn_config, "pc", 22.0)
    for config, data in ((spec_config, "spec"), (dyn_config, "dyn")):
        assert cli.main(["synthesize", "--config", str(config), "--out",
                         str(tmp_path / data), "--seed", "1",
                         "--quiet"]) == 0
    capsys.readouterr()
    assert cli.main([
        "compare-g", "--config", str(spec_config), "--out",
        str(tmp_path / "cmp"), "--spectrum",
        str(tmp_path / "spec" / cli._spectrum_filename(0.0)),
        "--decay", str(tmp_path / "dyn" / "decay.txt")]) == 0
    report = json.loads((tmp_path / "cmp" / "compare_g.json").read_text())
    g_spec, g_dyn = (report[side]["g_ueV"] for side in ("spectral",
                                                         "dynamical"))
    threshold = cli.load_config(str(spec_config)).params \
        .strong_coupling_threshold
    assert report["comparison"] == {
        "g_spectral_ueV": g_spec, "g_dynamical_ueV": g_dyn,
        "ratio": g_spec / g_dyn, "spectral_verdict": "strong",
        "dynamical_verdict": "weak",
        "strong_coupling_threshold_ueV": threshold}
    assert g_dyn < threshold < g_spec
    assert capsys.readouterr().out.splitlines() == [
        "coupling-strength comparison",
        "  spectral:  g =    92.41 ueV  [strong]",
        "  dynamical: g =    22.02 ueV  [weak]",
        "  ratio spectral/dynamical = 4.20",
        "  strong-coupling threshold = 46.70 ueV"]


@pytest.mark.parametrize("seed", [1, 2])
def test_compare_g_flags_the_weak_coupling_degeneracy(tmp_path, seed):
    # at g = 0.5 ueV the cavity spectrum fixes only the product of its
    # amplitude and a function of g, so the fit slides toward g -> 0 while
    # the amplitude grows: the spectral side must be flagged or fail, never
    # a plain g
    config = tmp_path / "mp.ini"
    write_zero_detuning_config(config, "mp", 0.5)
    data, out = tmp_path / "data", tmp_path / "cmp"
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--seed", str(seed), "--quiet"]) == 0
    code = cli.main(["compare-g", "--config", str(config), "--out", str(out),
                     "--quiet", "--spectrum",
                     str(data / cli._spectrum_filename(0.0))])
    spectral = json.loads((out / "compare_g.json").read_text())["spectral"]
    if spectral["available"]:
        assert spectral["messages"] and code == 0, spectral
    else:
        assert spectral["error"] and code == 1, spectral


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_fit_decay_matches_compare_g_fast_rate(tmp_path, system):
    config = tmp_path / f"{system}.ini"
    write_config(config, system)
    data, fits, report = tmp_path / "data", tmp_path / "fits", tmp_path / "cmp"
    decay = str(data / "decay.txt")
    assert cli.main(["synthesize", "--config", str(config), "--out",
                     str(data), "--seed", "5", "--quiet"]) == 0
    assert cli.main(["fit-decay", "--config", str(config), "--out",
                     str(fits), "--quiet", decay]) == 0
    assert sorted(p.name for p in fits.iterdir()) == ["decay_fit.json"]
    fit = json.loads((fits / "decay_fit.json").read_text())
    assert fit["converged"] is True
    assert cli.main(["compare-g", "--config", str(config), "--out",
                     str(report), "--quiet", "--decay", decay]) == 0
    dynamical = json.loads((report / "compare_g.json").read_text())["dynamical"]
    assert fit["estimates"]["rate_1"] == dynamical["fast_rate_per_ns"]
    # a missing input fails the run but not the fits of the other inputs
    again = tmp_path / "again"
    assert cli.main(["fit-decay", "--config", str(config), "--out",
                     str(again), "--quiet", str(tmp_path / "absent.txt"),
                     decay]) == 1
    assert json.loads((again / "decay_fit.json").read_text()) == fit


def test_fit_spectra_counts_an_unreadable_file_and_fits_the_rest(
        tmp_path, mp_synth):
    config, data = mp_synth
    files = sorted(map(str, data.glob("spectrum_delta_*ueV.txt")))
    broken = tmp_path / "broken.txt"
    broken.write_text("# domain = spectral\n0 1\n1 one\n")
    out = tmp_path / "fits"
    assert cli.main(["fit-spectra", "--config", str(config), "--out",
                     str(out), "--quiet", str(broken), *files]) == 1
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["n_failures"] == 1
    assert verdict["n_records"] == len(files) == 7
    assert verdict["label"] == "crossing"
    rows = (out / "sweep_records.csv").read_text().splitlines()[2:]
    assert sorted(row.split(",")[0] for row in rows) == sorted(
        os.path.basename(f) for f in files)


def test_fit_spectra_counts_a_decay_curve_as_a_failed_input(tmp_path, caplog,
                                                           mp_synth):
    # a decay curve states the temporal domain: fitting it as a spectrum
    # gave a Q of ~3e7 and no flag
    config, data = mp_synth
    files = sorted(map(str, data.glob("spectrum_delta_*ueV.txt")))
    decay = data / "decay.txt"
    out = tmp_path / "fits"
    assert cli.main(["fit-spectra", "--config", str(config), "--out",
                     str(out), "--quiet", str(decay), *files]) == 1
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["n_failures"] == 1
    assert verdict["n_records"] == len(files) == 7
    assert verdict["label"] == "crossing"
    assert f"{decay}: a temporal file, read as spectral" in caplog.text


def test_fit_decay_fails_a_spectrum_file(tmp_path, caplog, mp_synth):
    config, data = mp_synth
    spectrum = data / cli._spectrum_filename(0.0)
    out = tmp_path / "fits"
    assert cli.main(["fit-decay", "--config", str(config), "--out", str(out),
                     "--quiet", str(spectrum), str(data / "decay.txt")]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["decay_fit.json"]
    assert f"{spectrum}: a spectral file, read as temporal" in caplog.text


def test_fit_spectra_without_detunings_is_unclassified(tmp_path, mp_synth):
    # a file without the line and one whose value is blank both record NaN
    config, data = mp_synth
    files = [str(restated(path, tmp_path / path.name,
                          "" if k == 0 else None))
             for k, path in enumerate(
                 sorted(data.glob("spectrum_delta_*ueV.txt")))]
    out = tmp_path / "fits"
    assert cli.main(["fit-spectra", "--config", str(config), "--out",
                     str(out), "--quiet", *files]) == 1
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["n_records"] == 7 and verdict["n_failures"] == 0
    assert verdict["label"] == "unclassified"


@pytest.mark.parametrize("side,value", [
    ("spectral", None), ("spectral", ""), ("dynamical", None),
    ("spectral", "abc"), ("dynamical", "inf")],
    ids=["removed", "empty", "decay-removed", "not-a-number", "decay-inf"])
def test_compare_g_needs_the_spectrum_detuning(tmp_path, caplog, mp_synth,
                                               side, value):
    # the MP spectrum at delta = +150: fitted as if at delta = 0, g comes out
    # far from the truth; a decay curve is inverted at its own detuning too
    config, data = mp_synth
    files = {"spectral": data / cli._spectrum_filename(150.0),
             "dynamical": data / "decay.txt"}
    files[side] = restated(files[side], tmp_path / "stripped.txt", value)
    out = tmp_path / "cmp"
    assert cli.main(["compare-g", "--config", str(config), "--out", str(out),
                     "--quiet", "--spectrum", str(files["spectral"]),
                     "--decay", str(files["dynamical"])]) == 1
    report = json.loads((out / "compare_g.json").read_text())
    other = ({"spectral", "dynamical"} - {side}).pop()
    assert report[side]["available"] is False
    assert "detuning_ueV" in report[side]["error"]
    assert report[other]["available"]
    assert "detuning_ueV" in caplog.text


def test_compare_g_names_a_bad_background_fraction(tmp_path, caplog,
                                                   mp_synth):
    config, data = mp_synth
    spectrum = restated(data / cli._spectrum_filename(0.0),
                        tmp_path / "bad_bg.txt", "abc", "background_fraction")
    assert "# background_fraction = abc\n" in spectrum.read_text()
    out = tmp_path / "cmp"
    assert cli.main(["compare-g", "--config", str(config), "--out", str(out),
                     "--quiet", "--spectrum", str(spectrum),
                     "--decay", str(data / "decay.txt")]) == 1
    report = json.loads((out / "compare_g.json").read_text())
    assert report["spectral"]["available"] is False
    assert "background_fraction = 'abc'" in report["spectral"]["error"]
    assert report["dynamical"]["available"]
    assert "background_fraction" in caplog.text


@pytest.mark.parametrize("command", ["fit-spectra", "compare-g"])
def test_a_failed_input_is_logged_naming_its_path_once(tmp_path, caplog,
                                                       mp_synth, command):
    config, data = mp_synth
    if command == "fit-spectra":
        bad = tmp_path / "bad.txt"
        bad.write_text("# frame = offset\n0.0 1.0\nabc 2.0\n")
        paths = [str(bad), str(tmp_path / "missing.txt")]
        inputs = paths
    else:
        paths = [str(restated(data / "decay.txt",
                              tmp_path / "nodet_decay.txt"))]
        inputs = ["--spectrum", str(data / cli._spectrum_filename(0.0)),
                  "--decay", paths[0]]
    assert cli.main([command, "--config", str(config), "--out",
                     str(tmp_path / "out"), "--quiet", *inputs]) == 1
    logged = [r.getMessage() for r in caplog.records]
    for path in paths:
        assert sum(message.count(path) for message in logged) == 1, logged


def test_compare_g_inverts_a_decay_at_the_detuning_it_states(tmp_path):
    # a decay synthesized at delta = 50 ueV gives the same g whatever
    # [decay] delta_ueV the analysing config holds; read at delta = 0, the
    # MP curve gave g = 17.6 for a truth of 22.6
    configs = {}
    for delta in (50, 0):
        configs[delta] = tmp_path / f"delta{delta}.ini"
        write_config(configs[delta], "mp", "\n[fit]\ncoupling_mode = full\n"
                     f"\n[decay]\ndelta_ueV = {delta}\n")
        configs[delta].write_text(configs[delta].read_text()
                                  .replace(SYSTEMS["mp"][1], "0"))
    data = tmp_path / "data"
    assert cli.main(["synthesize", "--config", str(configs[50]), "--out",
                     str(data), "--seed", "1", "--quiet"]) == 0
    dynamical = {}
    for delta, config in configs.items():
        out = tmp_path / f"cmp{delta}"
        assert cli.main(["compare-g", "--config", str(config), "--out",
                         str(out), "--quiet",
                         "--decay", str(data / "decay.txt")]) == 0
        dynamical[delta] = json.loads(
            (out / "compare_g.json").read_text())["dynamical"]
    assert dynamical[0]["detuning_ueV"] == dynamical[50]["detuning_ueV"] == 50
    assert dynamical[0]["g_ueV"] == pytest.approx(dynamical[50]["g_ueV"],
                                                  rel=1e-9)
    assert dynamical[0]["g_ueV"] == pytest.approx(22.6, abs=0.5)


def test_compare_g_reports_a_missing_decay_side(tmp_path, mp_synth):
    config, data = mp_synth
    argv = ["compare-g", "--config", str(config), "--quiet", "--spectrum",
            str(data / cli._spectrum_filename(0.0))]
    absent = tmp_path / "absent.txt"
    assert cli.main([*argv, "--out", str(tmp_path / "missing"),
                     "--decay", str(absent)]) == 1
    report = json.loads((tmp_path / "missing" / "compare_g.json").read_text())
    assert report["spectral"]["available"]
    assert report["dynamical"]["available"] is False
    assert str(absent) in report["dynamical"]["error"]
    assert "comparison" not in report
    assert cli.main([*argv, "--out", str(tmp_path / "spectrum_only")]) == 0
    report = json.loads((tmp_path / "spectrum_only" / "compare_g.json")
                        .read_text())
    assert report["spectral"]["available"]
    assert report["dynamical"] == {"available": False}


def test_compare_g_refuses_swapped_inputs(tmp_path, mp_synth):
    config, data = mp_synth
    spectrum, decay = data / cli._spectrum_filename(0.0), data / "decay.txt"
    out = tmp_path / "cmp"
    assert cli.main(["compare-g", "--config", str(config), "--out", str(out),
                     "--quiet", "--spectrum", str(decay),
                     "--decay", str(spectrum)]) == 1
    report = json.loads((out / "compare_g.json").read_text())
    assert report["spectral"] == {
        "available": False,
        "error": f"{decay}: a temporal file, read as spectral"}
    assert report["dynamical"] == {
        "available": False,
        "error": f"{spectrum}: a spectral file, read as temporal"}
    assert "comparison" not in report


def test_compare_g_without_inputs_exits_2(tmp_path, caplog, mp_synth):
    config, _ = mp_synth
    out = tmp_path / "cmp"
    assert cli.main(["compare-g", "--config", str(config), "--out", str(out),
                     "--quiet"]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "--spectrum or --decay" in errors[0], errors
    assert not out.exists()


def test_deconvolve_without_temporal_irf_fails_that_file(tmp_path, mp_synth):
    _, data = mp_synth
    config = tmp_path / "mp.ini"
    write_config(config, "mp")
    config.write_text(config.read_text()
                      .replace("temporal_irf_fwhm_ns = 0.05\n", ""))
    spectrum = data / cli._spectrum_filename(0.0)
    out = tmp_path / "dec"
    assert cli.main(["deconvolve", "--config", str(config), "--out", str(out),
                     "--quiet", str(data / "decay.txt"), str(spectrum)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        spectrum.stem + "_deconvolved.txt"]


def test_deconvolve_fails_a_file_with_a_nan_grid_value(tmp_path, mp_synth):
    config, data = mp_synth
    spectrum = data / cli._spectrum_filename(0.0)
    lines = spectrum.read_text().splitlines(keepends=True)
    row = len(lines) // 2
    lines[row] = "nan " + lines[row].split(" ", 1)[1]
    broken = tmp_path / "broken.txt"
    broken.write_text("".join(lines))
    out = tmp_path / "dec"
    assert cli.main(["deconvolve", "--config", str(config), "--out", str(out),
                     "--quiet", str(broken), str(spectrum)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        spectrum.stem + "_deconvolved.txt"]


@pytest.mark.parametrize("command,name,suffix", [
    ("fit-decay", "decay", ".txt"),
    ("deconvolve", cli._spectrum_filename(0.0)[:-4], ".dat"),
], ids=["fit-decay", "deconvolve"])
def test_inputs_sharing_a_file_name_are_refused(tmp_path, caplog, mp_synth,
                                                command, name, suffix):
    # each output is named after its input's file name without extension:
    # a second input of that name would overwrite the first one's output
    config, data = mp_synth
    first = data / (name + ".txt")
    second = tmp_path / "copy" / (name + suffix)
    second.parent.mkdir()
    second.write_bytes(first.read_bytes())
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out),
                     "--quiet", str(first), str(second)]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert str(first) in errors[0] and str(second) in errors[0]
    assert not out.exists()


def test_default_spectrum_grid(tmp_path):
    # the benchmark configs set no grid_span_ueV: the grid spans the largest
    # detuning with the default 4,096 points
    config = tmp_path / "pc.ini"
    write_config(config, "pc")
    config.write_text(config.read_text()
                      .replace("grid_span_ueV = 1500\ngrid_points = 1501\n",
                               ""))
    cfg = cli.load_config(str(config))
    grid = default_grid(cfg.params, 4096, 600.0)
    assert np.array_equal(cfg.spectrum_grid(), grid)
    out = tmp_path / "sweep"
    assert cli.main(["simulate-sweep", "--config", str(config), "--out",
                     str(out), "--quiet"]) == 0
    for delta in cfg.deltas:
        spec, _ = read_spectrum(out / cli._spectrum_filename(delta))
        assert spec.omega.size == 4096
        assert np.allclose(spec.omega, grid, rtol=1e-11, atol=0.0)


def test_irf_files_reproduce_their_kernels(tmp_path, monkeypatch):
    # the kernels spectrometer_q and temporal_irf_fwhm_ns build, written to
    # files: the file branch gives the same spectra, and each file is read
    # once per run however many sweep points use it
    config = tmp_path / "mp.ini"
    write_config(config, "mp", "\n[decay]\nt_max_ns = 5.0\ndt_ns = 0.002\n")
    cfg = cli.load_config(str(config))
    grid = cfg.spectrum_grid()
    write_signal(cfg.irf("spectral", grid[1] - grid[0]),
                 tmp_path / "spectral_irf.txt")
    write_signal(cfg.irf("temporal", cfg.decay_dt),
                 tmp_path / "temporal_irf.txt")
    files = tmp_path / "files.ini"
    files.write_text(config.read_text()
                     .replace("spectrometer_q = 40000.0",
                              "spectral_irf_file = spectral_irf.txt")
                     .replace("temporal_irf_fwhm_ns = 0.05",
                              "temporal_irf_file = temporal_irf.txt"))
    reads = []
    read_irf = cli.instrument.read_irf
    monkeypatch.setattr(cli.instrument, "read_irf", lambda path, domain=None:
                        reads.append(os.path.basename(path))
                        or read_irf(path, domain))

    def run(command, config, out, *extra):
        reads.clear()
        code = cli.main([command, "--config", str(config), "--out",
                         str(tmp_path / out), "--quiet", *extra])
        return code, sorted(reads)

    once = ["spectral_irf.txt", "temporal_irf.txt"]
    assert run("simulate-sweep", config, "fwhm") == (0, [])
    assert run("simulate-sweep", files, "file") == (0, once)
    assert ((tmp_path / "file" / "sweep.csv").read_text()
            == (tmp_path / "fwhm" / "sweep.csv").read_text())
    for delta in cfg.deltas:
        name = cli._spectrum_filename(delta)
        want, _ = read_spectrum(tmp_path / "fwhm" / name)
        got, _ = read_spectrum(tmp_path / "file" / name)
        assert (np.abs(got.intensity - want.intensity).max()
                <= 1e-8 * want.intensity.max())
    assert run("synthesize", files, "data", "--seed", "1") == (0, once)
    decay = str(tmp_path / "data" / "decay.txt")
    assert run("fit-decay", files, "decay", decay) == (0, once)
    assert run("compare-g", files, "cmp", "--decay", decay, "--spectrum",
               str(tmp_path / "data" / cli._spectrum_filename(0.0))) == (0,
                                                                         once)


VALID = """\
[system]
g_ueV = 22.6
kappa_ueV = 110.0
gamma_ueV = 1.3
gamma_dp_ueV = 6.3
wavelength_nm = 930.0

[sweep]
deltas_ueV = -50, 0, 50

[spectra]
grid_span_ueV = 1500
grid_points = 1501
convolve_irf = true

[instrument]
spectrometer_q = 40000.0
temporal_irf_fwhm_ns = 0.05

[decay]
delta_ueV = 0
t_max_ns = 2.0

[fit]
decay_mode = multi

[synthesize]
peak_counts = 10000.0
noise = true
"""


def assert_config_error(tmp_path, caplog, text, marker,
                        command="synthesize", files=()):
    """``command`` exits 2, writes nothing, and logs one error that starts
    with ``path:line:`` of the line ``marker`` (``path:`` if it is None)."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out),
                     "--quiet", *files]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    if marker is None:
        prefix = f"{path}: "
    else:
        lineno = text.splitlines().index(marker) + 1
        prefix = f"{path}:{lineno}: "
    assert errors[0].startswith(prefix), errors[0]
    assert not out.exists()


def test_valid_config_synthesizes(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text(VALID)
    assert cli.main(["synthesize", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0


def test_simulate_sweep_jobs_write_the_same_bytes(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text(VALID)
    outs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["simulate-sweep", "--config", str(path), "--out",
                         str(out), "--jobs", jobs, "--quiet"]) == 0
        outs[jobs] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(outs["1"]) == 4  # sweep.csv and three spectra
    assert outs["2"] == outs["1"]


# what the value of each wrongly typed case must be, as the error says
KIND_OF = {"kappa_ueV = fast": "a finite number",
           "deltas_ueV = -50, zero": "finite numbers",
           "noise = maybe": "a boolean",
           "decay_mode = quad": "one of single, bi, multi",
           "grid_points = 8": "an integer >= 16"}


@pytest.mark.parametrize("old,new,marker", [
    ("", "[ ]\n", "[ ]"),
    ("", "[bogus]\nx = 1\n", "[bogus]"),
    ("[spectra]\n", "[spectra]\nspan = 3\n", "span = 3"),
    ("wavelength_nm = 930.0\n", "wavelength_nm = 930.0\ng_ueV = 30\n",
     "g_ueV = 30"),
    ("[system]\n", "g_ueV = 1\n[system]\n", "g_ueV = 1"),
    ("[decay]\n", "[decay]\nt_max_ns 2\n", "t_max_ns 2"),
    ("kappa_ueV = 110.0", "kappa_ueV = fast", "kappa_ueV = fast"),
    ("deltas_ueV = -50, 0, 50", "deltas_ueV = -50, zero",
     "deltas_ueV = -50, zero"),
    ("noise = true", "noise = maybe", "noise = maybe"),
    ("decay_mode = multi", "decay_mode = quad", "decay_mode = quad"),
    ("grid_points = 1501", "grid_points = 8", "grid_points = 8"),
    ("kappa_ueV = 110.0\n", "", None),
    ("[system]\ng_ueV = 22.6\nkappa_ueV = 110.0\ngamma_ueV = 1.3\n"
     "gamma_dp_ueV = 6.3\nwavelength_nm = 930.0\n", "", None),
    ("[instrument]\n", "[instrument]\nspectral_irf_file = absent.txt\n",
     "spectral_irf_file = absent.txt"),
    ("wavelength_nm = 930.0\n", "", "spectrometer_q = 40000.0"),
    ("deltas_ueV = -50, 0, 50",
     "delta_min_ueV = -50\ndelta_max_ueV = 50", None),
    ("deltas_ueV = -50, 0, 50", "deltas_ueV = 0\ndelta_min_ueV = -100\n"
     "delta_max_ueV = 100\ndelta_step_ueV = 50", "delta_min_ueV = -100"),
    ("spectrometer_q = 40000.0\n",
     "spectrometer_q = 40000.0\nspectral_irf_fwhm_ueV = 100\n",
     "spectral_irf_fwhm_ueV = 100"),
    ("[instrument]\n", "[instrument]\nspectral_irf_file = irf.txt\n",
     "spectrometer_q = 40000.0"),
    ("[instrument]\n", "[instrument]\ntemporal_irf_file = irf.txt\n",
     "temporal_irf_fwhm_ns = 0.05"),
    ("deltas_ueV = -50, 0, 50", "delta_min_ueV = 0\ndelta_max_ueV = 100\n"
     "delta_step_ueV = 40", "delta_step_ueV = 40"),
    ("deltas_ueV = -50, 0, 50", "delta_step_ueV = 50", None),
    ("deltas_ueV = -50, 0, 50", "deltas_ueV = -50, 0, -0",
     "deltas_ueV = -50, 0, -0"),
    ("deltas_ueV = -50, 0, 50", "deltas_ueV = 0.0001, 0.0002",
     "deltas_ueV = 0.0001, 0.0002"),
    ("deltas_ueV = -50, 0, 50", "delta_min_ueV = 0\ndelta_max_ueV = 0.0004\n"
     "delta_step_ueV = 0.0002", "delta_step_ueV = 0.0002"),
], ids=["empty-section", "unknown-section", "unknown-key", "duplicate-key",
        "key-outside-section", "not-key-value", "bad-number", "bad-list",
        "bad-boolean", "bad-choice", "small-grid", "missing-key",
        "missing-system", "missing-irf-file", "q-without-wavelength",
        "range-without-step", "list-and-range", "q-and-irf-fwhm",
        "spectral-irf-file-and-q", "temporal-irf-file-and-fwhm",
        "inexact-range", "lone-range-key", "equal-detunings",
        "shared-file-name", "fine-step"])
def test_config_errors_name_file_and_line(tmp_path, caplog, old, new, marker):
    text = VALID + new if not old else VALID.replace(old, new, 1)
    assert text != VALID
    (tmp_path / "irf.txt").write_text("-1 1\n0 2\n1 1\n")
    assert_config_error(tmp_path, caplog, text, marker)
    if marker in KIND_OF:
        assert f"must be {KIND_OF[marker]}, got " in caplog.text


@pytest.mark.parametrize("key,stated", [
    ("temporal_irf_file", "# domain = spectral\n"),
    ("temporal_irf_file", "# frame = offset\n"),
    ("spectral_irf_file", "# domain = temporal\n"),
], ids=["temporal-from-spectral", "temporal-from-frame",
        "spectral-from-temporal"])
def test_irf_file_of_the_other_domain_exits_2(tmp_path, caplog, key, stated):
    (tmp_path / "irf.txt").write_text(stated + "-1 1\n0 2\n1 1\n")
    fwhm = ("temporal_irf_fwhm_ns = 0.05" if key.startswith("temporal")
            else "spectrometer_q = 40000.0")
    line = f"{key} = irf.txt"
    assert_config_error(tmp_path, caplog, VALID.replace(fwhm, line), line)
    assert "read as " + key.split("_")[0] in caplog.text


@pytest.mark.parametrize("command,count", [
    ("synthesize", "-2"), ("simulate-sweep", "-2"), ("synthesize", "nan")],
    ids=["synthesize", "simulate-sweep", "nan-count"])
def test_unusable_irf_file_exits_2(tmp_path, caplog, command, count):
    (tmp_path / "irf.txt").write_text(f"-1 1\n0 {count}\n1 1\n")
    text = VALID.replace("spectrometer_q = 40000.0",
                         "spectral_irf_file = irf.txt")
    assert_config_error(tmp_path, caplog, text, "spectral_irf_file = irf.txt",
                        command=command)


@pytest.mark.parametrize("config_seed,seed", [
    ("", "-1"), ("[output]\nseed = 3\n", "-1"), ("", "abc")],
    ids=["--seed", "--seed-over-config", "--seed-abc"])
def test_negative_seed_exits_2(tmp_path, caplog, config_seed, seed):
    path = tmp_path / "ok.ini"
    path.write_text(VALID + config_seed)
    out = tmp_path / "out"
    argv = ["synthesize", "--config", str(path), "--out", str(out), "--quiet",
            "--seed", seed]
    assert cli.main(argv) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].startswith("--seed"), errors
    assert not out.exists()
    # commands that never read a seed have no --seed
    argv[0] = "simulate-sweep"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["simulate-sweep", "fit-spectra"])
@pytest.mark.parametrize("jobs", ["0", "-4", "x"])
def test_bad_jobs_exits_2(tmp_path, caplog, command, jobs):
    path = tmp_path / "ok.ini"
    path.write_text(VALID)
    out = tmp_path / "out"
    files = [str(tmp_path / "x.txt")] if command == "fit-spectra" else []
    assert cli.main([command, "--config", str(path), "--out", str(out),
                     "--quiet", "--jobs", jobs, *files]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert errors == [f"--jobs must be an integer >= 1, got '{jobs}'"]
    assert not out.exists()


@pytest.mark.parametrize("command,files,dropped", [
    ("simulate-sweep", (), ["deltas_ueV"]),
    ("fit-spectra", ("spectrum.txt",),
     ["wavelength_nm", "spectrometer_q", "convolve_irf"]),
], ids=["sweep-without-detunings", "fit-without-wavelength"])
def test_command_rejecting_its_config_leaves_no_directory(
        tmp_path, caplog, command, files, dropped):
    text = "".join(line + "\n" for line in VALID.splitlines()
                   if line.split(" = ")[0] not in dropped)
    assert_config_error(tmp_path, caplog, text, None, command=command,
                        files=[str(tmp_path / f) for f in files])


def test_synthesize_without_detected_light_exits_2(tmp_path, caplog):
    # at g = 0 the cavity never fills, and eta_qd = 0 collects no emitter
    # light: the spectra are zero everywhere, with no peak to scale
    assert_config_error(tmp_path, caplog,
                        VALID.replace("g_ueV = 22.6", "g_ueV = 0"), None)
    assert "zero everywhere" in caplog.text


def test_decay_horizon_under_ten_steps_writes_nothing(tmp_path, caplog):
    path = tmp_path / "short.ini"
    path.write_text(VALID.replace("t_max_ns = 2.0",
                                  "t_max_ns = 0.01\ndt_ns = 0.002"))
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 2
    assert "shorter than 10 steps" in caplog.text
    assert not out.exists()


def test_late_grid_error_writes_nothing(tmp_path, caplog):
    # delta = 300 puts the cavity line past a 500 ueV grid; the three
    # detunings before it fit
    path = tmp_path / "narrow.ini"
    path.write_text(VALID.replace("deltas_ueV = -50, 0, 50",
                                  "deltas_ueV = -50, 0, 50, 300")
                    .replace("grid_span_ueV = 1500", "grid_span_ueV = 500"))
    out = tmp_path / "out"
    assert cli.main(["synthesize", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 2
    assert "too narrow" in caplog.text
    assert not out.exists()


def test_out_naming_a_file_exits_2(tmp_path, caplog):
    path = tmp_path / "ok.ini"
    path.write_text(VALID)
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert cli.main(["simulate-sweep", "--config", str(path), "--out",
                     str(out), "--quiet"]) == 2
    errors = [r.getMessage() for r in caplog.records
              if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and str(out) in errors[0], errors
    assert out.read_text() == "keep\n"


def test_range_sweep_loads_benchmark_detunings(tmp_path):
    path = tmp_path / "pc.ini"
    path.write_text(VALID.replace(
        "deltas_ueV = -50, 0, 50",
        "delta_min_ueV = -600.0\ndelta_max_ueV = 600.0\n"
        "delta_step_ueV = 50.0"))
    assert cli.load_config(str(path)).deltas == [-600.0 + 50.0 * k
                                                  for k in range(25)]


@pytest.mark.parametrize("old,new", [
    ("peak_counts = 10000.0", "peak_counts = nan"),
    ("grid_span_ueV = 1500", "grid_span_ueV = inf"),
    ("t_max_ns = 2.0", "t_max_ns = -2"),
    ("spectrometer_q = 40000.0", "spectrometer_q = -4"),
    ("grid_span_ueV = 1500", "grid_span_ueV = nan"),
    ("temporal_irf_fwhm_ns = 0.05", "temporal_irf_fwhm_ns = nan"),
    ("t_max_ns = 2.0", "dt_ns = 0"),
    ("delta_ueV = 0", "delta_ueV = -inf"),
    ("kappa_ueV = 110.0", "kappa_ueV = nan"),
    ("[detection]", "[detection]\neta_qd = nanj"),
    ("[output]", "[output]\nseed = -1"),
])
def test_non_finite_and_out_of_range_values_are_rejected(tmp_path, caplog,
                                                         old, new):
    text = VALID.replace(old, new) if old in VALID else VALID + new + "\n"
    assert_config_error(tmp_path, caplog, text, new.splitlines()[-1])


@pytest.mark.parametrize("section,key", [
    ("system", "wavelength_nm"), ("sweep", "delta_step_ueV"),
    ("spectra", "grid_span_ueV"),
    ("instrument", "spectral_irf_fwhm_ueV"), ("instrument", "spectrometer_q"),
    ("instrument", "temporal_irf_fwhm_ns"), ("decay", "t_max_ns"),
    ("decay", "dt_ns"), ("fit", "band_limit"),
    ("synthesize", "peak_counts")])
def test_positive_keys_reject_zero(tmp_path, caplog, section, key):
    lines = [line for line in VALID.splitlines()
             if not line.startswith(key + " ")]
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = 0")
    assert_config_error(tmp_path, caplog, "\n".join(lines) + "\n",
                        f"{key} = 0")


@pytest.mark.parametrize("section,key", [
    ("spectra", "convolve_irf"), ("fit", "convolve_spectral_irf")])
def test_spectral_convolution_without_irf_is_rejected(tmp_path, caplog,
                                                      section, key):
    text = (VALID.replace("spectrometer_q = 40000.0\n", "")
            .replace("convolve_irf = true\n", "")
            .replace(f"[{section}]\n", f"[{section}]\n{key} = true\n"))
    assert_config_error(tmp_path, caplog, text, f"{key} = true",
                        command="simulate-sweep")

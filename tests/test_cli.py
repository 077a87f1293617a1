import json
import logging
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from cqed_lab import cli, propagate, read_signal, read_spectrum
from oracles import simpson_integral

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
    # the fitting ones included, must not load any scipy module nor
    # configparser
    config = tmp_path / "mp.ini"
    write_config(config, "mp", "\n[fit]\ncoupling_mode = full\n")
    code = textwrap.dedent("""
        import glob, os, sys
        import cqed_lab.cli as cli

        def loaded():
            return sorted(m for m in sys.modules if m == "configparser"
                          or m == "scipy" or m.startswith("scipy."))

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
], ids=["empty-section", "unknown-section", "unknown-key", "duplicate-key",
        "key-outside-section", "not-key-value", "bad-number", "bad-list",
        "bad-boolean", "bad-choice", "small-grid", "missing-key",
        "missing-system", "missing-irf-file", "q-without-wavelength",
        "range-without-step", "list-and-range", "q-and-irf-fwhm",
        "spectral-irf-file-and-q", "temporal-irf-file-and-fwhm"])
def test_config_errors_name_file_and_line(tmp_path, caplog, old, new, marker):
    text = VALID + new if not old else VALID.replace(old, new, 1)
    assert text != VALID
    (tmp_path / "irf.txt").write_text("-1 1\n0 2\n1 1\n")
    assert_config_error(tmp_path, caplog, text, marker)


@pytest.mark.parametrize("config_seed", ["", "[output]\nseed = 3\n"],
                         ids=["--seed", "--seed-over-config"])
def test_negative_seed_exits_2(tmp_path, caplog, config_seed):
    path = tmp_path / "ok.ini"
    path.write_text(VALID + config_seed)
    out = tmp_path / "out"
    argv = ["synthesize", "--config", str(path), "--out", str(out), "--quiet",
            "--seed", "-1"]
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

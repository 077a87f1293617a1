import json
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
    verdict = json.loads((fits / "verdict.json").read_text())
    assert verdict["n_failures"] == 0
    assert verdict["n_records"] == 7
    assert verdict["label"] == SYSTEMS[system][2]


def test_cli_import_leaves_out_stats_and_signal(tmp_path):
    # a fresh interpreter: importing the CLI, and running the subcommands
    # that fit nothing, must not load any scipy module
    config = tmp_path / "mp.ini"
    write_config(config, "mp")
    code = textwrap.dedent("""
        import glob, os, sys
        import cqed_lab.cli as cli

        def loaded():
            return sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))

        config, root = sys.argv[1], sys.argv[2]
        print(loaded())
        sweep, synth = os.path.join(root, "sweep"), os.path.join(root, "synth")
        codes = [cli.main(["simulate-sweep", "--config", config, "--out",
                           sweep, "--quiet"]),
                 cli.main(["synthesize", "--config", config, "--out", synth,
                           "--seed", "1", "--quiet"]),
                 cli.main(["deconvolve", "--config", config, "--out",
                           os.path.join(root, "dec"), "--quiet",
                           *sorted(glob.glob(os.path.join(sweep, "*.txt")))])]
        print(codes)
        print(loaded())
    """)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code, str(config),
                          str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "[0, 0, 0]", "[]"]


def test_simulate_sweep_rates_match_sampled_path(tmp_path):
    config = tmp_path / "mp.ini"
    write_config(config, "mp")
    out = tmp_path / "sweep"
    assert cli.main(["simulate-sweep", "--config", str(config), "--out",
                     str(out), "--quiet"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    deltas = [float(d) for d in SYSTEMS["mp"][1].split(",")]
    assert [float(r.split(",")[0]) for r in rows] == deltas
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

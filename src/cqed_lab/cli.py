"""Config-driven command-line pipeline.

Subcommands: simulate-sweep, fit-spectra, fit-decay, compare-g, deconvolve,
synthesize.  Configuration is plain ``key = value`` text in ``[section]``
blocks; all energies in ueV, times in ns, wavelengths in nm (units are part
of the key names).  Outputs are written atomically and deterministically:
a fixed config and seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import inference, instrument, model, spectra
from .errors import ConfigError, CqedError, PeakError
from .units import HC_UEV_NM

__all__ = ["ExperimentConfig", "load_config", "main"]

_ENV_SEED = "CQED_LAB_SEED"
_log = logging.getLogger


# ---------------------------------------------------------------------------
# configuration


def _parse_sections(text: str, path: str) -> dict:
    """Parse [section] / key = value text, keeping line numbers."""
    sections: dict[str, dict] = {}
    lines_of: dict[str, int] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            sections.setdefault(current, {})
            lines_of.setdefault(current, lineno)
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value' or '[section]'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = (val.strip(), lineno)
    sections["__lines__"] = lines_of
    return sections


_KNOWN_KEYS = {
    "system": {"g_ueV", "kappa_ueV", "gamma_ueV", "gamma_dp_ueV",
               "omega_qd_ueV", "wavelength_nm"},
    "sweep": {"deltas_ueV", "delta_min_ueV", "delta_max_ueV", "delta_step_ueV"},
    "detection": {"eta_ca", "eta_qd", "background_fraction"},
    "spectra": {"grid_span_ueV", "grid_points", "convolve_irf"},
    "instrument": {"spectral_irf_file", "spectral_irf_fwhm_ueV",
                   "spectrometer_q", "temporal_irf_file",
                   "temporal_irf_fwhm_ns"},
    "decay": {"delta_ueV", "t_max_ns", "dt_ns", "t_lead_ns"},
    "fit": {"decay_mode", "coupling_mode", "init_g_ueV",
            "convolve_spectral_irf", "deconvolve", "band_limit"},
    "synthesize": {"peak_counts", "noise"},
    "output": {"out_dir", "seed"},
}


class _Reader:
    """Typed access to one parsed section with file:line error messages."""

    def __init__(self, path: str, name: str, entries: dict):
        self.path = path
        self.name = name
        self.entries = entries

    def _raw(self, key):
        return self.entries.get(key)

    def has(self, key) -> bool:
        return key in self.entries

    def _convert(self, key, conv, what):
        val, lineno = self.entries[key]
        try:
            return conv(val)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{self.path}:{lineno}: [{self.name}] {key} must be {what}, "
                f"got {val!r}") from None

    def get_float(self, key, default=None):
        if key not in self.entries:
            if default is None:
                raise ConfigError(
                    f"{self.path}: missing required key {key!r} in "
                    f"[{self.name}]")
            return default
        return self._convert(key, float, "a number")

    def get_int(self, key, default):
        if key not in self.entries:
            return default
        return self._convert(key, int, "an integer")

    def get_complex(self, key, default):
        if key not in self.entries:
            return default
        return self._convert(key, complex, "a real or complex number")

    def get_str(self, key, default=None):
        if key not in self.entries:
            return default
        return self.entries[key][0]

    def get_bool(self, key, default):
        if key not in self.entries:
            return default
        val, lineno = self.entries[key]
        low = val.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(
            f"{self.path}:{lineno}: [{self.name}] {key} must be a boolean")

    def get_choice(self, key, choices, default):
        val = self.get_str(key, default)
        if val not in choices:
            lineno = self.entries[key][1]
            raise ConfigError(
                f"{self.path}:{lineno}: [{self.name}] {key} must be one of "
                f"{sorted(choices)}")
        return val

    def error(self, key, message):
        lineno = self.entries[key][1] if key in self.entries else 0
        raise ConfigError(f"{self.path}:{lineno}: [{self.name}] {message}")


@dataclass
class ExperimentConfig:
    """Validated experiment description driving all subcommands."""

    path: str
    params: model.SystemParams
    deltas: list = field(default_factory=list)
    det: spectra.DetectionCoefficients = None
    wavelength_nm: float | None = None
    grid_span: float | None = None
    grid_points: int = 4096
    convolve_irf: bool = False
    spectral_irf_file: str | None = None
    spectral_irf_fwhm: float | None = None
    temporal_irf_file: str | None = None
    temporal_irf_fwhm: float | None = None
    decay_delta: float = 0.0
    decay_t_max: float | None = None
    decay_dt: float | None = None
    decay_t_lead: float | None = None
    decay_mode: str = "multi"
    coupling_mode: str = "adiabatic"
    init_g: float | None = None
    fit_convolve_irf: bool = False
    fit_deconvolve: bool = False
    band_limit: float | None = None
    peak_counts: float = 10000.0
    noise: bool = True
    out_dir: str = "."
    seed: int | None = None

    def spectrum_grid(self) -> np.ndarray:
        span = self.grid_span
        if span is None:
            p = self.params
            base = 20.0 * max(p.kappa, p.gamma + 2.0 * p.gamma_dp, 2.0 * p.g)
            reach = max((abs(d) for d in self.deltas), default=0.0)
            span = base + reach
        return np.linspace(-span, span, self.grid_points)

    def spectral_irf(self, step: float) -> instrument.IrfKernel | None:
        """Spectrometer IRF on a grid commensurate with ``step`` (ueV)."""
        if self.spectral_irf_file:
            return instrument.read_irf(self.spectral_irf_file, "spectral")
        if self.spectral_irf_fwhm:
            half = int(math.ceil(4.0 * self.spectral_irf_fwhm / step))
            grid = np.arange(-half, half + 1) * step
            return instrument.gaussian_irf(self.spectral_irf_fwhm, grid,
                                           "spectral")
        return None

    def temporal_irf(self, step: float) -> instrument.IrfKernel | None:
        """APD IRF on a grid commensurate with ``step`` (ns)."""
        if self.temporal_irf_file:
            return instrument.read_irf(self.temporal_irf_file, "temporal")
        if self.temporal_irf_fwhm:
            half = int(math.ceil(4.0 * self.temporal_irf_fwhm / step))
            grid = np.arange(-half, half + 1) * step
            return instrument.gaussian_irf(self.temporal_irf_fwhm, grid,
                                           "temporal")
        return None


def load_config(path: str) -> ExperimentConfig:
    """Load and validate an experiment configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    sections = _parse_sections(text, path)
    lines_of = sections.pop("__lines__")
    for name, entries in sections.items():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lines_of[name]}: unknown section "
                              f"[{name}]")
        for key, (_, lineno) in entries.items():
            if key not in _KNOWN_KEYS[name]:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in "
                                  f"[{name}]")

    def reader(name):
        return _Reader(path, name, sections.get(name, {}))

    sys_r = reader("system")
    if "system" not in sections:
        raise ConfigError(f"{path}: missing required section [system]")
    omega_qd = sys_r.get_float("omega_qd_ueV", math.nan)
    try:
        params = model.SystemParams(
            g=sys_r.get_float("g_ueV"),
            kappa=sys_r.get_float("kappa_ueV"),
            gamma=sys_r.get_float("gamma_ueV"),
            gamma_dp=sys_r.get_float("gamma_dp_ueV", 0.0),
            omega_qd=None if math.isnan(omega_qd) else omega_qd,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [system] {exc}") from None

    sweep_r = reader("sweep")
    deltas: list[float] = []
    if sweep_r.has("deltas_ueV"):
        raw = sweep_r.get_str("deltas_ueV")
        try:
            deltas = [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            sweep_r.error("deltas_ueV", "deltas_ueV must be numbers")
    elif sweep_r.has("delta_min_ueV") or sweep_r.has("delta_max_ueV"):
        lo = sweep_r.get_float("delta_min_ueV")
        hi = sweep_r.get_float("delta_max_ueV")
        step = sweep_r.get_float("delta_step_ueV")
        if step <= 0 or hi < lo:
            sweep_r.error("delta_step_ueV",
                          "sweep range needs delta_max >= delta_min and a "
                          "positive step")
        n = int(math.floor((hi - lo) / step + 0.5)) + 1
        deltas = [lo + k * step for k in range(n)]
    deltas.sort()

    det_r = reader("detection")
    try:
        det = spectra.DetectionCoefficients(
            eta_ca=det_r.get_complex("eta_ca", 1.0),
            eta_qd=det_r.get_complex("eta_qd", 0.0),
            background_fraction=det_r.get_float("background_fraction", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: [detection] {exc}") from None

    spec_r = reader("spectra")
    inst_r = reader("instrument")
    decay_r = reader("decay")
    fit_r = reader("fit")
    synth_r = reader("synthesize")
    out_r = reader("output")

    cfg_dir = os.path.dirname(os.path.abspath(path))

    def resolve_file(rdr, key):
        name = rdr.get_str(key)
        if name is None:
            return None
        full = name if os.path.isabs(name) else os.path.join(cfg_dir, name)
        if not os.path.exists(full):
            rdr.error(key, f"referenced file does not exist: {full}")
        return full

    spectral_q = inst_r.get_float("spectrometer_q", math.nan)
    spectral_fwhm = inst_r.get_float("spectral_irf_fwhm_ueV", math.nan)
    wavelength = sys_r.get_float("wavelength_nm", math.nan)
    if not math.isnan(spectral_q) and math.isnan(spectral_fwhm):
        if math.isnan(wavelength):
            inst_r.error("spectrometer_q",
                         "spectrometer_q needs [system] wavelength_nm")
        spectral_fwhm = instrument.irf_fwhm_from_q(wavelength, spectral_q)

    seed = out_r.get_int("seed", None)

    cfg = ExperimentConfig(
        path=path,
        params=params,
        deltas=deltas,
        det=det,
        wavelength_nm=None if math.isnan(wavelength) else wavelength,
        grid_span=spec_r.get_float("grid_span_ueV", math.nan),
        grid_points=spec_r.get_int("grid_points", 4096),
        convolve_irf=spec_r.get_bool("convolve_irf", False),
        spectral_irf_file=resolve_file(inst_r, "spectral_irf_file"),
        spectral_irf_fwhm=None if math.isnan(spectral_fwhm) else spectral_fwhm,
        temporal_irf_file=resolve_file(inst_r, "temporal_irf_file"),
        temporal_irf_fwhm=inst_r.get_float("temporal_irf_fwhm_ns", math.nan),
        decay_delta=decay_r.get_float("delta_ueV", 0.0),
        decay_t_max=decay_r.get_float("t_max_ns", math.nan),
        decay_dt=decay_r.get_float("dt_ns", math.nan),
        decay_t_lead=decay_r.get_float("t_lead_ns", math.nan),
        decay_mode=fit_r.get_choice("decay_mode",
                                    {"single", "bi", "multi"}, "multi"),
        coupling_mode=fit_r.get_choice("coupling_mode",
                                       {"adiabatic", "full"}, "adiabatic"),
        init_g=fit_r.get_float("init_g_ueV", math.nan),
        fit_convolve_irf=fit_r.get_bool("convolve_spectral_irf", False),
        fit_deconvolve=fit_r.get_bool("deconvolve", False),
        band_limit=fit_r.get_float("band_limit", math.nan),
        peak_counts=synth_r.get_float("peak_counts", 10000.0),
        noise=synth_r.get_bool("noise", True),
        out_dir=out_r.get_str("out_dir", "."),
        seed=seed,
    )
    for attr in ("grid_span", "temporal_irf_fwhm", "decay_t_max", "decay_dt",
                 "decay_t_lead", "init_g", "band_limit"):
        if isinstance(getattr(cfg, attr), float) and math.isnan(getattr(cfg, attr)):
            setattr(cfg, attr, None)
    if cfg.grid_points < 16:
        spec_r.error("grid_points", "grid_points must be at least 16")
    if cfg.peak_counts <= 0:
        synth_r.error("peak_counts", "peak_counts must be positive")
    return cfg


def _resolve_seed(args, cfg: ExperimentConfig) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if cfg.seed is not None:
        return cfg.seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{_ENV_SEED} must be an integer, got {env!r}")
    return 0


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{value:.10g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _svg_line_plot(path: str, x, series, labels, title: str,
                   xlabel: str, ylabel: str) -> None:
    """Minimal SVG polyline plot; convenience output, not a tested artifact."""
    width, height, pad = 640.0, 400.0, 56.0
    xs = np.asarray(x, dtype=float)
    finite = [np.asarray(s, dtype=float) for s in series]
    allv = np.concatenate([v[np.isfinite(v)] for v in finite]) if finite else np.array([0.0])
    if allv.size == 0:
        allv = np.array([0.0])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(allv.min()), float(allv.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 14:.1f}" '
        f'text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {height / 2:.1f})">'
        f'{ylabel}</text>',
        f'<text x="{pad:.1f}" y="{height - pad + 16:.1f}" font-size="10" '
        f'text-anchor="middle">{_fmt(x0)}</text>',
        f'<text x="{width - pad:.1f}" y="{height - pad + 16:.1f}" '
        f'font-size="10" text-anchor="middle">{_fmt(x1)}</text>',
        f'<text x="{pad - 4:.1f}" y="{height - pad:.1f}" font-size="10" '
        f'text-anchor="end">{_fmt(y0)}</text>',
        f'<text x="{pad - 4:.1f}" y="{pad + 4:.1f}" font-size="10" '
        f'text-anchor="end">{_fmt(y1)}</text>',
    ]
    for i, (vals, label) in enumerate(zip(finite, labels)):
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}"
                       for xv, yv in zip(xs, vals) if math.isfinite(yv))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{width - pad:.1f}" y="{pad + 14 * (i + 1):.1f}" '
                     f'text-anchor="end" font-size="11" fill="{color}">'
                     f'{label}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


def _spectrum_filename(delta: float) -> str:
    return f"spectrum_delta_{delta:+010.3f}ueV.txt"


def _system_metadata(cfg: ExperimentConfig, delta: float) -> dict:
    p = cfg.params
    meta = {
        "detuning_ueV": _fmt(delta),
        "g_ueV": _fmt(p.g),
        "kappa_ueV": _fmt(p.kappa),
        "gamma_ueV": _fmt(p.gamma),
        "gamma_dp_ueV": _fmt(p.gamma_dp),
        "background_fraction": _fmt(cfg.det.background_fraction),
    }
    if cfg.wavelength_nm:
        meta["wavelength_nm"] = _fmt(cfg.wavelength_nm)
    return meta


# ---------------------------------------------------------------------------
# simulate-sweep


def _forward_point(cfg: ExperimentConfig, delta: float) -> tuple:
    """Closed-form mean decay rate and spectrum at one detuning.

    The spectrum is convolved with the spectral IRF when ``[spectra]
    convolve_irf`` is set and an IRF is configured.
    """
    params = cfg.params.with_(delta=delta)
    grid = cfg.spectrum_grid()
    spec = spectra.emission_spectrum(params, cfg.det, grid)
    if cfg.convolve_irf:
        irf = cfg.spectral_irf(float(grid[1] - grid[0]))
        if irf is not None:
            sig = instrument.SampledSignal(grid, spec.intensity, "spectral")
            spec.intensity = instrument.convolve(sig, irf).values
    return model.mean_decay_rate(params), spec


def cmd_simulate_sweep(args) -> int:
    """Mean decay rates, spectra and splittings over a detuning sweep."""
    log = _log("simulate-sweep")
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if not cfg.deltas:
        raise ConfigError(f"{cfg.path}: [sweep] must define detunings")
    log.info("sweeping %d detuning points", len(cfg.deltas))

    deltas = sorted(cfg.deltas)
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(_forward_point, [cfg] * len(deltas), deltas))
    else:
        results = [_forward_point(cfg, d) for d in deltas]

    rows = ["# cqed-lab sweep v1",
            "detuning_ueV,mean_rate_per_ns,peak_separation_ueV"]
    for delta, (rate, spec) in zip(deltas, results):
        try:
            splitting = spectra.rabi_splitting(spec)
        except PeakError:
            splitting = math.nan
        rows.append(f"{_fmt(delta)},{_fmt(rate)},{_fmt(splitting)}")
        spectra.write_spectrum(spec, os.path.join(out_dir,
                                                  _spectrum_filename(delta)),
                               metadata=_system_metadata(cfg, delta))
    _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(rows) + "\n")
    _svg_line_plot(os.path.join(out_dir, "sweep.svg"),
                   deltas, [[rate for rate, _ in results]],
                   ["mean decay rate"], "Mean decay rate vs detuning",
                   "detuning (ueV)", "rate (1/ns)")
    log.info("wrote sweep.csv and %d spectra to %s", len(results), out_dir)
    return 0


# ---------------------------------------------------------------------------
# fit-spectra


def cmd_fit_spectra(args) -> int:
    """Deconvolve (optionally) and pair-fit measured or synthetic spectra."""
    log = _log("fit-spectra")
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    wavelength = cfg.wavelength_nm
    if wavelength is None and cfg.params.omega_qd:
        wavelength = HC_UEV_NM / cfg.params.omega_qd
    if wavelength is None:
        raise ConfigError(f"{cfg.path}: fit-spectra needs [system] "
                          "wavelength_nm (or omega_qd_ueV) for Q factors")

    records = []
    failures = 0
    for path in args.files:
        try:
            spec, meta = spectra.read_spectrum(path)
            detuning = float(meta.get("detuning_ueV", "nan"))
            sig = instrument.SampledSignal(spec.omega, spec.intensity,
                                           "spectral")
            irf = cfg.spectral_irf(sig.step)
            if cfg.fit_deconvolve:
                if irf is None:
                    raise ConfigError(f"{cfg.path}: [fit] deconvolve=true "
                                      "needs a spectral IRF")
                sig = instrument.deconvolve(sig, irf, cfg.band_limit)
            fit_irf = irf if (cfg.fit_convolve_irf and not cfg.fit_deconvolve) \
                else None
            init = inference.seed_lorentzian_pair(sig)
            fit = inference.fit_lorentzian_pair(sig, init, irf=fit_irf)
            rec = inference.extract_sweep_record(fit, wavelength,
                                                 detuning=detuning,
                                                 source=os.path.basename(path))
            records.append(rec)
        except (CqedError, ValueError, OSError) as exc:
            failures += 1
            log.error("%s: %s", path, exc)
    records.sort(key=lambda r: (math.isnan(r.detuning), r.detuning))

    rows = ["# cqed-lab sweep-records v1",
            "source,detuning_ueV,energy_qd_ueV,energy_ca_ueV,fwhm_qd_ueV,"
            "fwhm_ca_ueV,q_qd,q_ca,rel_area_qd,rel_area_ca"]
    for r in records:
        rows.append(",".join([r.source, _fmt(r.detuning), _fmt(r.energy_qd),
                              _fmt(r.energy_ca), _fmt(r.fwhm_qd),
                              _fmt(r.fwhm_ca), _fmt(r.q_qd), _fmt(r.q_ca),
                              _fmt(r.rel_area_qd), _fmt(r.rel_area_ca)]))
    _atomic_write(os.path.join(out_dir, "sweep_records.csv"),
                  "\n".join(rows) + "\n")

    verdict_payload: dict = {"format": "cqed-lab verdict v1",
                             "n_records": len(records),
                             "n_failures": failures}
    try:
        verdict = inference.classify_coupling(records)
        verdict_payload.update({
            "label": verdict.label,
            "min_separation_ueV": verdict.min_separation,
            "threshold_ueV": verdict.threshold,
        })
        log.info("classification: %s (min separation %.3g ueV, threshold "
                 "%.3g ueV)", verdict.label, verdict.min_separation,
                 verdict.threshold)
    except ValueError as exc:
        verdict_payload["label"] = "unclassified"
        verdict_payload["reason"] = str(exc)
        log.error("classification skipped: %s", exc)
        failures += 1
    _write_json(os.path.join(out_dir, "verdict.json"), verdict_payload)

    ok = [r for r in records if not math.isnan(r.detuning)]
    if len(ok) >= 2:
        _svg_line_plot(os.path.join(out_dir, "branches.svg"),
                       [r.detuning for r in ok],
                       [[r.energy_qd for r in ok], [r.energy_ca for r in ok]],
                       ["emitter branch", "cavity branch"],
                       "Fitted peak energies vs detuning",
                       "detuning (ueV)", "peak energy (ueV)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# fit-decay


def cmd_fit_decay(args) -> int:
    """Fit IRF-convolved multiexponentials to decay curves."""
    log = _log("fit-decay")
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    failures = 0
    for path in args.files:
        try:
            curve, _ = instrument.read_signal(path, domain="temporal")
            irf = cfg.temporal_irf(curve.step)
            fit = inference.fit_decay(curve, irf=irf, mode=cfg.decay_mode)
            base = os.path.splitext(os.path.basename(path))[0]
            _atomic_write(os.path.join(out_dir, base + "_fit.txt"),
                          fit.to_text())
            _write_json(os.path.join(out_dir, base + "_fit.json"),
                        fit.to_dict())
            log.info("%s: fast rate %.4g 1/ns", path,
                     fit.estimates["rate_1"])
        except (CqedError, ValueError, OSError) as exc:
            failures += 1
            log.error("%s: %s", path, exc)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# compare-g


def cmd_compare_g(args) -> int:
    """Extract g spectrally and dynamically, then compare the two."""
    log = _log("compare-g")
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    p = cfg.params
    report: dict = {"format": "cqed-lab compare-g v1",
                    "strong_coupling_threshold_ueV":
                        abs(p.kappa - p.gamma - 2.0 * p.gamma_dp) / 4.0}
    failures = 0

    g_spec = None
    if args.spectrum:
        try:
            spec, meta = spectra.read_spectrum(args.spectrum)
            if spec.frame == "absolute":
                spec = spectra.Spectrum(spec.omega - (spec.omega_qd or 0.0),
                                        spec.intensity, frame="offset",
                                        omega_qd=spec.omega_qd)
            delta = float(meta.get("detuning_ueV", "0") or 0.0)
            bg = float(meta.get("background_fraction", "0") or 0.0)
            sig = instrument.SampledSignal(spec.omega, spec.intensity,
                                           "spectral")
            init_g = cfg.init_g if cfg.init_g else max(p.kappa / 4.0, 1.0)
            fit = inference.fit_jc_cavity_spectrum(
                sig, fixed={"kappa": p.kappa, "gamma": p.gamma,
                            "gamma_dp": p.gamma_dp, "delta": delta},
                init_g=init_g, background_fraction=bg)
            g_spec = fit.estimates["g"]
            report["spectral"] = {"available": True, "g_ueV": g_spec,
                                  "g_stderr_ueV": fit.errors["g"],
                                  "detuning_ueV": delta,
                                  "source": os.path.basename(args.spectrum),
                                  "messages": list(fit.messages)}
            log.info("spectral fit: g = %.4g ueV", g_spec)
            if fit.messages:
                log.warning("spectral fit flagged: %s", ", ".join(fit.messages))
        except (CqedError, ValueError, OSError) as exc:
            failures += 1
            report["spectral"] = {"available": False, "error": str(exc)}
            log.error("spectral fit failed: %s", exc)
    else:
        report["spectral"] = {"available": False}

    g_dyn = None
    if args.decay:
        try:
            curve, _ = instrument.read_signal(args.decay, domain="temporal")
            irf = cfg.temporal_irf(curve.step)
            fit = inference.fit_decay(curve, irf=irf, mode=cfg.decay_mode)
            fast = fit.estimates["rate_1"]
            inv_params = p.with_(delta=cfg.decay_delta)
            g_dyn = model.coupling_from_rate(fast, inv_params,
                                             mode=cfg.coupling_mode)
            report["dynamical"] = {"available": True, "g_ueV": g_dyn,
                                   "fast_rate_per_ns": fast,
                                   "inversion_mode": cfg.coupling_mode,
                                   "detuning_ueV": cfg.decay_delta,
                                   "source": os.path.basename(args.decay),
                                   "messages": list(fit.messages)}
            log.info("dynamical extraction: rate %.4g 1/ns -> g = %.4g ueV",
                     fast, g_dyn)
            if fit.messages:
                log.warning("decay fit flagged: %s", ", ".join(fit.messages))
        except (CqedError, ValueError, OSError) as exc:
            failures += 1
            report["dynamical"] = {"available": False, "error": str(exc)}
            log.error("dynamical extraction failed: %s", exc)
    else:
        report["dynamical"] = {"available": False}

    lines = ["coupling-strength comparison"]
    if g_spec is not None and g_dyn is not None:
        cmp_ = inference.compare_coupling_estimates(
            g_spec, g_dyn, p.kappa, p.gamma, p.gamma_dp)
        report["comparison"] = cmp_.to_dict()
        lines += [
            f"  spectral:  g = {g_spec:8.2f} ueV  [{cmp_.spectral_verdict}]",
            f"  dynamical: g = {g_dyn:8.2f} ueV  [{cmp_.dynamical_verdict}]",
            f"  ratio spectral/dynamical = {cmp_.ratio:.2f}",
            f"  strong-coupling threshold = {cmp_.threshold:.2f} ueV",
        ]
    else:
        for side in ("spectral", "dynamical"):
            info = report[side]
            if info.get("available"):
                lines.append(f"  {side}: g = {info['g_ueV']:.2f} ueV")
            else:
                lines.append(f"  {side}: unavailable")
    _write_json(os.path.join(out_dir, "compare_g.json"), report)
    print("\n".join(lines))
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# deconvolve


def cmd_deconvolve(args) -> int:
    """Fourier-deconvolve signal files with the configured spectral IRF."""
    log = _log("deconvolve")
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    failures = 0
    band = args.band_limit if args.band_limit is not None else cfg.band_limit
    for path in args.files:
        try:
            sig, meta = instrument.read_signal(path)
            irf = (cfg.spectral_irf(sig.step) if sig.domain == "spectral"
                   else cfg.temporal_irf(sig.step))
            if irf is None:
                raise ConfigError(f"{cfg.path}: no IRF configured for "
                                  f"{sig.domain} signals")
            out = instrument.deconvolve(sig, irf, band)
            base = os.path.splitext(os.path.basename(path))[0]
            meta.pop("domain", None)
            instrument.write_signal(out, os.path.join(
                out_dir, base + "_deconvolved.txt"), metadata=meta)
        except (CqedError, ValueError, OSError) as exc:
            failures += 1
            log.error("%s: %s", path, exc)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# synthesize


def _counts(cfg: ExperimentConfig, values: np.ndarray, rng) -> tuple:
    """Scale ``values`` to ``peak_counts`` at their maximum, add Poisson noise."""
    scale = cfg.peak_counts / float(values.max())
    counts = values * scale
    if cfg.noise:
        counts = rng.poisson(np.clip(counts, 0.0, None)).astype(float)
    return counts, scale


def _synth_decay(cfg: ExperimentConfig, rng) -> tuple:
    params = cfg.params.with_(delta=cfg.decay_delta)
    t_max = cfg.decay_t_max or model.default_horizon(params)
    dt = cfg.decay_dt or max(t_max / 8192.0, 2e-3)
    irf = cfg.temporal_irf(dt)
    fwhm = cfg.temporal_irf_fwhm or 0.0
    t_lead = cfg.decay_t_lead or max(6.0 * fwhm, 20.0 * dt)
    n_lead = int(math.ceil(t_lead / dt))
    n = int(math.ceil(t_max / dt))
    grid = (np.arange(n_lead + n + 1) - n_lead) * dt

    dense = model.propagate(params, t_max=t_max + dt,
                            dt=min(model.default_time_step(params), dt))
    flux = (params.gamma * dense.rho_qd + params.kappa * dense.rho_ca)
    pos = np.clip(grid, 0.0, None)
    vals = np.interp(pos, dense.times, flux)
    vals[grid < 0.0] = 0.0
    sig = instrument.SampledSignal(grid, vals, "temporal")
    if irf is not None:
        sig = instrument.convolve(sig, irf)
    counts, _ = _counts(cfg, sig.values, rng)
    truth = {
        "kind": "decay",
        "detuning_ueV": cfg.decay_delta,
        "params_ueV": {"g": params.g, "kappa": params.kappa,
                       "gamma": params.gamma, "gamma_dp": params.gamma_dp},
        "mean_decay_rate_per_ns": model.mean_decay_rate(params),
    }
    return grid, counts, truth


def cmd_synthesize(args) -> int:
    """Generate noisy forward-model data files plus ground-truth sidecars."""
    log = _log("synthesize")
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    seed = _resolve_seed(args, cfg)

    for idx, delta in enumerate(sorted(cfg.deltas)):
        rng = np.random.default_rng((seed, 1, idx))
        rate, spec = _forward_point(cfg, delta)
        spec.intensity, scale = _counts(cfg, spec.intensity, rng)
        p = cfg.params
        truth = {
            "kind": "spectrum",
            "detuning_ueV": delta,
            "params_ueV": {"g": p.g, "kappa": p.kappa, "gamma": p.gamma,
                           "gamma_dp": p.gamma_dp},
            "background_fraction": cfg.det.background_fraction,
            "scale_counts_per_intensity": scale,
            "mean_decay_rate_per_ns": rate,
        }
        name = _spectrum_filename(delta)
        meta = _system_metadata(cfg, delta)
        meta["seed"] = str(seed)
        spectra.write_spectrum(spec, os.path.join(out_dir, name),
                               metadata=meta)
        _write_json(os.path.join(out_dir, name.replace(".txt", "_truth.json")),
                    truth)
    if cfg.deltas:
        log.info("wrote %d synthetic spectra", len(cfg.deltas))

    rng = np.random.default_rng((seed, 2))
    grid, counts, truth = _synth_decay(cfg, rng)
    sig = instrument.SampledSignal(grid, counts, "temporal")
    instrument.write_signal(sig, os.path.join(out_dir, "decay.txt"),
                            metadata={"detuning_ueV":
                                      _fmt(cfg.decay_delta),
                                      "seed": str(seed)})
    _write_json(os.path.join(out_dir, "decay_truth.json"), truth)
    log.info("wrote synthetic decay curve at detuning %s ueV",
             _fmt(cfg.decay_delta))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _add_common(sub, with_files=False):
    sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--out", default=None, help="output directory "
                     "(default: [output] out_dir)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for sweep points")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (fallback: config, then ${_ENV_SEED})")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress everything but errors")
    if with_files:
        sub.add_argument("files", nargs="+", help="input data files")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqed-lab",
        description="Simulate emitter-cavity dynamics and spectra; extract "
                    "coupling strengths from decay curves and Rabi splittings.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("simulate-sweep",
                          help="simulate a detuning sweep: rates and spectra")
    _add_common(sub)
    sub.set_defaults(func=cmd_simulate_sweep)

    sub = subs.add_parser("fit-spectra",
                          help="pair-fit spectra and classify the sweep")
    _add_common(sub, with_files=True)
    sub.set_defaults(func=cmd_fit_spectra)

    sub = subs.add_parser("fit-decay", help="fit decay curves through the IRF")
    _add_common(sub, with_files=True)
    sub.set_defaults(func=cmd_fit_decay)

    sub = subs.add_parser("compare-g",
                          help="compare spectral vs dynamical coupling "
                               "strengths")
    _add_common(sub)
    sub.add_argument("--spectrum", default=None, help="spectrum data file")
    sub.add_argument("--decay", default=None, help="decay-curve data file")
    sub.set_defaults(func=cmd_compare_g)

    sub = subs.add_parser("deconvolve", help="Fourier-deconvolve data files")
    _add_common(sub, with_files=True)
    sub.add_argument("--band-limit", type=float, default=None,
                     help="low-pass band in cycles per grid unit")
    sub.set_defaults(func=cmd_deconvolve)

    sub = subs.add_parser("synthesize",
                          help="generate noisy synthetic data with truth "
                               "sidecars")
    _add_common(sub)
    sub.set_defaults(func=cmd_synthesize)

    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="[%(name)s] %(message)s",
                        level=logging.ERROR if args.quiet else logging.INFO)
    try:
        return args.func(args)
    except CqedError as exc:
        _log(args.command).error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven command-line pipeline.

Subcommands: simulate-sweep, fit-spectra, fit-decay, compare-g, deconvolve,
synthesize.  Configuration is plain ``key = value`` text in ``[section]``
blocks; all energies in ueV, times in ns, wavelengths in nm (units are part
of the key names).  Only ``synthesize`` draws random numbers; its seed is
``--seed``, else ``[output] seed``, else 0.  Outputs are written atomically
and deterministically: a fixed config and seed reproduce byte-identical
files.  ``_SCHEMA`` is the reference for the config: every section and key
(with its unit), what its value must be, and its default.
"""

from __future__ import annotations

import argparse
import cmath
import concurrent.futures
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import inference, instrument, model, spectra
from .errors import ConfigError, CqedError, PeakError
from .instrument import _atomic_write

__all__ = ["ExperimentConfig", "load_config", "main"]

_log = logging.getLogger


# ---------------------------------------------------------------------------
# configuration


def _parse_sections(text: str, path: str) -> tuple:
    """Parse [section] / key = value text: entries and header line numbers."""
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
    return sections, lines_of


REQUIRED = object()
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parser(convert, accept):
    """Parse text with ``convert``; reject a value that ``accept`` refuses."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise ValueError(text)
        return value
    return parse


_number = _parser(float, math.isfinite)
_positive = _parser(float, lambda x: math.isfinite(x) and x > 0)
_complex = _parser(complex, cmath.isfinite)
_NUM, _POS, _BOOL = "a finite number", "a finite number > 0", "a boolean"
_CPLX = "a finite real or complex number"


def _numbers(text: str) -> list:
    return [_number(tok) for tok in text.replace(",", " ").split()]


def _bool(text: str) -> bool:
    return _BOOLS[text.lower()]


def _choice(*names):
    return _parser(str, names.__contains__)


# Every config key: section, key, ExperimentConfig field (or the
# SystemParams / DetectionCoefficients / sweep / spectrometer value that
# load_config combines into one), parser, what the value must be, default.
_SCHEMA = (
    ("system", "g_ueV", "g", _number, _NUM, REQUIRED),
    ("system", "kappa_ueV", "kappa", _number, _NUM, REQUIRED),
    ("system", "gamma_ueV", "gamma", _number, _NUM, REQUIRED),
    ("system", "gamma_dp_ueV", "gamma_dp", _number, _NUM, 0.0),
    ("system", "wavelength_nm", "wavelength_nm", _positive, _POS, None),
    ("sweep", "deltas_ueV", "deltas", _numbers, "finite numbers", None),
    ("sweep", "delta_min_ueV", "delta_min", _number, _NUM, None),
    ("sweep", "delta_max_ueV", "delta_max", _number, _NUM, None),
    ("sweep", "delta_step_ueV", "delta_step", _positive, _POS, None),
    ("detection", "eta_ca", "eta_ca", _complex, _CPLX, 1.0),
    ("detection", "eta_qd", "eta_qd", _complex, _CPLX, 0.0),
    ("detection", "background_fraction", "background_fraction", _number,
     _NUM, 0.0),
    ("spectra", "grid_span_ueV", "grid_span", _positive, _POS, None),
    ("spectra", "grid_points", "grid_points", _parser(int, lambda n: n >= 16),
     "an integer >= 16", 4096),
    ("spectra", "convolve_irf", "convolve_irf", _bool, _BOOL, False),
    ("instrument", "spectral_irf_file", "spectral_irf_file", str,
     "a file name", None),
    ("instrument", "spectral_irf_fwhm_ueV", "spectral_irf_fwhm", _positive,
     _POS, None),
    ("instrument", "spectrometer_q", "spectrometer_q", _positive, _POS, None),
    ("instrument", "temporal_irf_file", "temporal_irf_file", str,
     "a file name", None),
    ("instrument", "temporal_irf_fwhm_ns", "temporal_irf_fwhm", _positive,
     _POS, None),
    ("decay", "delta_ueV", "decay_delta", _number, _NUM, 0.0),
    ("decay", "t_max_ns", "decay_t_max", _positive, _POS, None),
    ("decay", "dt_ns", "decay_dt", _positive, _POS, None),
    ("fit", "decay_mode", "decay_mode", _choice("single", "bi", "multi"),
     "one of single, bi, multi", "multi"),
    ("fit", "coupling_mode", "coupling_mode", _choice("adiabatic", "full"),
     "one of adiabatic, full", "adiabatic"),
    ("fit", "convolve_spectral_irf", "fit_convolve_irf", _bool, _BOOL, False),
    ("fit", "band_limit", "band_limit", _positive, _POS, None),
    ("synthesize", "peak_counts", "peak_counts", _positive, _POS, 10000.0),
    ("synthesize", "noise", "noise", _bool, _BOOL, True),
    ("output", "out_dir", "out_dir", str, "a directory", "."),
    ("output", "seed", "seed", _parser(int, lambda n: n >= 0),
     "an integer >= 0", None),
)


@dataclass
class ExperimentConfig:
    """Validated experiment description driving all subcommands.

    :func:`load_config` builds it; ``_SCHEMA`` holds each field's key and
    default.
    """

    path: str
    params: model.SystemParams
    deltas: list
    det: spectra.DetectionCoefficients
    wavelength_nm: float | None
    grid_span: float | None
    grid_points: int
    convolve_irf: bool
    spectral_irf_file: str | None
    spectral_irf_fwhm: float | None
    temporal_irf_file: str | None
    temporal_irf_fwhm: float | None
    decay_delta: float
    decay_t_max: float | None
    decay_dt: float | None
    decay_mode: str
    coupling_mode: str
    fit_convolve_irf: bool
    band_limit: float | None
    peak_counts: float
    noise: bool
    out_dir: str
    seed: int | None

    def spectrum_grid(self) -> np.ndarray:
        if self.grid_span is not None:
            return np.linspace(-self.grid_span, self.grid_span,
                               self.grid_points)
        reach = max((abs(d) for d in self.deltas), default=0.0)
        return spectra.default_grid(self.params, self.grid_points, reach)

    def irf(self, domain: str, step: float) -> instrument.IrfKernel | None:
        """The ``domain`` IRF ("spectral" in ueV or "temporal" in ns) from
        its file, else as a Gaussian on a grid commensurate with ``step``."""
        path = getattr(self, f"{domain}_irf_file")
        fwhm = getattr(self, f"{domain}_irf_fwhm")
        if path is not None:
            return instrument.read_irf(path, domain)
        if fwhm is not None:
            half = int(math.ceil(4.0 * fwhm / step))
            return instrument.gaussian_irf(
                fwhm, np.arange(-half, half + 1) * step, domain)
        return None


def load_config(path: str) -> ExperimentConfig:
    """Load and validate an experiment configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    sections, lines_of = _parse_sections(text, path)
    known = {(section, key) for section, key, *_ in _SCHEMA}
    for name, entries in sections.items():
        if name not in {section for section, _ in known}:
            raise ConfigError(f"{path}:{lines_of[name]}: unknown section "
                              f"[{name}]")
        for key, (_, lineno) in entries.items():
            if (name, key) not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in "
                                  f"[{name}]")
    if "system" not in sections:
        raise ConfigError(f"{path}: missing required section [system]")

    def fail(section, key, message):
        entry = sections.get(section, {}).get(key)
        where = f"{path}:{entry[1]}" if entry else path
        raise ConfigError(f"{where}: [{section}] {key} {message}")

    v = {}
    for section, key, name, parse, what, default in _SCHEMA:
        if key not in sections.get(section, {}):
            if default is REQUIRED:
                fail(section, key, "is required")
            v[name] = default
            continue
        text = sections[section][key][0]
        try:
            v[name] = parse(text)
        except (LookupError, TypeError, ValueError):
            fail(section, key, f"must be {what}, got {text!r}")

    try:
        params = model.SystemParams(**{k: v.pop(k) for k in (
            "g", "kappa", "gamma", "gamma_dp")})
    except ValueError as exc:
        raise ConfigError(f"{path}: [system] {exc}") from None
    try:
        det = spectra.DetectionCoefficients(**{k: v.pop(k) for k in (
            "eta_ca", "eta_qd", "background_fraction")})
    except ValueError as exc:
        raise ConfigError(f"{path}: [detection] {exc}") from None

    deltas = v.pop("deltas")
    lo, hi, step = v.pop("delta_min"), v.pop("delta_max"), v.pop("delta_step")
    sweep = sections.get("sweep", {})
    ranged = [k for k in ("delta_min_ueV", "delta_max_ueV", "delta_step_ueV")
              if k in sweep]
    if deltas is not None and ranged:
        fail("sweep", min(ranged, key=lambda k: sweep[k][1]),
             "cannot be combined with deltas_ueV")
    if deltas is None:
        deltas = []
        if lo is not None or hi is not None:
            for key, value in (("delta_min_ueV", lo), ("delta_max_ueV", hi),
                               ("delta_step_ueV", step)):
                if value is None:
                    fail("sweep", key, "is required by a sweep range")
            if hi < lo:
                fail("sweep", "delta_max_ueV", "must be >= delta_min_ueV")
            n = int(math.floor((hi - lo) / step + 0.5)) + 1
            deltas = [lo + k * step for k in range(n)]
    deltas.sort()

    cfg_dir = os.path.dirname(os.path.abspath(path))
    for key in ("spectral_irf_file", "temporal_irf_file"):
        if v[key] is not None:
            v[key] = os.path.join(cfg_dir, v[key])
            if not os.path.isfile(v[key]):
                fail("instrument", key,
                     f"names a file that does not exist: {v[key]}")

    # an IRF comes from one key: its file, its FWHM or the spectrometer Q
    inst = sections.get("instrument", {})
    for keys in (("spectral_irf_file", "spectral_irf_fwhm_ueV",
                  "spectrometer_q"),
                 ("temporal_irf_file", "temporal_irf_fwhm_ns")):
        given = sorted((k for k in keys if k in inst), key=lambda k: inst[k][1])
        if len(given) > 1:
            fail("instrument", given[1], f"cannot be combined with {given[0]}")

    spectral_q = v.pop("spectrometer_q")
    if spectral_q is not None:
        if v["wavelength_nm"] is None:
            fail("instrument", "spectrometer_q",
                 "needs [system] wavelength_nm")
        v["spectral_irf_fwhm"] = instrument.irf_fwhm_from_q(
            v["wavelength_nm"], spectral_q)

    if v["spectral_irf_file"] is None and v["spectral_irf_fwhm"] is None:
        for section, key, name, *_ in _SCHEMA:
            if name in ("convolve_irf", "fit_convolve_irf") and v[name]:
                fail(section, key, "needs a spectral IRF in [instrument]")

    return ExperimentConfig(path=path, params=params, deltas=deltas, det=det,
                            **v)


def _resolve_seed(args, cfg: ExperimentConfig) -> int:
    """``synthesize``'s seed: ``--seed``, else ``[output] seed``, else 0."""
    if args.seed is None:
        return 0 if cfg.seed is None else cfg.seed
    if args.seed < 0:
        raise ConfigError(f"--seed must be an integer >= 0, got '{args.seed}'")
    return args.seed


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return f"{value:.10g}"


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    convolve_irf`` is set (the config then has one).
    """
    params = cfg.params.with_(delta=delta)
    grid = cfg.spectrum_grid()
    spec = spectra.emission_spectrum(params, cfg.det, grid)
    if cfg.convolve_irf:
        irf = cfg.irf("spectral", float(grid[1] - grid[0]))
        sig = instrument.SampledSignal(grid, spec.intensity, "spectral")
        spec.intensity = instrument.convolve(sig, irf).values
    return model.mean_decay_rate(params), spec


def cmd_simulate_sweep(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Mean decay rates, spectra and splittings over a detuning sweep."""
    log = _log("simulate-sweep")
    deltas = cfg.deltas
    if not deltas:
        raise ConfigError(f"{cfg.path}: [sweep] must define detunings")
    log.info("sweeping %d detuning points", len(deltas))
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
    log.info("wrote sweep.csv and %d spectra to %s", len(results), out_dir)
    return 0


# ---------------------------------------------------------------------------
# fit-spectra


def cmd_fit_spectra(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Pair-fit measured, synthetic or deconvolved spectra; classify them."""
    log = _log("fit-spectra")
    wavelength = cfg.wavelength_nm
    if wavelength is None:
        raise ConfigError(f"{cfg.path}: fit-spectra needs [system] "
                          "wavelength_nm for Q factors")

    records = []
    flags = {}
    failures = 0
    for path in args.files:
        try:
            spec, meta = spectra.read_spectrum(path)
            detuning = float(meta.get("detuning_ueV", "nan"))
            sig = instrument.SampledSignal(spec.omega, spec.intensity,
                                           "spectral")
            irf = (cfg.irf("spectral", sig.step) if cfg.fit_convolve_irf
                   else None)
            init = inference.seed_lorentzian_pair(sig)
            fit = inference.fit_lorentzian_pair(sig, init, irf=irf)
            if fit.messages:
                flags[os.path.basename(path)] = list(fit.messages)
                log.warning("%s: pair fit flagged: %s", path,
                            ", ".join(fit.messages))
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
                             "n_failures": failures,
                             "flags": flags}
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

    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# fit-decay


def cmd_fit_decay(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Fit IRF-convolved multiexponentials to decay curves."""
    log = _log("fit-decay")
    failures = 0
    for path in args.files:
        try:
            curve, _ = instrument.read_signal(path, domain="temporal")
            irf = cfg.irf("temporal", curve.step)
            fit = inference.fit_decay(curve, irf=irf, mode=cfg.decay_mode)
            base = os.path.splitext(os.path.basename(path))[0]
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


def cmd_compare_g(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Extract g spectrally and dynamically, then compare the two."""
    log = _log("compare-g")
    p = cfg.params
    report: dict = {"format": "cqed-lab compare-g v1",
                    "strong_coupling_threshold_ueV":
                        abs(p.kappa - p.gamma - 2.0 * p.gamma_dp) / 4.0}
    failures = 0

    g_spec = None
    if args.spectrum:
        try:
            spec, meta = spectra.read_spectrum(args.spectrum)
            delta = float(meta.get("detuning_ueV", "0") or 0.0)
            bg = float(meta.get("background_fraction", "0") or 0.0)
            sig = instrument.SampledSignal(spec.omega, spec.intensity,
                                           "spectral")
            fit = inference.fit_jc_cavity_spectrum(
                sig, fixed={"kappa": p.kappa, "gamma": p.gamma,
                            "gamma_dp": p.gamma_dp, "delta": delta},
                init_g=max(p.kappa / 4.0, 1.0), background_fraction=bg)
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
            irf = cfg.irf("temporal", curve.step)
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
    if not args.quiet:
        print("\n".join(lines))
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# deconvolve


def cmd_deconvolve(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Fourier-deconvolve signal files with the configured spectral IRF."""
    log = _log("deconvolve")
    failures = 0
    for path in args.files:
        try:
            sig, meta = instrument.read_signal(path)
            irf = cfg.irf(sig.domain, sig.step)
            if irf is None:
                raise ConfigError(f"{cfg.path}: no IRF configured for "
                                  f"{sig.domain} signals")
            out = instrument.deconvolve(sig, irf, cfg.band_limit)
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
    irf = cfg.irf("temporal", dt)
    fwhm = cfg.temporal_irf_fwhm or 0.0
    n_lead = int(math.ceil(max(6.0 * fwhm, 20.0 * dt) / dt))
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


def cmd_synthesize(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Generate noisy forward-model data files plus ground-truth sidecars."""
    log = _log("synthesize")
    seed = _resolve_seed(args, cfg)

    for idx, delta in enumerate(cfg.deltas):
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
    sub.set_defaults(func=cmd_deconvolve)

    sub = subs.add_parser("synthesize",
                          help="generate noisy synthetic data with truth "
                               "sidecars")
    _add_common(sub)
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed, an integer >= 0 (default: [output] "
                          "seed, else 0)")
    sub.set_defaults(func=cmd_synthesize)

    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="[%(name)s] %(message)s",
                        level=logging.ERROR if args.quiet else logging.INFO)
    created = None
    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg.out_dir
        if not os.path.isdir(out_dir):
            os.makedirs(out_dir)
            created = out_dir
        return args.func(args, cfg, out_dir)
    except CqedError as exc:
        _log(args.command).error("%s", exc)
        # a run rejected before it wrote anything leaves no directory behind
        if created and not os.listdir(created):
            os.rmdir(created)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven command-line pipeline.

Subcommands: simulate-sweep, fit-spectra, fit-decay, compare-g, deconvolve,
synthesize.  Configuration is plain ``key = value`` text in ``[section]``
blocks; all energies in ueV, times in ns, wavelengths in nm (units are part
of the key names).  Only ``synthesize`` draws random numbers; its seed is
``--seed``, else ``[output] seed``, else 0.  Outputs are written atomically
and deterministically: a fixed config and seed reproduce byte-identical
files.  ``_SCHEMA`` is the only declaration of a setting: every section
and key (with its unit), its value's kind, and its default.  One table of
kinds (a parser and what it accepts) checks config keys, ``--seed``,
``--jobs`` and data files' numbers.  IRF files are read once, at load, so
a run applies one kernel; a bad one exits 2.
``[decay] delta_ueV`` is the detuning ``synthesize`` writes into its decay
curve; analysis reads each data file's own ``detuning_ueV``, and compare-g
refuses a file without one.
"""

from __future__ import annotations

import argparse
import cmath
import json
import logging
import math
import os
import sys
import types
from dataclasses import replace

import numpy as np

from . import inference, instrument, model, spectra
from .errors import ConfigError, CqedError, PeakError
from .instrument import _atomic_write

__all__ = ["ExperimentConfig", "load_config", "main"]

_log = logging.getLogger


# ---------------------------------------------------------------------------
# configuration


def _parse_sections(text: str, path: str) -> dict:
    """Parse [section] / key = value text into {section: {key: (value, line
    number)}}, refusing a section or key ``_SCHEMA`` does not name."""
    known = {(section, key) for section, key, *_ in _SCHEMA}
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            if current not in {section for section, _ in known}:
                raise ConfigError(f"{path}:{lineno}: unknown section "
                                  f"[{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value' or '[section]'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        if (current, key) not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in "
                              f"[{current}]")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[current][key] = (val.strip(), lineno)
    return sections


REQUIRED = object()
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parser(convert, what, accept=lambda value: True):
    """A value kind: the parser of text that ``convert`` turns into a value
    ``accept`` takes, and ``what`` that text must be."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise ValueError(text)
        return value
    return parse, what


def _read(kind, text: str, where: str):
    """``text`` parsed as ``kind``; refused naming ``where`` if it is not."""
    parse, what = kind
    try:
        return parse(text)
    except (LookupError, TypeError, ValueError):
        raise ConfigError(f"{where} must be {what}, got {text!r}") from None


_number = _parser(float, "a finite number", math.isfinite)
_positive = _parser(float, "a finite number > 0", lambda x: 0 < x < math.inf)
_complex = _parser(complex, "a finite real or complex number", cmath.isfinite)
_numbers = _parser(lambda text: [_number[0](tok) for tok in text.replace(
    ",", " ").split()], "finite numbers")
_bool = _parser(lambda text: _BOOLS[text.lower()], "a boolean")
_file = _parser(str, "a file name")


def _integer(least: int):
    return _parser(int, f"an integer >= {least}", lambda n: n >= least)


def _choice(*names):
    return _parser(str, "one of " + ", ".join(names), names.__contains__)


_seed = _integer(0)

# Every config key: section, key, ExperimentConfig attribute (or the value
# load_config folds into one: SystemParams, DetectionCoefficients, sweep,
# spectrometer Q, IRF file), kind, default.
_SCHEMA = (
    ("system", "g_ueV", "g", _number, REQUIRED),
    ("system", "kappa_ueV", "kappa", _number, REQUIRED),
    ("system", "gamma_ueV", "gamma", _number, REQUIRED),
    ("system", "gamma_dp_ueV", "gamma_dp", _number, 0.0),
    ("system", "wavelength_nm", "wavelength_nm", _positive, None),
    ("sweep", "deltas_ueV", "deltas", _numbers, None),
    ("sweep", "delta_min_ueV", "delta_min", _number, None),
    ("sweep", "delta_max_ueV", "delta_max", _number, None),
    ("sweep", "delta_step_ueV", "delta_step", _positive, None),
    ("detection", "eta_ca", "eta_ca", _complex, 1.0),
    ("detection", "eta_qd", "eta_qd", _complex, 0.0),
    ("detection", "background_fraction", "background_fraction", _number, 0.0),
    ("spectra", "grid_span_ueV", "grid_span", _positive, None),
    ("spectra", "grid_points", "grid_points", _integer(16), 4096),
    ("spectra", "convolve_irf", "convolve_irf", _bool, False),
    ("instrument", "spectral_irf_file", "spectral_irf_file", _file, None),
    ("instrument", "spectral_irf_fwhm_ueV", "spectral_irf_fwhm", _positive,
     None),
    ("instrument", "spectrometer_q", "spectrometer_q", _positive, None),
    ("instrument", "temporal_irf_file", "temporal_irf_file", _file, None),
    ("instrument", "temporal_irf_fwhm_ns", "temporal_irf_fwhm", _positive,
     None),
    # read by synthesize only: analysis takes each file's own detuning_ueV
    ("decay", "delta_ueV", "decay_delta", _number, 0.0),
    ("decay", "t_max_ns", "decay_t_max", _positive, None),
    ("decay", "dt_ns", "decay_dt", _positive, None),
    ("fit", "decay_mode", "decay_mode", _choice("single", "bi", "multi"),
     "multi"),
    ("fit", "coupling_mode", "coupling_mode", _choice("adiabatic", "full"),
     "adiabatic"),
    ("fit", "convolve_spectral_irf", "fit_convolve_irf", _bool, False),
    ("fit", "band_limit", "band_limit", _positive, None),
    ("synthesize", "peak_counts", "peak_counts", _positive, 10000.0),
    ("synthesize", "noise", "noise", _bool, True),
    ("output", "out_dir", "out_dir", _parser(str, "a directory"), "."),
    ("output", "seed", "seed", _seed, None),
)
# the SystemParams rates, in ueV: config keys, file headers, truth sidecars
_RATES = ("g", "kappa", "gamma", "gamma_dp")


class ExperimentConfig(types.SimpleNamespace):
    """Validated experiment description driving all subcommands.

    :func:`load_config` builds it.  ``_SCHEMA`` is the only declaration of a
    setting: each key that load_config does not fold into another value is
    an attribute under its ``_SCHEMA`` name.  The derived attributes are
    ``path`` (the config file), ``params`` (:class:`model.SystemParams`),
    ``det`` (:class:`spectra.DetectionCoefficients`), ``deltas`` (the sorted
    sweep) and ``spectral_irf`` and ``temporal_irf`` (each the kernel of its
    IRF file, or None).
    """

    def spectrum_grid(self) -> np.ndarray:
        if self.grid_span is not None:
            return np.linspace(-self.grid_span, self.grid_span,
                               self.grid_points)
        reach = max((abs(d) for d in self.deltas), default=0.0)
        return spectra.default_grid(self.params, self.grid_points, reach)

    def irf(self, domain: str, step: float) -> instrument.IrfKernel | None:
        """The ``domain`` IRF ("spectral", ueV, or "temporal", ns): its file's
        kernel, read at load, else a Gaussian commensurate with ``step``."""
        kernel = getattr(self, f"{domain}_irf")
        fwhm = getattr(self, f"{domain}_irf_fwhm")
        if kernel is None and fwhm is not None:
            half = int(math.ceil(4.0 * fwhm / step))
            return instrument.gaussian_irf(
                fwhm, np.arange(-half, half + 1) * step, domain)
        return kernel


def load_config(path: str) -> ExperimentConfig:
    """Load and validate an experiment configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    sections = _parse_sections(text, path)
    if "system" not in sections:
        raise ConfigError(f"{path}: missing required section [system]")

    def where(section, key):
        entry = sections.get(section, {}).get(key)
        return f"{path}:{entry[1]}" if entry else path

    def fail(section, key, message):
        raise ConfigError(f"{where(section, key)}: [{section}] {key} "
                          f"{message}")

    v = {}
    for section, key, name, kind, default in _SCHEMA:
        if key in sections.get(section, {}):
            v[name] = _read(kind, sections[section][key][0],
                            f"{where(section, key)}: [{section}] {key}")
        elif default is REQUIRED:
            fail(section, key, "is required")
        else:
            v[name] = default

    try:
        params = model.SystemParams(**{k: v.pop(k) for k in _RATES})
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
        if ranged:
            for key, value in (("delta_min_ueV", lo), ("delta_max_ueV", hi),
                               ("delta_step_ueV", step)):
                if value is None:
                    fail("sweep", key, "is required by a sweep range")
            if hi < lo:
                fail("sweep", "delta_max_ueV", "must be >= delta_min_ueV")
            if step < 1e-3:
                fail("sweep", "delta_step_ueV",
                     "must be >= 0.001 ueV, the file-name resolution")
            n = round((hi - lo) / step)
            if abs(lo + n * step - hi) > 1e-9 * max(abs(lo), abs(hi), step):
                fail("sweep", "delta_step_ueV", "must divide delta_max_ueV "
                     "- delta_min_ueV into whole steps")
            deltas = [lo + k * step for k in range(n + 1)]
    deltas.sort()
    names = {_spectrum_filename(d) for d in deltas}
    if len(set(deltas)) < len(deltas) or len(names) < len(deltas):
        fail("sweep", "delta_step_ueV" if ranged else "deltas_ueV",
             "repeats a detuning to the file-name resolution, 0.001 ueV")

    # an IRF comes from one key: its file, its FWHM or the spectrometer Q
    cfg_dir = os.path.dirname(os.path.abspath(path))
    inst = sections.get("instrument", {})
    for domain, keys in (("spectral", ("spectral_irf_file",
                                       "spectral_irf_fwhm_ueV",
                                       "spectrometer_q")),
                         ("temporal", ("temporal_irf_file",
                                       "temporal_irf_fwhm_ns"))):
        key, irf_path = keys[0], v.pop(keys[0])
        if irf_path is not None:
            irf_path = os.path.join(cfg_dir, irf_path)
            if not os.path.isfile(irf_path):
                fail("instrument", key,
                     f"names a file that does not exist: {irf_path}")
        given = sorted((k for k in keys if k in inst), key=lambda k: inst[k][1])
        if len(given) > 1:
            fail("instrument", given[1], f"cannot be combined with {given[0]}")
        try:
            v[f"{domain}_irf"] = (irf_path
                                  and instrument.read_irf(irf_path, domain))
        except (CqedError, ValueError, OSError) as exc:
            fail("instrument", key, f"names an unusable IRF: {exc}")

    spectral_q = v.pop("spectrometer_q")
    if spectral_q is not None:
        if v["wavelength_nm"] is None:
            fail("instrument", "spectrometer_q",
                 "needs [system] wavelength_nm")
        # Q = E/FWHM is its own inverse: E/Q is the FWHM
        v["spectral_irf_fwhm"] = model.quality_factor(v["wavelength_nm"],
                                                      spectral_q)

    if v["spectral_irf"] is None and v["spectral_irf_fwhm"] is None:
        for section, key, name, *_ in _SCHEMA:
            if name in ("convolve_irf", "fit_convolve_irf") and v[name]:
                fail(section, key, "needs a spectral IRF in [instrument]")

    return ExperimentConfig(path=path, params=params, deltas=deltas, det=det,
                            **v)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _spectrum_filename(delta: float) -> str:
    return f"spectrum_delta_{delta:+010.3f}ueV.txt"


def _system_metadata(cfg: ExperimentConfig, delta: float) -> dict:
    meta = {"detuning_ueV": _fmt(delta),
            **{f"{k}_ueV": _fmt(getattr(cfg.params, k)) for k in _RATES},
            "background_fraction": _fmt(cfg.det.background_fraction)}
    if cfg.wavelength_nm:
        meta["wavelength_nm"] = _fmt(cfg.wavelength_nm)
    return meta


def _each_input(log, paths, work) -> tuple:
    """``work`` applied to each input path: the results, and the messages of
    the inputs it failed on (a bad file or a failed fit).  A failure stops
    only its own input and is logged once, naming it.  Outputs are named
    after their input's file name, so two inputs whose file names without
    extension are equal are refused before any work."""
    seen = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in seen:
            raise ConfigError(f"inputs {seen[name]} and {path} share the "
                              f"file name {name!r}; their outputs would "
                              "overwrite each other")
        seen[name] = path
    results, errors = [], []
    for path in paths:
        try:
            results.append(work(path))
        except (CqedError, ValueError, OSError) as exc:
            errors.append(str(exc))
            # name the path once: most messages carry it already
            prefix = "" if path in errors[-1] else f"{path}: "
            log.error("%s%s", prefix, exc)
    return results, errors


def _stated_number(path, meta: dict, key: str, default=None) -> float:
    """A data file's numeric header value ``key``: ``default`` if missing
    or blank, where no ``default`` refuses it; refused if it is anything
    else but a finite number."""
    text = meta.get(key, "")
    if not text:
        if default is None:
            raise ValueError(f"{path}: no {key} given")
        return default
    parse, what = _number
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{path}: {key} = {text!r} is not {what}") from None


# ---------------------------------------------------------------------------
# simulate-sweep


def _forward_point(cfg: ExperimentConfig, delta: float) -> tuple:
    """Closed-form mean decay rate and spectrum at one detuning.

    The spectrum is convolved with the spectral IRF when ``[spectra]
    convolve_irf`` is set (the config then has one).
    """
    params = cfg.params.with_(delta=delta)
    spec = spectra.emission_spectrum(params, cfg.det, cfg.spectrum_grid())
    if cfg.convolve_irf:
        spec = instrument.convolve(spec, cfg.irf("spectral", spec.step))
    return model.mean_decay_rate(params), spec


def cmd_simulate_sweep(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Mean decay rates, spectra and splittings over a detuning sweep."""
    log = _log("simulate-sweep")
    deltas = cfg.deltas
    if not deltas:
        raise ConfigError(f"{cfg.path}: [sweep] must define detunings")
    log.info("sweeping %d detuning points", len(deltas))
    if args.jobs > 1:
        import concurrent.futures
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

    flags = {}

    def fit_one(path):
        spec, meta = spectra.read_spectrum(path)
        detuning = _stated_number(path, meta, "detuning_ueV", math.nan)
        irf = cfg.irf("spectral", spec.step) if cfg.fit_convolve_irf else None
        init = inference.seed_lorentzian_pair(spec)
        fit = inference.fit_lorentzian_pair(spec, init, irf=irf)
        if fit.messages:
            flags[os.path.basename(path)] = list(fit.messages)
            log.warning("%s: pair fit flagged: %s", path,
                        ", ".join(fit.messages))
        return inference.extract_sweep_record(fit, wavelength,
                                              detuning=detuning,
                                              source=os.path.basename(path))

    records, errors = _each_input(log, args.files, fit_one)
    failures = len(errors)
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


def _fit_decay_file(cfg: ExperimentConfig, path) -> tuple:
    """A decay file's fit through the temporal IRF, and its metadata."""
    curve, meta = instrument.read_signal(path, domain="temporal")
    fit = inference.fit_decay(curve, irf=cfg.irf("temporal", curve.step),
                              mode=cfg.decay_mode)
    return fit, meta


def cmd_fit_decay(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Fit IRF-convolved multiexponentials to decay curves."""
    log = _log("fit-decay")

    def fit_one(path):
        fit, _ = _fit_decay_file(cfg, path)
        base = os.path.splitext(os.path.basename(path))[0]
        _write_json(os.path.join(out_dir, base + "_fit.json"), fit.to_dict())
        log.info("%s: fast rate %.4g 1/ns", path, fit.estimates["rate_1"])
        if fit.messages:
            log.warning("%s: decay fit flagged: %s", path,
                        ", ".join(fit.messages))

    return 1 if _each_input(log, args.files, fit_one)[1] else 0


# ---------------------------------------------------------------------------
# compare-g


def cmd_compare_g(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Extract g from a spectrum and from a decay curve, each fitted
    through the configured IRF of its domain at the detuning its file
    states, then compare the two."""
    log = _log("compare-g")
    if not (args.spectrum or args.decay):
        raise ConfigError("compare-g needs --spectrum or --decay")
    p = cfg.params

    def spectral(path):
        spec, meta = spectra.read_spectrum(path)
        delta = _stated_number(path, meta, "detuning_ueV")
        bg = _stated_number(path, meta, "background_fraction", 0.0)
        fit = inference.fit_jc_cavity_spectrum(
            spec, p.with_(g=max(p.kappa / 4.0, 1.0), delta=delta),
            background_fraction=bg, irf=cfg.irf("spectral", spec.step))
        return fit, {"g_ueV": fit.estimates["g"],
                     "g_stderr_ueV": fit.errors["g"], "detuning_ueV": delta}

    def dynamical(path):
        fit, meta = _fit_decay_file(cfg, path)
        delta = _stated_number(path, meta, "detuning_ueV")
        fast = fit.estimates["rate_1"]
        g = model.coupling_from_rate(fast, p.with_(delta=delta),
                                     mode=cfg.coupling_mode)
        return fit, {"g_ueV": g, "fast_rate_per_ns": fast,
                     "inversion_mode": cfg.coupling_mode,
                     "detuning_ueV": delta}

    report: dict = {"format": "cqed-lab compare-g v1",
                    "strong_coupling_threshold_ueV":
                        p.strong_coupling_threshold}
    g, failures = {}, 0
    for side, path, extract in (("spectral", args.spectrum, spectral),
                                ("dynamical", args.decay, dynamical)):
        done, errors = _each_input(log, [path] if path else [], extract)
        report[side] = {"available": bool(done)}
        if errors:
            failures += 1
            report[side]["error"] = errors[0]
        for fit, fields in done:
            g[side] = fields["g_ueV"]
            report[side].update(fields, source=os.path.basename(path),
                                messages=list(fit.messages))
            log.info("%s: %s g = %.4g ueV", path, side, g[side])
            if fit.messages:
                log.warning("%s: %s fit flagged: %s", path, side,
                            ", ".join(fit.messages))

    lines = ["coupling-strength comparison"]
    if len(g) == 2:
        g_spec, g_dyn = g["spectral"], g["dynamical"]
        threshold = p.strong_coupling_threshold
        verdict = {s: "strong" if g[s] > threshold else "weak" for s in g}
        report["comparison"] = {
            "g_spectral_ueV": g_spec, "g_dynamical_ueV": g_dyn,
            "ratio": g_spec / g_dyn, "spectral_verdict": verdict["spectral"],
            "dynamical_verdict": verdict["dynamical"],
            "strong_coupling_threshold_ueV": threshold}
        lines += [
            f"  spectral:  g = {g_spec:8.2f} ueV  [{verdict['spectral']}]",
            f"  dynamical: g = {g_dyn:8.2f} ueV  [{verdict['dynamical']}]",
            f"  ratio spectral/dynamical = {g_spec / g_dyn:.2f}",
            f"  strong-coupling threshold = {threshold:.2f} ueV",
        ]
    else:
        lines += [f"  {side}: g = {g[side]:.2f} ueV" if side in g
                  else f"  {side}: unavailable"
                  for side in ("spectral", "dynamical")]
    _write_json(os.path.join(out_dir, "compare_g.json"), report)
    if not args.quiet:
        print("\n".join(lines))
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# deconvolve


def cmd_deconvolve(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Fourier-deconvolve signal files with the configured spectral IRF."""
    log = _log("deconvolve")

    def deconvolve_one(path):
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

    return 1 if _each_input(log, args.files, deconvolve_one)[1] else 0


# ---------------------------------------------------------------------------
# synthesize


def _counts(cfg: ExperimentConfig, sig, rng) -> tuple:
    """``sig`` scaled to ``peak_counts`` at its peak with Poisson noise,
    and the scale."""
    peak = float(sig.values.max())
    if not peak > 0.0:
        raise ConfigError(f"{cfg.path}: the detected signal is zero "
                          "everywhere (at g_ueV = 0 the cavity stays dark)")
    scale = cfg.peak_counts / peak
    counts = sig.values * scale
    if cfg.noise:
        counts = rng.poisson(np.clip(counts, 0.0, None)).astype(float)
    return replace(sig, values=counts), scale


def _synth_decay(cfg: ExperimentConfig, rng) -> tuple:
    params = cfg.params.with_(delta=cfg.decay_delta)
    t_max = cfg.decay_t_max or model.default_horizon(params)
    dt = cfg.decay_dt or max(t_max / 8192.0, 2e-3)
    irf = cfg.irf("temporal", dt)
    fwhm = cfg.temporal_irf_fwhm or 0.0
    n_lead = int(math.ceil(max(6.0 * fwhm, 20.0 * dt) / dt))
    # the emitted flux, exact on the t >= 0 bins, after n_lead empty ones
    traj = model.propagate(params, t_max=t_max, dt=dt)
    flux = params.gamma * traj.rho_qd + params.kappa * traj.rho_ca
    grid = (np.arange(n_lead + flux.size) - n_lead) * dt
    vals = np.concatenate([np.zeros(n_lead), flux])
    sig = instrument.SampledSignal(grid, vals, "temporal")
    if irf is not None:
        sig = instrument.convolve(sig, irf)
    decay, _ = _counts(cfg, sig, rng)
    truth = {
        "kind": "decay",
        "detuning_ueV": cfg.decay_delta,
        "params_ueV": {k: getattr(params, k) for k in _RATES},
        "mean_decay_rate_per_ns": model.mean_decay_rate(params),
    }
    return decay, truth


def cmd_synthesize(args, cfg: ExperimentConfig, out_dir: str) -> int:
    """Generate noisy forward-model data files plus ground-truth sidecars."""
    log = _log("synthesize")
    seed = ((cfg.seed or 0) if args.seed is None
            else _read(_seed, args.seed, "--seed"))
    # the decay curve and every grid check first: a rejected run writes nothing
    decay, decay_truth = _synth_decay(cfg, np.random.default_rng((seed, 2)))
    grid = cfg.spectrum_grid()
    for delta in cfg.deltas:
        spectra._check_coverage(cfg.params.with_(delta=delta), cfg.det, grid)

    for idx, delta in enumerate(cfg.deltas):
        rng = np.random.default_rng((seed, 1, idx))
        rate, spec = _forward_point(cfg, delta)
        spec, scale = _counts(cfg, spec, rng)
        truth = {
            "kind": "spectrum",
            "detuning_ueV": delta,
            "params_ueV": {k: getattr(cfg.params, k) for k in _RATES},
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

    instrument.write_signal(decay, os.path.join(out_dir, "decay.txt"),
                            metadata={"detuning_ueV":
                                      _fmt(cfg.decay_delta),
                                      "seed": str(seed)})
    _write_json(os.path.join(out_dir, "decay_truth.json"), decay_truth)
    log.info("wrote synthetic decay curve at detuning %s ueV",
             _fmt(cfg.decay_delta))
    return 0


# ---------------------------------------------------------------------------
# entry point


_FILES = (("files", {"nargs": "+", "help": "input data files"}),)
# Each subcommand: name, help, handler, and the arguments it adds to the
# common ones.
_COMMANDS = (
    ("simulate-sweep", "simulate a detuning sweep: rates and spectra",
     cmd_simulate_sweep, ()),
    ("fit-spectra", "pair-fit spectra and classify the sweep",
     cmd_fit_spectra, _FILES),
    ("fit-decay", "fit decay curves through the IRF", cmd_fit_decay, _FILES),
    ("compare-g", "compare spectral vs dynamical coupling strengths",
     cmd_compare_g, (("--spectrum", {"help": "spectrum data file"}),
                     ("--decay", {"help": "decay-curve data file"}))),
    ("deconvolve", "Fourier-deconvolve data files", cmd_deconvolve, _FILES),
    ("synthesize", "generate noisy synthetic data with truth sidecars",
     cmd_synthesize, (("--seed", {"help": f"RNG seed, {_seed[1]} (default: "
                                  "[output] seed, else 0)"}),)),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqed-lab",
        description="Simulate emitter-cavity dynamics and spectra; extract "
                    "coupling strengths from decay curves and Rabi splittings.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_, func, arguments in _COMMANDS:
        sub = subs.add_parser(name, help=help_)
        sub.add_argument("--config", required=True,
                         help="experiment config file")
        sub.add_argument("--out", default=None, help="output directory "
                         "(default: [output] out_dir)")
        sub.add_argument("--jobs", default="1",
                         help="worker processes (simulate-sweep only)")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress everything but errors")
        for flag, kwargs in arguments:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=func)

    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="[%(name)s] %(message)s",
                        level=logging.ERROR if args.quiet else logging.INFO)
    created = None
    try:
        args.jobs = _read(_integer(1), args.jobs, "--jobs")
        cfg = load_config(args.config)
        out_dir = args.out or cfg.out_dir
        if not os.path.isdir(out_dir):
            try:
                os.makedirs(out_dir)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory "
                                  f"{out_dir}: {exc.strerror}") from None
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

"""Emission spectra from two-time correlations.

Two-time field correlations of the linear single-excitation model evolve in
the time difference tau under a 2x2 generator (quantum regression).  The
detected field is one combination of the cavity and emitter channels, so
its spectrum, the half-range Fourier transform of the time-integrated
first-order correlation, is kappa Re[c . R w] / (pi hbar) in closed form:
R is the generator's resolvent, w = eta_ca v_ca + m v_qd one start vector
with m = eta_qd sqrt(gamma/kappa), and c = conj(eta_ca, m).  The equal-time
correlations enter through their time integrals, which
:func:`cqed_lab.model.decay_moments` gives in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridError, PeakError
from .instrument import (SampledSignal, _read_columns, _stated_domain,
                         _write_columns)
from .model import SystemParams, decay_moments, generator_matrix
# bound here as well: the tracing self-test checks that wrapping leaves
# spectra.propagate and model.propagate the same object
from .model import propagate  # noqa: F401
from .units import HBAR_UEV_NS

__all__ = [
    "DetectionCoefficients",
    "Spectrum",
    "CorrelationKernel",
    "correlation_kernel",
    "resolvent_transform",
    "emission_spectrum",
    "default_grid",
    "rabi_splitting",
    "write_spectrum",
    "read_spectrum",
]

# A Lorentzian line falls to 1/26 of its peak five half-widths from its
# center, so a grid reaching that far holds every peak and its shoulders.
_GRID_HALF_WIDTHS = 5.0
# A maximum must stand this fraction of the global maximum above its dips;
# shallower doublets read as one line (PC cavity, g = 74-77: dips 1.5-3.4%).
_PROMINENCE = 0.05


@dataclass(frozen=True)
class DetectionCoefficients:
    """Collection coefficients of the cavity and emitter fields.

    ``background_fraction`` is the fraction of the total cavity-channel
    area carried by an incoherent cavity-shaped pedestal (cavity feeding
    by off-resonant emitters).
    """

    eta_ca: complex = 1.0
    eta_qd: complex = 0.0
    background_fraction: float = 0.0

    def __post_init__(self):
        if abs(self.eta_ca) ** 2 + abs(self.eta_qd) ** 2 <= 0:
            raise ValueError("at least one collection coefficient must be nonzero")
        if not 0.0 <= self.background_fraction < 1.0:
            raise ValueError("background_fraction must lie in [0, 1)")


class Spectrum(SampledSignal):
    """Intensity samples on a uniform grid of offsets from the emitter
    energy (ueV); ``omega`` and ``intensity`` read its grid and values."""

    @property
    def omega(self) -> np.ndarray:
        return self.grid

    @property
    def intensity(self) -> np.ndarray:
        return self.values


@dataclass
class CorrelationKernel:
    """Generator of the tau-evolution of detected-field correlations.

    ``matrix`` drives the vector of cavity and emitter two-time
    correlations in the frame rotating at the emitter energy (ns^-1);
    ``v0`` holds the time-integrated equal-time correlations of the cavity
    channel, (int rho_ca dt, int conj(rho_po) dt), in ns.
    """

    matrix: np.ndarray
    v0: np.ndarray


def correlation_kernel(params: SystemParams) -> CorrelationKernel:
    """Build the two-time correlation generator and its initial vector.

    At g=0 the cavity entry evolves as exp((-kappa/2 - i*delta) tau) and the
    emitter entry as exp(-(gamma/2 + gamma_dp) tau); the off-diagonal
    coupling has magnitude g with signs matching the population dynamics.
    ``v0`` holds the time integrals to infinity in closed form
    (:func:`cqed_lab.model.decay_moments`).

    Raises
    ------
    TruncationError
        If the population generator has a non-decaying mode.
    """
    return CorrelationKernel(matrix=_correlation_generator(params),
                             v0=_start_vector(decay_moments(params)[0]))


def _start_vector(y: np.ndarray, eta_ca: complex = 1.0,
                  m: complex = 0.0) -> np.ndarray:
    """The start vector w = eta_ca v_ca + m v_qd, linear in the real time
    integrals y, of the cavity channel's v_ca = (int rho_ca, int conj(rho_po))
    dt and the emitter channel's v_qd = (int rho_po, int rho_qd) dt."""
    return (eta_ca * np.array([y[1], y[2] - 1j * y[3]])
            + m * np.array([y[2] + 1j * y[3], y[0]]))


def _correlation_generator(params: SystemParams) -> np.ndarray:
    """2x2 tau-generator of the (cavity, emitter) correlations, ns^-1."""
    kt = params.kappa / HBAR_UEV_NS
    gm = params.gamma / HBAR_UEV_NS
    gdp = params.gamma_dp / HBAR_UEV_NS
    gt = params.g / HBAR_UEV_NS
    dl = params.delta / HBAR_UEV_NS
    return np.array([
        [-kt / 2.0 - 1j * dl, gt],
        [-gt, -(gm / 2.0 + gdp)],
    ])


def _check_coverage(params: SystemParams, det: DetectionCoefficients,
                    grid: np.ndarray) -> None:
    """Raise ``GridError`` unless ``grid`` holds every line of the spectrum.

    Each eigenvalue lam of the correlation generator is a (dressed) line at
    hbar*Im(lam) with half-width -hbar*Re(lam); a background pedestal adds
    the bare cavity line at -delta with half-width kappa/2.  The grid must
    reach _GRID_HALF_WIDTHS half-widths past every line on both sides.
    """
    lam = np.linalg.eigvals(_correlation_generator(params)) * HBAR_UEV_NS
    centers, halves = list(lam.imag), list(-lam.real)
    if det.background_fraction > 0.0:
        centers.append(-params.delta)
        halves.append(params.kappa / 2.0)
    lo = min(c - _GRID_HALF_WIDTHS * h for c, h in zip(centers, halves))
    hi = max(c + _GRID_HALF_WIDTHS * h for c, h in zip(centers, halves))
    if grid[0] > lo or grid[-1] < hi:
        raise GridError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] ueV too narrow; need "
            f"[{lo:.6g}, {hi:.6g}] to reach {_GRID_HALF_WIDTHS:g} "
            "half-widths past every spectral line")


def resolvent_transform(matrix: np.ndarray, v0: np.ndarray,
                        omega: np.ndarray) -> np.ndarray:
    """Half-range transform int_0^inf e^(-i w tau) e^(A tau) v0 dtau.

    ``omega`` is in ueV; the result is the 2-vector -(A - i w/hbar)^(-1) v0
    evaluated in closed form at every grid point, shape (2, len(omega)).
    """
    return np.vstack(_resolvent(matrix, omega)(v0))


def _resolvent(matrix: np.ndarray, omega: np.ndarray):
    """The map v -> -(A - i w/hbar)^(-1) v over the grid ``omega`` (ueV).

    det(A - i w/hbar) is formed once per grid.  Each of the two entries of
    v is a scalar or one value per grid point; the result is the pair of
    rows.
    """
    w = np.asarray(omega, dtype=float) / HBAR_UEV_NS
    a01, a10 = matrix[0, 1], matrix[1, 0]
    d00, d11 = matrix[0, 0] - 1j * w, matrix[1, 1] - 1j * w
    ndet = a01 * a10 - d00 * d11  # -det, so no row is negated
    if np.any(ndet == 0.0):
        raise ZeroDivisionError("singular resolvent; generator is not dissipative")

    def apply(v):
        return ((d11 * v[0] - a01 * v[1]) / ndet,
                (d00 * v[1] - a10 * v[0]) / ndet)

    return apply


def default_grid(params: SystemParams, n: int = 4096,
                 reach: float = 0.0) -> np.ndarray:
    """Uniform offset grid spanning +-20x the largest linewidth scale, widened
    by ``reach`` (ueV), e.g. the largest |detuning| of a sweep."""
    span = 20.0 * max(params.kappa, params.gamma + 2.0 * params.gamma_dp,
                      2.0 * params.g) + reach
    return np.linspace(-span, span, n)


def emission_spectrum(params: SystemParams,
                      det: DetectionCoefficients | None = None,
                      grid: np.ndarray | None = None) -> Spectrum:
    """Detected emission spectrum for an initially excited emitter.

    The spectrum is one resolvent application of the correlation generator
    to the detected field's start vector (:func:`_detected_intensity`), and
    is normalized so that each channel integrates to its emitted photon
    number.  The equal-time correlations it starts from are time integrals
    of the population dynamics, taken in closed form, -M^-1 y0 for the
    population generator M (:func:`cqed_lab.model.decay_moments`).  With
    ``det.background_fraction`` > 0 an incoherent Lorentzian pedestal (bare
    cavity width, centered on the cavity) is added carrying that fraction of
    the total cavity-channel area.

    Parameters
    ----------
    params : SystemParams
    det : DetectionCoefficients, optional
        Defaults to pure cavity detection (eta_ca=1, eta_qd=0).
    grid : ndarray, optional
        Offset frequency grid in ueV; defaults to :func:`default_grid`.
        It must reach five half-widths past every line of the spectrum on
        both sides.  The lines are the eigenvalues lam of the correlation
        generator: a line at hbar*Im(lam) with half-width -hbar*Re(lam),
        plus the bare cavity line (-delta, half-width kappa/2) when a
        background pedestal is present.

    Raises
    ------
    GridError
        If ``grid`` misses the coverage stated above.
    TruncationError
        If the population generator has a non-decaying mode (for example
        g = 0 and gamma = 0), so the time integrals diverge.
    """
    if det is None:
        det = DetectionCoefficients()
    if grid is None:
        grid = default_grid(params)
    grid = np.asarray(grid, dtype=float)
    _check_coverage(params, det, grid)
    return Spectrum(grid, _detected_intensity(params, det, grid))


def _detected_intensity(params: SystemParams, det: DetectionCoefficients,
                        grid: np.ndarray, jac: bool = False) -> np.ndarray:
    """Intensity of :func:`emission_spectrum` on any grid, unchecked.

    The detected field gives kappa Re[c . R w] / (pi hbar): R is the
    resolvent of the correlation generator A, w = eta_ca v_ca + m v_qd the
    start vector with m = eta_qd sqrt(gamma/kappa), and c = conj(eta_ca, m).
    With ``jac`` two rows follow, the analytic derivatives with respect to
    g and to the grid offset omega: for r = R w, dr/dg = R (dA/dg r + dw/dg)
    and dr/domega = -(i/hbar) R r, where y = -M^-1 y0 moves as
    dy/dg = -M^-1 (dM/dg) y.  That is one resolvent application, or three
    with ``jac``, for any eta_qd.
    """
    y = decay_moments(params)[0]
    resolve = _resolvent(_correlation_generator(params), grid)
    eca = complex(det.eta_ca)
    m = complex(det.eta_qd) * math.sqrt(params.gamma / params.kappa)
    kt = params.kappa / HBAR_UEV_NS
    c = kt * np.conj([eca, m])
    r = resolve(_start_vector(y, eca, m))
    rows = [r]
    if jac:  # M is linear in g: (dM/dg) y = (-2 y2, 2 y2, y0 - y1, 0)/hbar
        dy = np.linalg.solve(generator_matrix(params), np.array(
            [2.0 * y[2], -2.0 * y[2], y[1] - y[0], 0.0]) / HBAR_UEV_NS)
        dw = _start_vector(dy, eca, m)  # dA/dg r = (r1, -r0)/hbar
        rows += [resolve((r[1] / HBAR_UEV_NS + dw[0],
                          -r[0] / HBAR_UEV_NS + dw[1])),
                 [-1j / HBAR_UEV_NS * u for u in resolve(r)]]
    intensity = np.array([(c[0] * u0 + c[1] * u1).real for u0, u1 in rows])
    intensity /= math.pi * HBAR_UEV_NS

    peak = float(np.abs(intensity[0]).max()) or 1.0
    if intensity[0].min() < -1e-9 * peak:
        warnings.warn(
            "interference terms drove the spectrum negative beyond numerical "
            f"tolerance (min {intensity[0].min():.3g} vs peak {peak:.3g}); "
            "reported unclipped", stacklevel=3)

    frac = det.background_fraction
    if frac > 0.0:
        half, u = params.kappa / 2.0, grid + params.delta
        # a cavity-shaped line whose area is proportional to int rho_ca dt
        line = frac / (1.0 - frac) * abs(eca) ** 2 * kt * (half / math.pi) \
            / (u ** 2 + half ** 2)
        rows = [line * y[1]]
        if jac:
            rows += [line * dy[1], -2.0 * u / (u ** 2 + half ** 2) * rows[0]]
        intensity = intensity + np.array(rows)
    return intensity if jac else intensity[0]


def rabi_splitting(spec: SampledSignal) -> float:
    """Frequency separation (ueV) of the two maxima of a spectral signal.

    A maximum qualifies when it stands ``_PROMINENCE`` (relative to the
    global maximum) above the dip that separates it from every other
    qualifying maximum and from the grid edge; the two positions are
    refined by local quadratic interpolation.

    Raises
    ------
    PeakError
        If the spectrum does not show exactly two qualifying maxima.
    """
    y = spec.values
    depth = _PROMINENCE * float(y.max())
    # equal heights do not end the search for a base, so tied maxima both
    # clear the base rule; neighbours are also told apart by their dip
    idx = []
    for i in _prominent_maxima(y, depth):
        if idx and min(y[i], y[idx[-1]]) - y[idx[-1]:i + 1].min() < depth:
            if y[i] > y[idx[-1]]:
                idx[-1] = i
        else:
            idx.append(i)
    if len(idx) != 2:
        raise PeakError(
            f"expected exactly two spectral maxima, found {len(idx)}")
    positions = []
    for i in idx:
        if 0 < i < y.size - 1:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            shift = 0.5 * (y[i - 1] - y[i + 1]) / denom if denom != 0 else 0.0
        else:
            shift = 0.0
        positions.append(spec.grid[i] + shift * spec.step)
    return float(abs(positions[1] - positions[0]))


def _prominent_maxima(y: np.ndarray, depth: float) -> list:
    """Local maxima of ``y`` standing at least ``depth`` above their bases.

    A local maximum is a sample, or the middle sample of a flat run, with a
    lower neighbour on each side; the grid edges are never maxima.  Its
    base on each side is the minimum of y between it and the nearest
    strictly higher sample, or the grid edge; it counts when it stands
    ``depth`` above the higher of its two bases.
    """
    d = np.diff(y)
    steps = np.flatnonzero(d)
    rise = d[steps] > 0
    top = np.flatnonzero(rise[:-1] & ~rise[1:])
    keep = []
    for i in (steps[top] + 1 + steps[top + 1]) // 2:
        higher = np.flatnonzero(y[:i] > y[i])
        left = y[higher[-1] + 1 if higher.size else 0:i + 1].min()
        higher = np.flatnonzero(y[i + 1:] > y[i])
        right = y[i:i + 1 + higher[0] if higher.size else y.size].min()
        if y[i] - max(left, right) >= depth:
            keep.append(int(i))
    return keep


def write_spectrum(spec: SampledSignal, path,
                   metadata: dict | None = None) -> None:
    """Write a spectral signal to two-column text with '#' header lines."""
    lines = ["# cqed-lab spectrum v1", "# frame = offset"]
    for key in sorted(metadata or {}):
        lines.append(f"# {key} = {metadata[key]}")
    lines.append("# columns: omega_ueV intensity")
    _write_columns(path, lines, spec.grid, spec.values)


def read_spectrum(path) -> tuple[Spectrum, dict]:
    """Read an offset-frame spectrum file; returns it and its metadata."""
    xs, ys, meta = _read_columns(path)
    _stated_domain(path, meta, "spectral")
    frame = meta.get("frame", "offset")
    if frame != "offset":
        raise GridError(f"{path}: frame {frame!r} is not supported; spectra "
                        "hold offsets from the emitter energy")
    return Spectrum(xs, ys), meta

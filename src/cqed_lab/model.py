"""Dissipative emitter-cavity model in the single-excitation sector.

The state vector tracks the emitter population rho_qd, the cavity photon
population rho_ca, and the emitter-cavity cross coherence rho_po.  With all
rates expressed as angular frequencies the equations of motion are linear
with constant coefficients,

    d(rho_qd)/dt = -g (rho_po + rho_po*) - gamma rho_qd
    d(rho_ca)/dt =  g (rho_po + rho_po*) - kappa rho_ca
    d(rho_po)/dt =  g (rho_qd - rho_ca) - (gamma_tot + i delta) rho_po

with gamma_tot = (kappa + gamma + 2 gamma_dp)/2, so on a grid of any step
dt the state is exactly y(k dt) = P^k y0 with P = e^(M dt), not a time
stepper's approximation.

The analysis paths need only time integrals of the state y(t) = e^(Mt) y0,
and those follow from the constant generator M in closed form:

    int_0^inf y dt = -M^-1 y0          int_0^inf t y dt = M^-2 y0

(:func:`decay_moments`).  Both need every mode of M to decay; a generator
with a non-decaying mode (g = 0 and gamma = 0 leave the emitter population
constant) raises :class:`TruncationError`.  The decay rates the fits
invert for g and the Q factor of a line close the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridError, TruncationError
from .units import HBAR_UEV_NS, wavelength_to_energy

__all__ = [
    "SystemParams",
    "Trajectory",
    "propagate",
    "decay_moments",
    "mean_decay_rate",
    "coupling_from_rate",
    "quality_factor",
    "generator_matrix",
    "default_time_step",
    "default_horizon",
]

# Real parts of the generator's eigenvalues at or above this (ns^-1) count
# as non-decaying modes.
_DECAY_FLOOR = 1e-12


@dataclass(frozen=True)
class SystemParams:
    """Emitter-cavity parameter set; every field is in ueV.

    Attributes
    ----------
    g : float
        Coherent emitter-photon coupling strength.
    kappa : float
        Cavity loss rate (strictly positive).
    gamma : float
        Background emitter decay rate into leaky modes.
    gamma_dp : float
        Pure dephasing rate.
    delta : float
        Detuning, emitter energy minus cavity energy.
    """

    g: float
    kappa: float
    gamma: float
    gamma_dp: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        vals = [self.g, self.kappa, self.gamma, self.gamma_dp, self.delta]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("system parameters must be finite")
        if self.g < 0 or self.gamma < 0 or self.gamma_dp < 0:
            raise ValueError("rates must be non-negative")
        if self.kappa <= 0:
            raise ValueError("kappa must be strictly positive")

    @property
    def gamma_tot(self) -> float:
        """Total coherence decay rate (kappa + gamma + 2*gamma_dp)/2, ueV."""
        return (self.kappa + self.gamma + 2.0 * self.gamma_dp) / 2.0

    @property
    def strong_coupling_threshold(self) -> float:
        """|kappa - gamma - 2 gamma_dp|/4, ueV: a larger g splits the modes."""
        return abs(self.kappa - self.gamma - 2.0 * self.gamma_dp) / 4.0

    def with_(self, **kwargs) -> "SystemParams":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass
class Trajectory:
    """Sampled single-excitation dynamics on a uniform time grid (ns)."""

    times: np.ndarray
    rho_qd: np.ndarray
    rho_ca: np.ndarray
    rho_po: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def generator_matrix(params: SystemParams) -> np.ndarray:
    """Real 4x4 generator for (rho_qd, rho_ca, Re rho_po, Im rho_po), ns^-1."""
    gt = params.g / HBAR_UEV_NS
    kt = params.kappa / HBAR_UEV_NS
    gm = params.gamma / HBAR_UEV_NS
    gtot = params.gamma_tot / HBAR_UEV_NS
    dl = params.delta / HBAR_UEV_NS
    return np.array([
        [-gm, 0.0, -2.0 * gt, 0.0],
        [0.0, -kt, 2.0 * gt, 0.0],
        [gt, -gt, -gtot, dl],
        [0.0, 0.0, -dl, -gtot],
    ])


def default_time_step(params: SystemParams) -> float:
    """Grid step (ns) resolving the fastest rate and the detuning beat."""
    scale = max(params.kappa, params.gamma_tot, 2.0 * params.g,
                abs(params.delta), 1e-6)
    return 0.05 * HBAR_UEV_NS / scale


def default_horizon(params: SystemParams) -> float:
    """Horizon (ns) giving 20 e-folds of the slowest decaying mode."""
    eigvals = np.linalg.eigvals(generator_matrix(params))
    decaying = -eigvals.real[eigvals.real < -_DECAY_FLOOR]
    if decaying.size == 0:
        raise TruncationError("system has no decaying mode; supply t_max")
    return 20.0 / float(decaying.min())


def _decaying_generator(params: SystemParams) -> np.ndarray:
    """The generator, ns^-1, checked to have every mode decaying."""
    M = generator_matrix(params)
    slowest = float(np.linalg.eigvals(M).real.max())
    if slowest >= -_DECAY_FLOOR:
        raise TruncationError(
            f"generator has a non-decaying mode (eigenvalue real part "
            f"{slowest:.3g} ns^-1); its time integrals diverge")
    return M


def decay_moments(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form int_0^inf y dt = -M^-1 y0 and int_0^inf t y dt = M^-2 y0.

    ``y`` is the real state (rho_qd, rho_ca, Re rho_po, Im rho_po) from an
    excited emitter, y0 = (1, 0, 0, 0), and M its generator
    (:func:`generator_matrix`); both moments are in ns and ns^2.

    Raises
    ------
    TruncationError
        If the generator has a non-decaying mode.
    """
    minv = np.linalg.inv(_decaying_generator(params))
    i0 = -minv[:, 0]
    return i0, -(minv @ i0)


def _dense_solution(M: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(M t) y0, y0 = (1, 0, 0, 0), on a uniform grid from t = 0: the
    powers of P = exp(M dt) by doubling, with no eigenvectors, so exact at
    exceptional points too (Moler & Van Loan, SIAM Rev. 45, 3 (2003))."""
    block = _expm(M * (times[1] - times[0]))
    out = np.eye(4, 1)
    while out.shape[1] < times.size:
        out = np.hstack([out, block @ out])
        block = block @ block
    return out[:, :times.size]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a small matrix: Taylor series after scaling and squaring.

    a is halved s times until its infinity norm is at most 1/2, where 18
    Taylor terms leave a remainder below 1e-22 of the leading one; the
    result is squared s times (log2 ||a|| products for a long step).
    """
    norm = float(np.abs(a).sum(axis=1).max())
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    a = a / 2.0 ** s
    term = out = np.eye(a.shape[0])
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def propagate(params: SystemParams, t_max: float | None = None,
              dt: float | None = None) -> Trajectory:
    """The single-excitation dynamics from an excited emitter, exactly.

    Parameters
    ----------
    params : SystemParams
    t_max : float, optional
        Horizon in ns; defaults to 20 e-folds of the slowest decaying mode.
    dt : float, optional
        Uniform output step in ns, any length: each sample is exp(M t) y0
        to rounding.  Defaults to :func:`default_time_step`.

    Returns
    -------
    Trajectory
        Initial state (rho_qd, rho_ca, rho_po) = (1, 0, 0).
    """
    if dt is None:
        dt = default_time_step(params)
    if t_max is None:
        t_max = default_horizon(params)
    if not (math.isfinite(t_max) and math.isfinite(dt)) or t_max <= 0 or dt <= 0:
        raise ValueError("t_max and dt must be positive and finite")
    if t_max < 10.0 * dt:
        raise GridError(f"t_max={t_max:g} shorter than 10 steps of dt={dt:g}")
    times = np.arange(math.ceil(t_max / dt) + 1) * dt
    y = _dense_solution(generator_matrix(params), times)
    return Trajectory(times=times, rho_qd=y[0], rho_ca=y[1],
                      rho_po=y[2] + 1j * y[3])


def mean_decay_rate(params: SystemParams) -> float:
    """Inverse mean decay time, ns^-1.

    The mean decay time is the first moment <t> = int t w(t) dt / int w(t) dt
    of the total emitted photon flux w(t) = gamma*rho_qd + kappa*rho_ca, the
    arrival-time distribution of all photons leaving the system.  Both
    integrals run to infinity and are closed forms, c . (-M^-1 y0) and
    c . M^-2 y0 with c = (gamma, kappa, 0, 0) (:func:`decay_moments`).

    Raises
    ------
    TruncationError
        If the generator has a non-decaying mode.
    """
    i0, i1 = decay_moments(params)
    c = np.array([params.gamma, params.kappa, 0.0, 0.0])
    return float(c @ i0) / float(c @ i1)


def coupling_from_rate(target: float, params: SystemParams,
                       mode: str = "adiabatic") -> float:
    """Coupling strength g (ueV) reproducing a measured decay rate (ns^-1).

    ``mode="adiabatic"`` inverts the weak-coupling rate of adiabatic
    elimination, Gamma = gamma + 2 g^2 gamma_tot / (gamma_tot^2 + delta^2):
    g^2 = (Gamma - gamma)(gamma_tot^2 + delta^2) / (2 gamma_tot).
    ``mode="full"`` inverts :func:`mean_decay_rate` exactly: the mean decay
    time is hbar [4 gamma_tot g^2 + kappa D] / [2 (gamma + kappa) gamma_tot
    g^2 + gamma kappa D] with D = gamma_tot^2 + delta^2, so g^2 is the
    adiabatic one times kappa / (kappa + gamma - 2 hbar Gamma).  No g reaches
    a rate at or above (kappa + gamma) / (2 hbar); such a target raises
    ``ValueError``.  ``params.g`` is ignored in both modes.
    """
    if mode not in ("adiabatic", "full"):
        raise ValueError("mode must be 'adiabatic' or 'full'")
    gamma_rate = params.gamma / HBAR_UEV_NS
    if target < gamma_rate:
        raise ValueError(
            f"target rate {target:g} ns^-1 is below the background rate "
            f"{gamma_rate:g} ns^-1; no cavity enhancement to explain")
    if target == gamma_rate:
        return 0.0
    gtot = params.gamma_tot
    gamma_ueV = target * HBAR_UEV_NS
    g_sq = (gamma_ueV - params.gamma) * (gtot ** 2 + params.delta ** 2) / (2.0 * gtot)
    if mode == "full":
        limit = (params.kappa + params.gamma) / 2.0
        if gamma_ueV >= limit:
            raise ValueError(
                f"target rate {target:g} ns^-1 is at or above the limit "
                f"{limit / HBAR_UEV_NS:g} ns^-1, (kappa + gamma) / (2 hbar), "
                "which no g reaches")
        g_sq *= params.kappa / (params.kappa + params.gamma - 2.0 * gamma_ueV)
    return math.sqrt(g_sq)


def quality_factor(wavelength_nm: float, kappa_uev: float) -> float:
    """Q factor of a resonance at the given wavelength with linewidth kappa."""
    if wavelength_nm <= 0 or kappa_uev <= 0:
        raise ValueError("wavelength and kappa must be positive")
    return wavelength_to_energy(wavelength_nm) / kappa_uev

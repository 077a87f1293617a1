"""Dissipative emitter-cavity model in the single-excitation sector.

The state vector tracks the emitter population rho_qd, the cavity photon
population rho_ca, and the emitter-cavity cross coherence rho_po.  With all
rates expressed as angular frequencies the equations of motion are linear
with constant coefficients,

    d(rho_qd)/dt = -g (rho_po + rho_po*) - gamma rho_qd
    d(rho_ca)/dt =  g (rho_po + rho_po*) - kappa rho_ca
    d(rho_po)/dt =  g (rho_qd - rho_ca) - (gamma_tot + i delta) rho_po

with gamma_tot = (kappa + gamma + 2 gamma_dp)/2, so trajectories are
computed exactly from the eigendecomposition of the generator rather than
by time stepping.

The analysis paths need only time integrals of the state y(t) = e^(Mt) y0,
and those follow from the constant generator M in closed form:

    int_0^inf y dt = -M^-1 y0          int_0^inf t y dt = M^-2 y0

(:func:`decay_moments`).  Both need every mode of M to decay; a generator
with a non-decaying mode (g = 0 and gamma = 0 leave the emitter population
constant) raises :class:`TruncationError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketError, GridError, TruncationError
from .units import HBAR_UEV_NS, HC_UEV_NM

__all__ = [
    "SystemParams",
    "Trajectory",
    "propagate",
    "rabi_oracle",
    "weak_coupling_rate",
    "decay_moments",
    "mean_decay_rate",
    "coupling_from_rate",
    "purcell_enhancement",
    "quality_factor",
    "generator_matrix",
    "default_time_step",
    "default_horizon",
]

# Real parts of the generator's eigenvalues at or above this (ns^-1) count
# as non-decaying modes.
_DECAY_FLOOR = 1e-12
_Y0 = np.array([1.0, 0.0, 0.0, 0.0])


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
    """Evaluate exp(M t) y0 on all grid points, y0 = (1, 0, 0, 0)."""
    w, v = np.linalg.eig(M)
    if np.linalg.cond(v) < 1e10:
        c = np.linalg.solve(v, _Y0.astype(complex))
        return (v @ (np.exp(np.outer(w, times)) * c[:, None])).real
    # near-defective generator (exceptional point): step with doubled
    # matrix-exponential blocks instead
    n = times.size
    step = _expm(M * (times[1] - times[0]))
    out = _Y0[:, None].copy()
    block = step
    while out.shape[1] < n:
        out = np.hstack([out, block @ out])
        block = block @ block
    return out[:, :n]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a small matrix: Taylor series after scaling and squaring.

    a is halved s times until its infinity norm is at most 1/2, where 18
    Taylor terms leave a remainder below 1e-22 of the leading one; the
    result is squared s times.  ``propagate``'s step guard keeps
    ||M dt|| at about 0.2 or below, so one step needs no squaring unless
    the detuning dominates the rates.
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
    """Integrate the single-excitation dynamics from an excited emitter.

    Parameters
    ----------
    params : SystemParams
    t_max : float, optional
        Horizon in ns; defaults to 20 e-folds of the slowest decaying mode.
    dt : float, optional
        Uniform output step in ns; must satisfy
        dt * max(kappa, gamma_tot, 2g) / hbar <= 0.1.

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
    fast = max(params.kappa, params.gamma_tot, 2.0 * params.g)
    if dt * fast / HBAR_UEV_NS > 0.1 + 1e-12:
        raise GridError(
            f"dt={dt:g} ns under-resolves the fastest rate "
            f"{fast:g} ueV; need dt <= {0.1 * HBAR_UEV_NS / fast:g} ns")
    n = int(math.ceil(t_max / dt))
    times = np.arange(n + 1) * dt
    y = _dense_solution(generator_matrix(params), times)
    return Trajectory(times=times, rho_qd=y[0], rho_ca=y[1],
                      rho_po=y[2] + 1j * y[3])


def rabi_oracle(g: float, t) -> np.ndarray | float:
    """Closed-form emitter population cos^2(g t / hbar) for zero dissipation."""
    if g < 0:
        raise ValueError("g must be non-negative")
    return np.cos(g * np.asarray(t) / HBAR_UEV_NS) ** 2


def weak_coupling_rate(params: SystemParams) -> float:
    """Adiabatic-elimination decay rate of the emitter, ns^-1.

    Valid when the coherence decays much faster than the populations; the
    closed form is gamma + 2 g^2 gamma_tot / (gamma_tot^2 + delta^2).
    """
    gtot = params.gamma_tot
    enh = 2.0 * params.g ** 2 * gtot / (gtot ** 2 + params.delta ** 2)
    return (params.gamma + enh) / HBAR_UEV_NS


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
                       mode: str = "adiabatic", rtol: float = 1e-6) -> float:
    """Coupling strength g (ueV) reproducing a measured decay rate (ns^-1).

    ``mode="adiabatic"`` inverts the closed-form weak-coupling rate,
    g^2 = (Gamma - gamma)(gamma_tot^2 + delta^2) / (2 gamma_tot).
    ``mode="full"`` bisects for the g whose full-model mean decay rate, in
    closed form at every step, matches the target, to within ``rtol``
    relative; ``params.g`` is ignored in both modes.
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
    if mode == "adiabatic":
        gtot = params.gamma_tot
        gamma_ueV = target * HBAR_UEV_NS
        g_sq = (gamma_ueV - params.gamma) * (gtot ** 2 + params.delta ** 2) / (2.0 * gtot)
        return math.sqrt(g_sq)
    if not rtol >= 4.0 * np.finfo(float).eps:
        raise ValueError("rtol must be at least 4 machine epsilons")

    def f(g):
        return mean_decay_rate(params.with_(g=g)) - target

    lo, hi = 1e-9, max(coupling_from_rate(target, params, mode="adiabatic"),
                       1e-3)
    f_lo, f_hi = f(lo), f(hi)
    tries = 0
    while f_hi < 0:
        lo, f_lo, hi = hi, f_hi, hi * 1.6
        f_hi = f(hi)
        tries += 1
        if tries > 30:
            raise BracketError(
                "no g bracket: full-model rate never reaches the target")
    # bisect while f(lo) < 0 <= f(hi); the secant through the final bracket
    # stays inside it, so within rtol of the root, and lands far closer
    # where f is smooth
    while hi - lo > rtol * lo:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid < 0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo - f_lo * (hi - lo) / (f_hi - f_lo)


def purcell_enhancement(rate_on: float, rate_background: float) -> float:
    """Ratio of the cavity-enhanced decay rate to the background rate."""
    if rate_on <= 0 or rate_background <= 0:
        raise ValueError("rates must be positive")
    return rate_on / rate_background


def quality_factor(wavelength_nm: float, kappa_uev: float) -> float:
    """Q factor of a resonance at the given wavelength with linewidth kappa."""
    if wavelength_nm <= 0 or kappa_uev <= 0:
        raise ValueError("wavelength and kappa must be positive")
    return (HC_UEV_NM / wavelength_nm) / kappa_uev

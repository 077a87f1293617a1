"""Nonlinear least-squares fitting of spectra and decay curves.

Each fitter states a model, a start point and lower bounds, and hands them
to ``_solve``, the one place the convergence contract lives.  ``_solve``
calls :func:`least_squares`, a projected Levenberg-Marquardt solver in
numpy that takes each step from the Cholesky factor of the scaled normal
equations, a system of the free parameters alone.  Parameters have lower
bounds only; one the fit drives onto its bound is held there, exactly,
while the gradient pushes it outward.  A start point or accepted point
whose cost or J^T J is not finite raises ``FitError``.  The fit stops at
a trial step shorter than 1e-8 (1e-8 + |x|), a free gradient component
below 1e-10, a cost falling by less than 1e-14 of itself, or after 500
residual evaluations.  The result's ``status`` is 0 when the evaluation
limit stopped it and positive otherwise; each of the three fitters raises
``FitError`` on 0, so every ``FitResult`` they return is ``converged``.
The result's ``active_mask`` is -1 for parameters on their lower bound,
or within 1e-8 of it, and 0 elsewhere.  Every model carries its analytic
Jacobian, built with every evaluation and parameter-major (its transpose
is C-contiguous): the Lorentzian pair and the multiexponential in closed
form, the emitter-cavity spectrum through the derivatives of its
resolvent and time integrals (``spectra._detected_intensity``).  The
solver takes the Jacobian of a point it evaluated from that evaluation,
so each trial point costs one model call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .instrument import IrfKernel, SampledSignal, _aligned_convolution
from .model import SystemParams, quality_factor
from .spectra import DetectionCoefficients, _detected_intensity

__all__ = [
    "FitResult",
    "LorentzianPairParams",
    "SweepRecord",
    "CouplingClassification",
    "CouplingComparison",
    "lorentzian",
    "fit_lorentzian_pair",
    "seed_lorentzian_pair",
    "extract_sweep_record",
    "fit_decay",
    "fit_jc_cavity_spectrum",
    "classify_coupling",
    "compare_coupling_estimates",
]

_XTOL = 1e-8
_GTOL = 1e-10
_FTOL = 1e-14
_MAX_NFEV = 500
# Initial LM damping, relative to the squared column scales.  Tried from
# 1e-6 to 10 on two benchmark input sets (MP and PC sweeps plus compare-g),
# 0.1 took the fewest evaluations: 3,067 against 4,086 at 1e-6, 3,626 at
# 1e-2 and 3,403 at 1.
_MU0 = 0.1
# The second pair seed stays this many fitted FWHMs of the first line away
# from that line's center.  Chosen on IRF-blurred, Poisson-noised MP and PC
# sweeps (1e3-1e5 peak counts, radii 0-3): below 1 the far-detuned PC seeds
# both land on the emitter line and fits fail; 2 gave the fewest pair-fit
# evaluations at 1e4 counts; at 3 the cavity line of a PC doublet near
# delta = +-100 ueV falls inside the excluded band.
_SEED_EXCLUSION_FWHMS = 2.0
# Running-mean widths for the first seed (n) and the residual searched for
# the second (2n + 1 samples); the exclusion above was chosen with n = 5.
_SEED_SMOOTH = 5


@dataclass
class FitResult:
    """Converged parameter estimates with curvature-based standard errors."""

    estimates: dict
    errors: dict
    residual_sum: float
    iterations: int
    converged: bool
    messages: tuple = ()

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "residual_sum": self.residual_sum,
            "iterations": self.iterations,
            "estimates": dict(self.estimates),
            "errors": dict(self.errors),
            "messages": list(self.messages),
        }


@dataclass(frozen=True)
class LorentzianPairParams:
    """Two Lorentzian peaks: centers, FWHMs, and peak heights (6 parameters)."""

    centers: tuple
    fwhms: tuple
    heights: tuple

    def __post_init__(self):
        if not (len(self.centers) == len(self.fwhms) == len(self.heights) == 2):
            raise ValueError("exactly two peaks required")
        if min(self.fwhms) <= 0:
            raise ValueError("FWHMs must be positive")
        if min(self.heights) < 0:
            raise ValueError("heights must be non-negative")


@dataclass
class SweepRecord:
    """Per-detuning quantities extracted from a two-peak spectral fit.

    The narrower peak is labeled as the emitter line, the wider one as the
    cavity line; relative areas are normalized pairwise.
    """

    detuning: float
    energy_qd: float
    energy_ca: float
    fwhm_qd: float
    fwhm_ca: float
    q_qd: float
    q_ca: float
    rel_area_qd: float
    rel_area_ca: float
    source: str = ""

    @property
    def separation(self) -> float:
        return abs(self.energy_qd - self.energy_ca)


@dataclass
class CouplingClassification:
    label: str
    min_separation: float
    threshold: float


@dataclass
class CouplingComparison:
    g_spectral: float
    g_dynamical: float
    ratio: float
    spectral_verdict: str
    dynamical_verdict: str
    threshold: float

    def to_dict(self) -> dict:
        return {
            "g_spectral_ueV": self.g_spectral,
            "g_dynamical_ueV": self.g_dynamical,
            "ratio": self.ratio,
            "spectral_verdict": self.spectral_verdict,
            "dynamical_verdict": self.dynamical_verdict,
            "strong_coupling_threshold_ueV": self.threshold,
        }


def lorentzian(x: np.ndarray, center: float, fwhm: float,
               height: float) -> np.ndarray:
    """Lorentzian with peak value ``height``; area = (pi/2) height fwhm."""
    q = fwhm / 2.0
    return height * q * q / ((x - center) ** 2 + q * q)


@dataclass
class LeastSquaresResult:
    """Outcome of :func:`least_squares`; the fields are named as scipy's."""

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    nfev: int
    status: int
    active_mask: np.ndarray


def least_squares(fun, x0, jac, bounds=(-np.inf, np.inf),
                  ftol=1e-8, xtol=1e-8, gtol=1e-8, max_nfev=None):
    """Minimize 0.5 sum(fun(x)^2) subject to x >= lower by projected LM.

    A Levenberg-Marquardt loop (Moré, Lecture Notes in Mathematics 630,
    1978) with lower bounds only.  Each iteration holds the parameters that
    sit on their bound with the gradient pushing outward (the active set)
    and forms, for the others, A = J^T J and g = J^T f.  Their scales d are
    the largest column norms of J seen so far, sqrt(diag A), or 1 for a
    column that has always been zero.  A trial step s = u / d, the one
    that minimizes |J s + f|^2 + mu |d s|^2, solves the scaled damped
    normal equations (A / (d d^T) + mu I) u = -g / d by a Cholesky
    factorization; the trial point is projected onto the bounds, and the
    predicted reduction is -g.s - s.A.s / 2.  The damping follows
    Nielsen's update (IMM-REP-1999-05): on a step that lowers the cost by
    the ratio rho of the predicted reduction, it is multiplied by
    max(1/3, 1 - (2 rho - 1)^3); on a rejected step by 2, 4, 8, ...  A
    factorization that fails, which finite input allows only once mu has
    decayed to roundoff in the unit diagonal of A / (d d^T), counts as a
    rejected step without an evaluation.  Finiteness is checked on the cost
    and on J^T J, which is not finite exactly where J is, at the start and
    at each accepted point; a failure raises ``FitError`` naming the start
    point.  A trial point whose cost is not finite is a rejected step.

    ``jac`` is a callable returning the Jacobian at x, passed where scipy
    takes it; its calls do not count in ``nfev``.  ``bounds`` is (lower,
    upper) with upper infinite.  A start below its bound is moved onto it.
    Termination follows scipy's codes in ``status``: 1, the largest free
    gradient component is below ``gtol``; 2, a step with rho > 0.25 lowered
    the cost by less than ``ftol`` times the cost; 3, a trial step is
    shorter than ``xtol (xtol + |x|)``; 4, both 2 and 3; 0, ``max_nfev``
    evaluations (default 100 per parameter) were used first.
    ``active_mask`` is -1 where x lies on its lower bound, or within
    ``xtol`` max(1, |lower|) of it, and 0 elsewhere; ``jac`` is the
    Jacobian at the returned x.
    """
    x = np.asarray(x0, dtype=float)
    lower = np.broadcast_to(np.asarray(bounds[0], dtype=float), x.shape)
    if np.any(np.asarray(bounds[1]) < np.inf):
        raise ValueError("only lower bounds are supported")
    if max_nfev is None:
        max_nfev = 100 * x.size

    twin = None  # a copy of J, one buffer per solve

    def linearize(p, cost_p):  # the Jacobian at p and J^T J, checked finite
        nonlocal twin
        jp = jac(p)
        # numpy calls BLAS syrk when both operands share one buffer, and
        # OpenBLAS 0.3.31's syrk took 2.5-4x as long as gemm at 7 x
        # 1,000-16,000 (2-vCPU x86-64 VM); a fresh copy per call would
        # cost page faults instead
        if twin is None:
            twin = np.empty(jp.shape[::-1]).T
        np.copyto(twin, jp)
        jtj = jp.T @ twin
        if not (np.isfinite(cost_p) and np.isfinite(jtj).all()):
            raise FitError("residual or Jacobian not finite in the fit "
                           f"started at {np.asarray(x0, float).tolist()}")
        return jp, jtj

    x = np.maximum(x, lower)
    f = fun(x)
    nfev, cost = 1, 0.5 * float(f @ f)
    J, jtj = linearize(x, cost)
    scale = np.zeros(x.size)
    mu, nu = _MU0, 2.0
    status = None
    while status is None:
        g = J.T @ f
        free = ~((x <= lower) & (g > 0.0))
        if np.abs(g[free]).max(initial=0.0) < gtol:
            status = 1
            break
        if nfev >= max_nfev:
            status = 0
            break
        a = jtj[free][:, free]
        # diag(a) holds the squared norms of the free columns of J
        scale[free] = np.maximum(scale[free], np.sqrt(np.diag(a)))
        d = np.where(scale[free] > 0.0, scale[free], 1.0)
        a_s, g_s = a / (d[:, None] * d), g[free] / d
        reduction = -1.0
        while reduction <= 0.0 and nfev < max_nfev:
            damped = a_s.copy()
            damped.flat[::d.size + 1] += mu
            try:
                chol = np.linalg.cholesky(damped)
            except np.linalg.LinAlgError:  # mu below roundoff in a_s
                mu *= nu
                nu *= 2.0
                continue
            s = -np.linalg.solve(chol.T, np.linalg.solve(chol, g_s)) / d
            x_new = x.copy()
            x_new[free] = np.maximum(x[free] + s, lower[free])
            s = x_new[free] - x[free]
            f_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * float(f_new @ f_new)
            if not np.isfinite(cost_new):
                cost_new = np.inf
            reduction = cost - cost_new
            predicted = -float(g[free] @ s) - 0.5 * float(s @ a @ s)
            rho = reduction / predicted if predicted > 0.0 else 0.0
            if reduction > 0.0:
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
            else:
                mu *= nu
                nu *= 2.0
            f_done = reduction < ftol * cost and rho > 0.25
            x_done = np.linalg.norm(s) < xtol * (xtol + np.linalg.norm(x))
            if f_done or x_done:
                status = 4 if f_done and x_done else 2 if f_done else 3
                break
        if reduction > 0.0:
            x, f, cost = x_new, f_new, cost_new
            J, jtj = linearize(x, cost)
    near = x - lower <= xtol * np.maximum(1.0, np.abs(lower))
    return LeastSquaresResult(x=x, cost=cost, fun=f, jac=J, nfev=nfev,
                              status=status, active_mask=np.where(
                                  np.isfinite(lower) & near, -1, 0))


def _finish(res, names) -> FitResult:
    """Assemble a FitResult with curvature standard errors."""
    jac = res.jac
    m, p = jac.shape
    ssr = float(2.0 * res.cost)
    dof = max(m - p, 1)
    messages = []
    jtj = jac.T @ jac
    try:
        cond = np.linalg.cond(jtj)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1e14:
        messages.append("singular-curvature")
        cov = np.linalg.pinv(jtj) * (ssr / dof)
    else:
        cov = np.linalg.inv(jtj) * (ssr / dof)
    err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        estimates=dict(zip(names, (float(v) for v in res.x))),
        errors=dict(zip(names, (float(e) for e in err))),
        residual_sum=ssr,
        iterations=int(res.nfev),
        converged=res.status > 0,
        messages=tuple(messages),
    )


def _solve(model, data: SampledSignal, p0, lower,
           irf: IrfKernel | None = None, sigma=None):
    """Bounded least-squares fit of ``model`` to ``data``; the raw result.

    ``model(x, p, jac=True)`` returns the model values on the grid ``x``
    and their analytic Jacobian, parameter-major, as a pair; it is called
    once per point the solver evaluates (:func:`_residual_and_jacobian`).
    With ``irf`` the model is evaluated on the data grid widened by the
    kernel's reach and convolved back onto it as ``instrument.convolve``
    does; with ``sigma`` each residual is divided by it.  Upper bounds are
    infinite.  :func:`least_squares` checks finiteness on the cost and on
    J^T J of the start and of each accepted point.
    """
    y, xe, conv = data.values, data.grid, (lambda v: v)
    if irf is not None:
        (left, right), conv = _aligned_convolution(data, irf)
        h = data.step
        xe = np.concatenate([xe[0] - h * np.arange(left, 0, -1), xe,
                             xe[-1] + h * np.arange(1, right + 1)])

    residual, jacobian = _residual_and_jacobian(
        lambda p: model(xe, p, jac=True), y, conv, sigma)
    return least_squares(residual, p0, jacobian,
                         bounds=(lower, np.inf), xtol=_XTOL, gtol=_GTOL,
                         ftol=_FTOL, max_nfev=_MAX_NFEV)


def _residual_and_jacobian(model, y, conv=lambda v: v, sigma=None):
    """``fun`` and ``jac`` for :func:`least_squares` from one fused model.

    ``model(p)`` returns the model values and their Jacobian as a pair; the
    residual is conv(values) - y, divided by ``sigma`` when given.  Each
    residual call keeps the Jacobian of its point, so ``jac`` asked at the
    point last evaluated, as the solver asks at its start and at each
    accepted point, costs no model call; only there is the Jacobian
    convolved.  Asked anywhere else, ``jac`` evaluates the model afresh.
    """
    kept = {}

    def residual(p):
        values, kept["jac"] = model(p)
        kept["p"] = np.array(p, dtype=float)
        r = conv(values) - y
        return r if sigma is None else r / sigma

    def jacobian(p):
        same = "p" in kept and np.array_equal(p, kept["p"])
        j = conv(kept["jac"] if same else model(p)[1])
        return j if sigma is None else (j.T / sigma).T

    return residual, jacobian


def _lorentzians(x: np.ndarray, p, jac: bool = False):
    """Lorentzians, p = (center, FWHM, height) per peak, plus baseline p[-1].

    With ``jac`` the analytic Jacobian is returned too, as a pair; it is
    the transpose of a C-contiguous array, one row per parameter.  All
    three derivatives come from the line shape s = q^2 u, u = 1/denom,
    denom = (x - c)^2 + q^2: ds/dc = 2 (s u) (x - c) and
    ds/dq = 2 q (u - s u).
    """
    model = np.full(x.size, p[-1])
    if jac:
        d = np.empty((len(p), x.size))
        d[-1] = 1.0
    for k in range(len(p) // 3):
        c, w, h = p[3 * k], p[3 * k + 1], p[3 * k + 2]
        q = w / 2.0
        dx = x - c
        u = dx * dx
        u += q * q
        np.reciprocal(u, out=u)
        shape = np.multiply(q * q, u, out=d[3 * k + 2] if jac else None)
        model += h * shape
        if jac:
            su = shape * u
            np.multiply(su, dx, out=d[3 * k])
            d[3 * k] *= 2.0 * h
            np.subtract(u, su, out=d[3 * k + 1])
            d[3 * k + 1] *= h * q
    return (model, d.T) if jac else model


def fit_lorentzian_pair(spec: SampledSignal, init: LorentzianPairParams,
                        irf: IrfKernel | None = None) -> FitResult:
    """Fit two Lorentzians plus a flat baseline to a spectrum.

    If ``irf`` is given the model is convolved with it before comparing to
    the data.  Degenerate outcomes (merged centers, singular curvature, a
    line driven onto zero height, whose center and width the data then do
    not constrain) are flagged in ``messages`` rather than silently
    accepted.
    """
    if not np.all(np.isfinite(list(init.centers) + list(init.fwhms)
                              + list(init.heights))):
        raise ValueError("initial parameters must be finite")
    p0 = np.array([init.centers[0], init.fwhms[0], init.heights[0],
                   init.centers[1], init.fwhms[1], init.heights[1], 0.0])
    res = _solve(_lorentzians, spec, p0,
                 [-np.inf, 1e-12, 0.0, -np.inf, 1e-12, 0.0, -np.inf], irf)
    names = ["center_1", "fwhm_1", "height_1",
             "center_2", "fwhm_2", "height_2", "baseline"]
    out = _finish(res, names)
    if not out.converged:
        raise FitError("Lorentzian-pair fit did not converge")
    c1, c2 = out.estimates["center_1"], out.estimates["center_2"]
    w_min = min(out.estimates["fwhm_1"], out.estimates["fwhm_2"])
    if abs(c1 - c2) < 0.05 * w_min:
        out.messages = out.messages + ("merged-centers",)
    if np.any(res.active_mask[[2, 5]] == -1):
        out.messages = out.messages + ("vanished-line",)
    return out


def seed_lorentzian_pair(spec: SampledSignal) -> LorentzianPairParams:
    """Initial pair guess by fitting one Lorentzian and peeling it off.

    The dominant peak is fit first; the second seed comes from the largest
    positive residual at least two fitted FWHMs away from the first line's
    center.  The residual closer in is mostly the first line's own misfit
    (its IRF-blurred flanks, its noise), not a second line; seeding there
    puts both seeds on one line and the pair fit wanders.  If nothing
    above 0.5% of the data maximum remains outside, the single peak is
    split into two overlapping seeds.
    """
    x, y = spec.grid, spec.values
    box = np.ones(_SEED_SMOOTH) / _SEED_SMOOTH
    c1, w1, h1 = _single_peak_guess(x, np.convolve(y, box, "same"))

    def line(p):  # one Lorentzian over a baseline held at zero
        values, d = _lorentzians(x, [*p, 0.0], jac=True)
        return values, d[:, :3]

    residual, jacobian = _residual_and_jacobian(line, y)
    f1 = least_squares(residual, [c1, w1, h1], jacobian, max_nfev=200)
    resid = -f1.fun
    wide = np.ones(2 * _SEED_SMOOTH + 1) / (2 * _SEED_SMOOTH + 1)
    resid_s = np.convolve(np.clip(resid, 0.0, None), wide, "same")
    resid_s[np.abs(x - f1.x[0]) < _SEED_EXCLUSION_FWHMS * abs(f1.x[1])] = 0.0
    c2, w2, h2 = _single_peak_guess(x, resid_s)
    if h2 < 0.005 * y.max():
        c0, w0, h0 = f1.x
        return LorentzianPairParams(
            centers=(c0 - w0 / 4.0, c0 + w0 / 4.0),
            fwhms=(abs(w0), abs(w0)), heights=(abs(h0), abs(h0)))
    return LorentzianPairParams(
        centers=(float(f1.x[0]), c2),
        fwhms=(abs(float(f1.x[1])), max(w2, x[1] - x[0])),
        heights=(abs(float(f1.x[2])), h2))


def _single_peak_guess(x: np.ndarray, y: np.ndarray):
    i = int(np.argmax(y))
    top = y[i]
    above = np.nonzero(y >= top / 2.0)[0]
    if above.size >= 2:
        width = x[above[-1]] - x[above[0]]
    else:
        width = 0.0
    if width <= 0:
        width = 10.0 * (x[1] - x[0])
    return float(x[i]), float(width), float(top)


def extract_sweep_record(fit: FitResult, wavelength_nm: float,
                         detuning: float = math.nan,
                         source: str = "") -> SweepRecord:
    """Peak energies, Q factors, and relative areas from a pair fit."""
    if not fit.converged:
        raise FitError("cannot extract sweep quantities from an unconverged fit")
    peaks = []
    for k in (1, 2):
        c = fit.estimates[f"center_{k}"]
        w = fit.estimates[f"fwhm_{k}"]
        h = fit.estimates[f"height_{k}"]
        peaks.append((c, w, h, (math.pi / 2.0) * h * w))
    peaks.sort(key=lambda t: t[1])  # narrow first: emitter line
    (c_qd, w_qd, _, a_qd), (c_ca, w_ca, _, a_ca) = peaks
    total = a_qd + a_ca
    if total <= 0:
        raise FitError("fitted areas vanish; nothing to record")
    return SweepRecord(
        detuning=detuning,
        energy_qd=c_qd, energy_ca=c_ca,
        fwhm_qd=w_qd, fwhm_ca=w_ca,
        q_qd=quality_factor(wavelength_nm, w_qd),
        q_ca=quality_factor(wavelength_nm, w_ca),
        rel_area_qd=a_qd / total, rel_area_ca=a_ca / total,
        source=source)


def _decay_model(t: np.ndarray, p, jac: bool = False):
    """Step-at-zero multiexponential, p = (rate, amplitude) per component,
    plus baseline p[-1]; with ``jac`` also the analytic Jacobian, as a pair.
    """
    on = t >= 0.0
    model = np.full(t.size, p[-1])
    if jac:
        d = np.empty((len(p), t.size))
        d[-1] = 1.0
    for k in range(len(p) // 2):
        r, a = p[2 * k], p[2 * k + 1]
        e = np.where(on, np.exp(-r * np.where(on, t, 0.0)), 0.0)
        model += a * e
        if jac:
            d[2 * k] = -a * t * e
            d[2 * k + 1] = e
    return (model, d.T) if jac else model


def seed_decay(curve: SampledSignal, n_comp: int):
    """Initial rates/amplitudes by log-linear regression and tail peeling."""
    t, y = curve.grid, curve.values
    tail = max(3, y.size // 20)
    baseline = float(np.median(y[-tail:]))
    work = y - baseline
    i0 = int(np.argmax(work))
    if work[i0] <= 0:
        raise FitError("no decaying component in the input")
    rates, amps = [], []
    sub = work.copy()
    for k in range(n_comp):
        pos = (sub > max(1e-12, 1e-3 * work[i0])) & (t >= t[i0])
        idx = np.nonzero(pos)[0]
        if idx.size < 4:
            rate = rates[-1] * 3.0 if rates else 1.0
            amp = max(work[i0] / (k + 1.0), 1e-9)
        else:
            take = idx[-max(4, idx.size // 2):] if k == 0 else idx[:max(4, idx.size // 3)]
            slope, intercept = np.polyfit(t[take], np.log(sub[take]), 1)
            rate = max(-slope, 1e-6)
            amp = max(math.exp(intercept), 1e-9)
        rates.append(rate)
        amps.append(amp)
        sub = np.clip(sub - amp * np.exp(-rate * np.clip(t, 0.0, None)), 1e-300, None)
    if rates[0] <= 0:
        raise FitError("no decaying component in the input")
    return rates, amps, baseline


def _fit_decay_order(curve, irf, n_comp):
    rates, amps, baseline = seed_decay(curve, n_comp)
    p0 = [v for ra in zip(rates, amps) for v in ra] + [baseline]
    return _solve(_decay_model, curve, p0,
                  [1e-9, 0.0] * n_comp + [-np.inf], irf,
                  sigma=np.sqrt(np.maximum(curve.values, 1.0)))


def _f_tail_2(dof: int, fstat: float) -> float:
    """P(F > fstat) for F(2, dof): (1 + 2 fstat/dof)^(-dof/2) exactly."""
    return math.exp(-0.5 * dof * math.log1p(2.0 * fstat / dof))


def _order_names(n_comp):
    names = []
    for k in range(n_comp):
        names += [f"rate_{k + 1}", f"amplitude_{k + 1}"]
    names.append("baseline")
    return names


def _sorted_result(res, n_comp) -> FitResult:
    perm = np.argsort(-res.x[0:2 * n_comp:2])
    order = [2 * k + off for k in perm for off in (0, 1)] + [2 * n_comp]
    res.x = res.x[order]
    res.jac = res.jac[:, order]
    return _finish(res, _order_names(n_comp))


def _collapsed(res, n_comp: int) -> bool:
    """Two rates within 1% of each other, or an amplitude on its zero bound."""
    rates = sorted(res.x[0:2 * n_comp:2], reverse=True)
    merged = any(abs(a - b) <= 0.01 * a for a, b in zip(rates, rates[1:]))
    return merged or bool(np.any(res.active_mask[1:2 * n_comp:2] == -1))


def fit_decay(curve: SampledSignal, irf: IrfKernel | None = None,
              mode: str = "single") -> FitResult:
    """Fit an IRF-convolved multiexponential decay to a measured curve.

    Residuals carry Poisson weights 1/sqrt(max(counts, 1)).  ``mode`` is
    ``"single"``, ``"bi"``, or ``"multi"``; the multi mode selects 1-3
    components by a residual F-test at 5% significance; a higher-order
    trial that stops at the evaluation limit does not enter the test, and
    the lower order stands.  Rates come back sorted descending.  A
    collapsed model -- a pair of rates within 1% of each other, or a
    component whose amplitude the fit drives onto its zero bound --
    carries one component too many: it is refit with one component fewer,
    repeatedly while the collapse persists, and flagged ``rate-collapse``.
    """
    orders = {"single": 1, "bi": 2, "multi": 1}
    if mode not in orders:
        raise ValueError("mode must be 'single', 'bi', or 'multi'")
    if curve.domain != "temporal":
        raise ValueError("decay fitting needs a temporal-domain signal")
    if curve.values.min() < 0:
        raise ValueError("counts must be non-negative")

    n_comp = orders[mode]
    res = _fit_decay_order(curve, irf, n_comp)
    for cand in (2, 3) if mode == "multi" else ():
        try:
            trial = _fit_decay_order(curve, irf, cand)
        except FitError:
            break
        dof = curve.values.size - (2 * cand + 1)
        if trial.status <= 0 or dof <= 0 or trial.cost >= res.cost:
            break
        fstat = ((res.cost - trial.cost) / 2.0) / (trial.cost / dof)
        if _f_tail_2(dof, fstat) >= 0.05:
            break
        res, n_comp = trial, cand

    collapsed = False
    while n_comp > 1 and _collapsed(res, n_comp):
        collapsed = True
        n_comp -= 1
        res = _fit_decay_order(curve, irf, n_comp)
    out = _sorted_result(res, n_comp)
    if collapsed:
        out.messages = out.messages + ("rate-collapse",)
    if not out.converged:
        raise FitError("decay fit did not converge")
    return out


def fit_jc_cavity_spectrum(spec: SampledSignal, fixed: dict,
                           init_g: float,
                           background_fraction: float = 0.0,
                           irf: IrfKernel | None = None) -> FitResult:
    """Extract the coupling strength from a near-resonance cavity spectrum.

    All rates except g are held at their measured values
    (``fixed`` supplies kappa, gamma, gamma_dp, delta, in ueV); the free
    parameters are g plus an overall amplitude and center offset.  The
    forward model is the cavity-detected emission spectrum (eta_qd = 0) on
    the data's own grid, its time integrals in closed form, convolved with
    ``irf`` (the spectrometer response) when one is given.

    The fit is flagged ``model-mismatch`` when its residual lies far above
    the noise of the data, i.e. when no g reproduces the measured line
    shape and the returned g should not be trusted.  The data carry no
    uncertainties, so the noise is estimated from the data themselves: the
    second differences d of white noise of local variance v have variance
    6v, and a smooth line shape adds little to them.  The mean noise
    variance is then mean(d^2)/6.  For a correct model the reduced
    chi^2 = SSR/((m-3) mean(d^2)/6) scatters about 1 with standard
    deviation sqrt(17/(9 m_eff)), where m_eff = (sum v)^2/sum(v^2) is the
    number of points that effectively carry the noise (m for uniform
    noise, fewer for counts concentrated in a peak), estimated as
    3 (sum d^2)^2/sum(d^4).  The flag is raised beyond five of those
    standard deviations above 1 (1.16 for 1801 points of uniform noise).
    """
    for key in ("kappa", "gamma", "gamma_dp", "delta"):
        if key not in fixed or not math.isfinite(fixed[key]):
            raise ValueError(f"fixed parameter {key!r} missing or not finite")
    x, y = spec.grid, spec.values
    det = DetectionCoefficients(eta_ca=1.0, eta_qd=0.0,
                                background_fraction=background_fraction)

    def forward(x, p, jac=False):
        g, amp, offset = p
        params = SystemParams(g=g, kappa=fixed["kappa"], gamma=fixed["gamma"],
                              gamma_dp=fixed["gamma_dp"], delta=fixed["delta"])
        if not jac:
            return amp * _detected_intensity(params, det, x - offset)
        i, di_dg, di_dw = _detected_intensity(params, det, x - offset, True)
        return amp * i, np.array([amp * di_dg, i, -amp * di_dw]).T

    model0 = forward(x, [init_g, 1.0, 0.0])
    peak0 = float(np.abs(model0).max()) or 1.0
    amp0 = float(np.abs(y).max()) / peak0
    p0 = [init_g, amp0, 0.0]
    res = _solve(forward, spec, p0, [0.0, 0.0, -np.inf], irf=irf)
    out = _finish(res, ["g", "amplitude", "center_offset"])
    if not out.converged:
        raise FitError("coupling-strength fit did not converge")
    if _exceeds_noise(y, out.residual_sum, len(p0)):
        out.messages = out.messages + ("model-mismatch",)
    return out


def _exceeds_noise(y: np.ndarray, ssr: float, n_par: int) -> bool:
    """Reduced chi^2 against the second-difference noise estimate > 5 sd."""
    d = np.diff(y, 2)
    d2 = (d - d.mean()) ** 2
    if not d2.any():
        return ssr > 0.0
    noise = float(d2.mean()) / 6.0
    m_eff = 3.0 * float(d2.sum()) ** 2 / float((d2 * d2).sum())
    chi2 = ssr / (max(y.size - n_par, 1) * noise)
    return chi2 > 1.0 + 5.0 * math.sqrt(17.0 / (9.0 * m_eff))


def classify_coupling(records: list[SweepRecord]) -> CouplingClassification:
    """Label a detuning sweep as 'crossing' or 'anti_crossing'.

    Anti-crossing requires the minimum fitted peak separation across the
    sweep to exceed the threshold, half the mean fitted cavity FWHM.  A
    cavity line fitted with zero area has no width the data constrain, so
    it is left out of that mean.  Needs at least five records, finite
    detunings of both signs among them (a record read without a detuning
    carries NaN) and one cavity line of nonzero area.
    """
    if len(records) < 5:
        raise ValueError("need at least five sweep records")
    known = [r.detuning for r in records if math.isfinite(r.detuning)]
    if not known or min(known) >= 0 or max(known) <= 0:
        raise ValueError("sweep must cover both detuning signs; "
                         f"{len(known)} of {len(records)} detunings known")
    widths = [r.fwhm_ca for r in records if r.rel_area_ca > 0]
    if not widths:
        raise ValueError("every fitted cavity line has zero area")
    min_sep = min(r.separation for r in records)
    threshold = 0.5 * float(np.mean(widths))
    label = "anti_crossing" if min_sep > threshold else "crossing"
    return CouplingClassification(label=label, min_separation=min_sep,
                                  threshold=threshold)


def compare_coupling_estimates(g_spectral: float, g_dynamical: float,
                               kappa: float, gamma: float,
                               gamma_dp: float) -> CouplingComparison:
    """Compare coupling strengths from spectra and from dynamics.

    The strong/weak verdict is g above the shared rates'
    :attr:`SystemParams.strong_coupling_threshold`.
    """
    if g_spectral <= 0 or g_dynamical <= 0:
        raise ValueError("coupling strengths must be positive")
    threshold = SystemParams(0.0, kappa, gamma,
                             gamma_dp).strong_coupling_threshold

    def verdict(g):
        return "strong" if g > threshold else "weak"

    return CouplingComparison(
        g_spectral=g_spectral, g_dynamical=g_dynamical,
        ratio=g_spectral / g_dynamical,
        spectral_verdict=verdict(g_spectral),
        dynamical_verdict=verdict(g_dynamical),
        threshold=threshold)

"""Nonlinear least-squares fitting of spectra and decay curves.

Each fitter states a model, a start point, lower bounds and parameter
names, and hands them to ``_solve``, the one place the convergence
contract lives; it reads its flags off the ``FitResult`` that ``_solve``
returns.  ``_solve`` calls :func:`least_squares`, a projected
Levenberg-Marquardt solver in numpy that takes each step from the
Cholesky factor of the scaled normal equations, a system of the free
parameters alone.  Parameters have lower bounds only; one the fit drives
onto its bound is held there, exactly, while the gradient pushes it
outward.  A start point or accepted point whose cost or J^T J is not
finite raises ``FitError``.  The fit stops at a trial step shorter than
1e-8 (1e-8 + |x|), a free gradient component below 1e-10, a cost falling
by less than 1e-14 of itself, or after 500 residual evaluations.  The
solver's ``fun`` returns the residual and its Jacobian; a rejected trial's
Jacobian is dropped.  ``_solve`` raises ``FitError`` when the evaluation
limit stopped it, so every ``FitResult`` is ``converged``; it builds the
result's standard errors from the curvature J^T J, inverted once.  When
the inversion fails, or the 1-norm condition number taken from that
inverse, ||J^T J||_1 ||(J^T J)^-1||_1, is not finite or exceeds 1e14, the
fit is flagged ``singular-curvature`` and the errors come from the
pseudo-inverse.  ``_solve`` names in ``at_bound`` the parameters on
their lower bound, or within 1e-8 of it, and, for a fit weighted by
``sigma``, flags ``model-mismatch`` when chi^2/dof lies more than five of
its standard deviations, sqrt(2/dof), above 1.  Every model
returns its values and its analytic Jacobian, parameter-major (its
transpose is C-contiguous): the Lorentzian pair and the multiexponential
in closed form, the emitter-cavity spectrum through the derivatives of
its resolvent and time integrals (``spectra._detected_intensity``), so
each trial point costs one model call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    "fit_lorentzian_pair",
    "seed_lorentzian_pair",
    "extract_sweep_record",
    "fit_decay",
    "fit_jc_cavity_spectrum",
    "classify_coupling",
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
    """Converged parameter estimates with curvature-based standard errors;
    ``iterations`` counts residual evaluations (the solver's ``nfev``), and
    ``at_bound`` names the parameters held on their lower bound (it is not
    part of :meth:`to_dict`)."""

    estimates: dict
    errors: dict
    residual_sum: float
    iterations: int
    converged: bool
    messages: tuple = ()
    at_bound: tuple = ()

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
        if not np.isfinite([*self.centers, *self.fwhms, *self.heights]).all():
            raise ValueError("peak parameters must be finite")
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
class LeastSquaresResult:
    """Outcome of :func:`least_squares`; the fields are named as scipy's."""

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    nfev: int
    status: int
    active_mask: np.ndarray


def least_squares(fun, x0, bounds=(-np.inf, np.inf),
                  ftol=1e-8, xtol=1e-8, gtol=1e-8, max_nfev=None):
    """Minimize 0.5 |f(x)|^2 subject to x >= lower by projected LM.

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

    ``fun(x)`` returns the residual f and its Jacobian J as a pair; every
    call counts in ``nfev``.  The start point and each accepted trial keep
    their own J; a rejected trial's Jacobian is dropped.  ``bounds`` is
    (lower, upper) with upper infinite.  A start below its bound is moved
    onto it.
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

    def linearize(jp, cost_p):  # J^T J of jp, checked finite with the cost
        nonlocal twin
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
        return jtj

    x = np.maximum(x, lower)
    f, J = fun(x)
    nfev, cost = 1, 0.5 * float(f @ f)
    jtj = linearize(J, cost)
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
            f_new, j_new = fun(x_new)
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
            x_done = math.sqrt(s @ s) < xtol * (xtol + math.sqrt(x @ x))
            if f_done or x_done:
                status = 4 if f_done and x_done else 2 if f_done else 3
                break
        if reduction > 0.0:
            x, f, J, cost = x_new, f_new, j_new, cost_new
            jtj = linearize(J, cost)
    near = x - lower <= xtol * np.maximum(1.0, np.abs(lower))
    return LeastSquaresResult(x=x, cost=cost, fun=f, jac=J, nfev=nfev,
                              status=status, active_mask=np.where(
                                  np.isfinite(lower) & near, -1, 0))


def _solve(model, data: SampledSignal, p0, lower, names,
           irf: IrfKernel | None = None, sigma=None) -> FitResult:
    """Bounded least-squares fit of ``model`` to ``data``, converged.

    ``model(x, p)`` returns the model values on the grid ``x`` and their
    analytic Jacobian, parameter-major, as a pair; it is called once per
    point the solver evaluates.  The solver's ``fun`` returns the residual
    conv(values) - y and its Jacobian conv(jac); a rejected trial's
    Jacobian is dropped.  With ``irf`` the model is evaluated on the data
    grid widened by the kernel's reach and convolved back onto it as
    ``instrument.convolve`` does; with ``sigma`` the residual and each
    row of its Jacobian are divided by it.  Upper bounds are infinite.
    :func:`least_squares` checks finiteness on the cost and on J^T J of the
    start and of each accepted point.  The result carries ``names``; a fit
    stopped by the evaluation limit raises ``FitError``.
    """
    y, xe, conv = data.values, data.grid, (lambda v: v)
    if irf is not None:
        (left, right), conv = _aligned_convolution(data, irf)
        h = data.step
        xe = np.concatenate([xe[0] - h * np.arange(left, 0, -1), xe,
                             xe[-1] + h * np.arange(1, right + 1)])

    def fun(p):
        values, jac = model(xe, p)
        r, j = conv(values) - y, conv(jac)
        return (r, j) if sigma is None else (r / sigma, (j.T / sigma).T)

    res = least_squares(fun, p0, bounds=(lower, np.inf), xtol=_XTOL,
                        gtol=_GTOL, ftol=_FTOL, max_nfev=_MAX_NFEV)
    if res.status == 0:
        raise FitError(f"fit did not converge in {_MAX_NFEV} evaluations")
    m, p = res.jac.shape
    ssr = float(2.0 * res.cost)
    dof = max(m - p, 1)
    messages = []
    jtj = res.jac.T @ res.jac
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cond = np.inf
    else:
        with np.errstate(all="ignore"):  # an overflow reads as inf
            cond = float(np.linalg.norm(jtj, 1) * np.linalg.norm(inv, 1))
    if not np.isfinite(cond) or cond > 1e14:
        messages.append("singular-curvature")
        cov = np.linalg.pinv(jtj) * (ssr / dof)
    else:
        cov = inv * (ssr / dof)
    if sigma is not None and ssr / dof > 1.0 + 5.0 * math.sqrt(2.0 / dof):
        messages.append("model-mismatch")
    err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        estimates=dict(zip(names, (float(v) for v in res.x))),
        errors=dict(zip(names, (float(e) for e in err))),
        residual_sum=ssr,
        iterations=int(res.nfev),
        converged=True,
        messages=tuple(messages),
        at_bound=tuple(n for n, a in zip(names, res.active_mask) if a),
    )


def _lorentzians(x: np.ndarray, p):
    """Lorentzians, p = (center, FWHM, height) per peak, plus baseline p[-1].

    Returns the values and the analytic Jacobian as a pair; the Jacobian is
    the transpose of a C-contiguous array, one row per parameter.  All
    three derivatives come from the line shape s = q^2 u, u = 1/denom,
    denom = (x - c)^2 + q^2: ds/dc = 2 (s u) (x - c) and
    ds/dq = 2 q (u - s u).
    """
    model = np.full(x.size, p[-1])
    d = np.empty((len(p), x.size))
    d[-1] = 1.0
    for k in range(len(p) // 3):
        c, w, h = p[3 * k], p[3 * k + 1], p[3 * k + 2]
        q = w / 2.0
        dx = x - c
        u = dx * dx
        u += q * q
        np.reciprocal(u, out=u)
        shape = np.multiply(q * q, u, out=d[3 * k + 2])
        model += h * shape
        su = shape * u
        np.multiply(su, dx, out=d[3 * k])
        d[3 * k] *= 2.0 * h
        np.subtract(u, su, out=d[3 * k + 1])
        d[3 * k + 1] *= h * q
    return model, d.T


def fit_lorentzian_pair(spec: SampledSignal, init: LorentzianPairParams,
                        irf: IrfKernel | None = None) -> FitResult:
    """Fit two Lorentzians plus a flat baseline to a spectrum.

    If ``irf`` is given the model is convolved with it before comparing to
    the data.  Degenerate outcomes (merged centers, singular curvature, a
    line driven onto zero height, whose center and width the data then do
    not constrain) are flagged in ``messages`` rather than silently
    accepted.
    """
    p0 = np.array([init.centers[0], init.fwhms[0], init.heights[0],
                   init.centers[1], init.fwhms[1], init.heights[1], 0.0])
    out = _solve(_lorentzians, spec, p0,
                 [-np.inf, 1e-12, 0.0, -np.inf, 1e-12, 0.0, -np.inf],
                 ["center_1", "fwhm_1", "height_1",
                  "center_2", "fwhm_2", "height_2", "baseline"], irf)
    c1, c2 = out.estimates["center_1"], out.estimates["center_2"]
    w_min = min(out.estimates["fwhm_1"], out.estimates["fwhm_2"])
    if abs(c1 - c2) < 0.05 * w_min:
        out.messages = out.messages + ("merged-centers",)
    if {"height_1", "height_2"} & set(out.at_bound):
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

    def line(p):  # one Lorentzian over a zero baseline, less the data
        values, d = _lorentzians(x, [*p, 0.0])
        return values - y, d[:, :3]

    f1 = least_squares(line, [c1, w1, h1], max_nfev=200)
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


def _decay_model(t: np.ndarray, p):
    """Step-at-zero multiexponential, p = (rate, amplitude) per component,
    plus baseline p[-1]: the values and the analytic Jacobian, as a pair.
    """
    on = t >= 0.0
    model = np.full(t.size, p[-1])
    d = np.empty((len(p), t.size))
    d[-1] = 1.0
    for k in range(len(p) // 2):
        r, a = p[2 * k], p[2 * k + 1]
        e = np.where(on, np.exp(-r * np.where(on, t, 0.0)), 0.0)
        model += a * e
        d[2 * k] = -a * t * e
        d[2 * k + 1] = e
    return model, d.T


def seed_decay(curve: SampledSignal, n_comp: int):
    """Initial rates/amplitudes by log-linear regression and tail peeling."""
    t, y = curve.grid, curve.values
    tail = max(3, y.size // 20)
    s = np.sort(y[-tail:])  # np.median's value; np.median loads numpy.ma
    baseline = float((s[(tail - 1) // 2] + s[tail // 2]) / 2)
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
    return rates, amps, baseline


def _fit_decay_order(curve, irf, n_comp) -> FitResult:
    rates, amps, baseline = seed_decay(curve, n_comp)
    p0 = [v for ra in zip(rates, amps) for v in ra] + [baseline]
    names = [f"{kind}_{k}" for k in range(1, n_comp + 1)
             for kind in ("rate", "amplitude")]
    return _solve(_decay_model, curve, p0,
                  [1e-9, 0.0] * n_comp + [-np.inf], names + ["baseline"], irf,
                  sigma=np.sqrt(np.maximum(curve.values, 1.0)))


def _by_rate(fit: FitResult) -> FitResult:
    """``fit`` with its components renumbered by descending rate."""
    n_comp = len(fit.estimates) // 2
    fastest = sorted(range(1, n_comp + 1),
                     key=lambda k: -fit.estimates[f"rate_{k}"])
    source = {f"{kind}_{i}": f"{kind}_{k}" for i, k in enumerate(fastest, 1)
              for kind in ("rate", "amplitude")}
    source["baseline"] = "baseline"

    def renumbered(values):
        return {name: values[old] for name, old in source.items()}

    return replace(fit, estimates=renumbered(fit.estimates),
                   errors=renumbered(fit.errors),
                   at_bound=tuple(name for name, old in source.items()
                                  if old in fit.at_bound))


def _collapsed(fit: FitResult) -> bool:
    """Two rates within 1% of each other, or an amplitude on its zero bound."""
    rates = sorted((v for name, v in fit.estimates.items()
                    if name.startswith("rate_")), reverse=True)
    merged = any(abs(a - b) <= 0.01 * a for a, b in zip(rates, rates[1:]))
    return merged or any(name.startswith("amplitude_")
                         for name in fit.at_bound)


def fit_decay(curve: SampledSignal, irf: IrfKernel | None = None,
              mode: str = "single") -> FitResult:
    """Fit an IRF-convolved multiexponential decay to a measured curve.

    Residuals carry Poisson weights 1/sqrt(max(counts, 1)), so a fit whose
    chi^2/dof lies far above 1 is flagged ``model-mismatch`` (``_solve``).
    ``mode`` is ``"single"``, ``"bi"``, or ``"multi"``; the multi mode
    selects 1-3 components by a residual F-test at 5% significance.  Two
    more parameters take P(F(2, dof) > F) = (ssr_high/ssr_low)^(dof/2), so
    the lower order stands exactly when ssr_low <= ssr_high 20^(2/dof); it
    also stands when the higher-order trial raises ``FitError``, as one
    stopped at the evaluation limit does.  Rates come back sorted
    descending.  A collapsed model -- a pair of rates within 1% of each
    other, or a component whose amplitude the fit drives onto its zero
    bound -- carries one component too many: it is refit with one
    component fewer, repeatedly while the collapse persists, and flagged
    ``rate-collapse``.
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
        if dof <= 0 or (res.residual_sum
                        <= trial.residual_sum * 20.0 ** (2.0 / dof)):
            break
        res, n_comp = trial, cand

    collapsed = False
    while n_comp > 1 and _collapsed(res):
        collapsed = True
        n_comp -= 1
        res = _fit_decay_order(curve, irf, n_comp)
    out = _by_rate(res)
    if collapsed:
        out.messages = out.messages + ("rate-collapse",)
    return out


def fit_jc_cavity_spectrum(spec: SampledSignal, start: SystemParams,
                           background_fraction: float = 0.0,
                           irf: IrfKernel | None = None) -> FitResult:
    """Extract the coupling strength from a near-resonance cavity spectrum.

    Every parameter of ``start`` but g -- the measured kappa, gamma,
    gamma_dp and the detuning delta, in ueV -- is held; the free parameters
    are g, starting at ``start.g``, plus an overall amplitude and center
    offset.  The forward model is the cavity-detected emission spectrum
    (eta_qd = 0) on the data's own grid, its time integrals in closed form,
    convolved with ``irf`` (the spectrometer response) when one is given.

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
    x, y = spec.grid, spec.values
    det = DetectionCoefficients(eta_ca=1.0, eta_qd=0.0,
                                background_fraction=background_fraction)

    def forward(x, p):
        g, amp, offset = p
        i, di_dg, di_dw = _detected_intensity(start.with_(g=g), det,
                                              x - offset, True)
        return amp * i, np.array([amp * di_dg, i, -amp * di_dw]).T

    peak0 = float(np.abs(_detected_intensity(start, det, x)).max()) or 1.0
    p0 = [start.g, float(np.abs(y).max()) / peak0, 0.0]
    out = _solve(forward, spec, p0, [0.0, 0.0, -np.inf],
                 ["g", "amplitude", "center_offset"], irf=irf)
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

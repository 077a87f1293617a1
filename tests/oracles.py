"""Independent brute-force oracles used to cross-check the fast paths.

These deliberately avoid the implementations they validate: the trajectory
oracle is a plain fixed-step RK4 loop on the equations of motion (for these
linear equations one step is a fixed matrix, built once), and the
spectrum oracle builds its correlation generator and start vector from the
amplitude equations and the same equations of motion, then evaluates the
half-range Fourier transform of the correlation decay by dense Simpson
quadrature carried by a single FFT.  The lossless Rabi oracle, the
adiabatic weak-coupling rate and the Lorentzian line are closed forms.
"""

import numpy as np

HBAR = 0.6582119569


def population_generator(params):
    """The 4x4 generator M of y = (rho_qd, rho_ca, Re rho_po, Im rho_po),
    ns^-1, read off the equations of motion below column by column, not
    taken from the package."""
    g = params.g / HBAR
    kappa = params.kappa / HBAR
    gamma = params.gamma / HBAR
    gtot = params.gamma_tot / HBAR
    delta = params.delta / HBAR

    def rhs(y):
        q, c, pr, pi = y
        return np.array([
            -2.0 * g * pr - gamma * q,
            2.0 * g * pr - kappa * c,
            g * (q - c) - gtot * pr + delta * pi,
            -delta * pr - gtot * pi,
        ])

    return np.column_stack([rhs(e) for e in np.eye(4)])


def rk4_trajectory(params, t_max, dt):
    """Fixed-step RK4 on the 4-component real system; returns (t, rows).

    The right-hand side is linear, rhs(y) = M y with M the
    :func:`population_generator`, so the four RK4 stages combine into one
    step matrix P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 that the loop
    applies to y.
    """
    ha = dt * population_generator(params)
    step = np.eye(4)
    term = np.eye(4)
    for k in range(1, 5):
        term = term @ ha / k
        step = step + term
    n = int(round(t_max / dt))
    y = np.array([1.0, 0.0, 0.0, 0.0])
    out = np.empty((n + 1, 4))
    out[0] = y
    for i in range(n):
        y = step @ y
        out[i + 1] = y
    return np.arange(n + 1) * dt, out


def rabi_oracle(g, t):
    """Closed-form emitter population cos^2(g t / hbar) for zero dissipation."""
    return np.cos(g * np.asarray(t) / HBAR) ** 2


def weak_coupling_rate(params):
    """Emitter decay rate of adiabatic elimination, ns^-1: the closed form
    gamma + 2 g^2 gamma_tot / (gamma_tot^2 + delta^2), valid when the
    coherence decays much faster than the populations."""
    gtot = params.gamma_tot
    enhancement = 2.0 * params.g ** 2 * gtot / (gtot ** 2 + params.delta ** 2)
    return (params.gamma + enhancement) / HBAR


def lorentzian(x, center, fwhm, height):
    """Lorentzian line with peak value ``height``; area (pi/2) height fwhm."""
    half = fwhm / 2.0
    return height * half ** 2 / ((np.asarray(x) - center) ** 2 + half ** 2)


def fft_half_range_spectrum(params, omega_span_uev, max_log2=22):
    """Cavity emission spectrum by Simpson-FFT of the correlation decay.

    The correlations u = (<a>, <sigma>) of the cavity and emitter
    amplitudes obey the equations below, du/dtau = A u; they start from the
    time integrals of the populations, v0 = (y1, y2 - i y3) with
    y = -M^-1 (1, 0, 0, 0) for the :func:`population_generator` M.  The
    oracle samples g1(tau) = u_0(tau) densely, applies composite-Simpson
    weights through a single FFT (weights 3 - (-1)^n plus endpoint fixes),
    and returns (omega_grid_ueV, kappa Re S(omega) / (pi hbar)) on the FFT
    bins inside +-omega_span_uev.
    """
    g = params.g / HBAR
    kappa = params.kappa / HBAR
    delta = params.delta / HBAR
    dephased = (params.gamma / 2.0 + params.gamma_dp) / HBAR

    def rhs(u):
        a, sigma = u
        return np.array([-(kappa / 2.0 + 1j * delta) * a + g * sigma,
                         -g * a - dephased * sigma])

    matrix = np.column_stack([rhs(e) for e in np.eye(2)])
    y = -np.linalg.solve(population_generator(params), np.eye(4)[0])
    v0 = np.array([y[1], y[2] - 1j * y[3]])
    eigvals, eigvecs = np.linalg.eig(matrix)
    coeff = np.linalg.solve(eigvecs, v0)
    slow = -eigvals.real.max()
    if slow <= 0:
        raise ValueError("correlations do not decay; no spectrum")
    w_span = omega_span_uev / HBAR
    fastest = max(w_span, -eigvals.real.min(), np.abs(eigvals.imag).max())
    dt = 0.05 / fastest
    t_need = 25.0 / slow
    n = 1 << int(np.ceil(np.log2(t_need / dt)))
    n = min(max(n, 1 << 12), 1 << max_log2)
    dt = t_need / n
    tau = np.arange(n) * dt
    g1 = (eigvecs[0] * coeff) @ np.exp(np.outer(eigvals, tau))
    # kernel e^{-i w tau} matches numpy's forward-FFT sign convention
    big = np.fft.fft(g1)
    rolled = np.roll(big, -(n // 2))
    spec_c = (dt / 3.0) * (3.0 * big - rolled - g1[0])
    freqs_uev = np.fft.fftfreq(n, dt) * 2.0 * np.pi * HBAR
    intensity = kappa * spec_c.real / (np.pi * HBAR)
    keep = np.abs(freqs_uev) <= omega_span_uev
    order = np.argsort(freqs_uev[keep])
    return freqs_uev[keep][order], intensity[keep][order]


def simpson_integral(y, x):
    """Plain composite-Simpson quadrature (odd/even safe) for cross-checks."""
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 3:
        return 0.5 * (x[-1] - x[0]) * (y[0] + y[-1]) if n == 2 else 0.0
    h = x[1] - x[0]
    if n % 2 == 1:
        s = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])
        return s * h / 3.0
    s = y[0] + y[-2] + 4.0 * np.sum(y[1:-2:2]) + 2.0 * np.sum(y[2:-3:2])
    return s * h / 3.0 + 0.5 * h * (y[-2] + y[-1])

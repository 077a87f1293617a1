"""Instrument response kernels, convolution, and Fourier deconvolution.

A kernel is a signal of weights on a spectral (ueV) or temporal (ns) grid,
applied by one routine in ``convolve`` and in the IRF-aware fits.
Deconvolution divides in the Fourier domain inside a low-pass band with a
raised-cosine edge; the band defaults to where the kernel transform keeps
at least 10% of its peak, so the division stays well conditioned in noise.
"""

from __future__ import annotations

import functools
import io
import math
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft, rfftfreq

from .errors import DeconvolutionError, GridError
from .units import wavelength_to_energy

__all__ = [
    "SampledSignal",
    "IrfKernel",
    "gaussian_irf",
    "irf_fwhm_from_q",
    "convolve",
    "deconvolve",
    "irf_band_limit",
    "read_signal",
    "write_signal",
    "read_irf",
]

_DOMAINS = ("spectral", "temporal")
# "# key = value" header lines of a column file
_META = re.compile(r"^[ \t]*#([^=\n]*)=(.*)$", re.M)
# Largest relative step spread of a uniform grid: 4,096-point grids read
# back from 12-digit text stay under 1e-8; a missing sample gives 1.
_GRID_JITTER = 1e-6
# The default deconvolution band keeps |IRF transform| above 10% of its
# peak, so the division stays well conditioned; a 2^14-point FFT finds the
# band edge to within 1 / (2^14 step).
_BAND_FLOOR = 0.1
_BAND_N_FFT = 1 << 14


def _check_uniform(grid: np.ndarray, what: str) -> float:
    d = np.diff(grid)
    if d.size == 0 or not np.isfinite(grid).all() or d.min() <= 0:
        raise GridError(f"{what}: grid must be finite and strictly "
                        "increasing")
    step = float(grid[1] - grid[0])  # the step every .step property reports
    if np.ptp(d) > _GRID_JITTER * step:
        raise GridError(f"{what}: grid not uniform (step jitter "
                        f"{np.ptp(d) / step:.2e} exceeds {_GRID_JITTER:.0e})")
    return step


@dataclass
class SampledSignal:
    """Real samples on a uniform grid, tagged spectral (ueV) or temporal (ns)."""

    grid: np.ndarray
    values: np.ndarray
    domain: str = "spectral"

    def __post_init__(self):
        if self.domain not in _DOMAINS:
            raise ValueError(f"domain must be one of {_DOMAINS}")
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape:
            raise GridError("grid and values must have matching shape")
        _check_uniform(self.grid, "signal")

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


class IrfKernel(SampledSignal):
    """Normalized instrument response: a signal on its own uniform grid
    whose values are non-negative and integrate (sum times step) to 1."""

    def __post_init__(self):
        super().__post_init__()
        if self.values.min() < 0:
            raise ValueError("IRF values must be non-negative")
        total = self.values.sum() * self.step
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"IRF values integrate to {total:.12g}, not 1; "
                             "use IrfKernel.from_samples to renormalize")

    @classmethod
    def from_samples(cls, grid, counts, domain: str = "spectral") -> "IrfKernel":
        """Build a kernel from raw counts, rejecting negatives, renormalizing."""
        raw = SampledSignal(grid, counts, domain)
        if raw.values.min() < 0:
            raise ValueError("measured IRF contains negative counts")
        total = raw.values.sum() * raw.step
        if total <= 0:
            raise ValueError("measured IRF carries no weight")
        return cls(grid=raw.grid, values=raw.values / total, domain=domain)


def irf_fwhm_from_q(wavelength_nm: float, q: float) -> float:
    """Spectral FWHM (ueV) of a resolution specified as a Q factor."""
    if wavelength_nm <= 0 or q <= 0:
        raise ValueError("wavelength and Q must be positive")
    return wavelength_to_energy(wavelength_nm) / q


def gaussian_irf(fwhm: float, grid: np.ndarray,
                 domain: str = "spectral") -> IrfKernel:
    """Normalized Gaussian kernel of the given FWHM sampled on ``grid``.

    The kernel is centered on the middle grid sample.  Raises
    :class:`GridError` if the FWHM is under-resolved (less than two steps).
    """
    grid = np.asarray(grid, dtype=float)
    step = _check_uniform(grid, "IRF")
    if fwhm < 2.0 * step:
        raise GridError(f"under-resolved kernel: fwhm={fwhm:g} below two "
                        f"grid steps ({2 * step:g})")
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    center = grid[grid.size // 2]
    w = np.exp(-0.5 * ((grid - center) / sigma) ** 2)
    return IrfKernel(grid=grid, values=w / (w.sum() * step), domain=domain)


def _aligned_offset(signal: SampledSignal, irf: IrfKernel) -> int:
    """Integer grid offset of the kernel origin; validates compatibility."""
    if signal.domain != irf.domain:
        raise GridError(f"domain mismatch: signal is {signal.domain}, "
                        f"IRF is {irf.domain}")
    h = signal.step
    if abs(irf.step - h) > 1e-9 * h:
        raise GridError(f"grid step mismatch: signal {h:g} vs IRF {irf.step:g}")
    k0 = irf.grid[0] / h
    k0_int = int(round(k0))
    if abs(k0 - k0_int) > 1e-6:
        raise GridError("IRF grid is not sample-aligned with the signal grid")
    return k0_int


def _aligned_convolution(signal: SampledSignal, irf: IrfKernel):
    """The one discrete convolution with an aligned kernel.

    Output sample i sums input samples i - k0 - j over the m kernel samples
    j (k0: the kernel's offset in steps).  Returns the padding of
    ``signal``'s grid that this needs, (max(0, k0 + m - 1), max(0, -k0))
    samples, and ``conv``, which maps values on the grid widened by that
    padding (2-D: each column) to their convolution on ``signal``'s grid;
    a 2-D result is the transpose of a C-contiguous array, as a
    parameter-major Jacobian is.
    """
    k0 = _aligned_offset(signal, irf)
    n, m, h = signal.values.size, irf.values.size, signal.step
    pad = max(0, k0 + m - 1), max(0, -k0)
    start = pad[0] - k0 - (m - 1)

    def conv(v):
        rows = [np.convolve(u, irf.values, "valid")[start:start + n] * h
                for u in np.atleast_2d(v.T)]
        return rows[0] if v.ndim == 1 else np.array(rows).T

    return pad, conv


def convolve(signal: SampledSignal, irf: IrfKernel) -> SampledSignal:
    """Discrete linear convolution of a signal with an IRF, same grid.

    Area-preserving for signals with compact support inside the grid;
    values needed beyond the grid edges are treated as zero.
    """
    (left, right), conv = _aligned_convolution(signal, irf)
    v = np.concatenate([np.zeros(left), signal.values, np.zeros(right)])
    return SampledSignal(signal.grid.copy(), conv(v), signal.domain)


def _kernel_transform(irf: IrfKernel, n_fft: int, k0: int, h: float):
    """rfft of the kernel embedded circularly at its sample offset."""
    k = np.zeros(n_fft)
    idx = (np.arange(irf.values.size) + k0) % n_fft
    np.add.at(k, idx, irf.values * h)
    return rfft(k)


def irf_band_limit(irf: IrfKernel) -> float:
    """Default deconvolution band: where |IRF transform| falls to 10% of
    its peak.

    Returned in cycles per grid unit (the conjugate of the kernel's grid).
    """
    h = irf.step
    transform = np.abs(_kernel_transform(irf, _BAND_N_FFT, 0, h))
    freqs = rfftfreq(_BAND_N_FFT, h)
    peak = transform.max()
    below = np.nonzero(transform < _BAND_FLOOR * peak)[0]
    if below.size == 0:
        return float(freqs[-1])
    return float(freqs[below[0]])


def deconvolve(signal: SampledSignal, irf: IrfKernel,
               band_limit: float | None = None) -> SampledSignal:
    """Fourier-domain deconvolution with band-limited noise suppression.

    Transforms the signal, divides by the kernel transform for frequencies
    up to ``band_limit`` (cycles per grid unit) with a raised-cosine edge
    spanning the upper 10% of the band, zeroes everything beyond, and
    transforms back.  The default band limit comes from
    :func:`irf_band_limit`.

    Raises
    ------
    DeconvolutionError
        If the kernel transform vanishes inside the requested passband.
    """
    k0 = _aligned_offset(signal, irf)
    h = signal.step
    n = signal.values.size
    m = irf.values.size
    n_fft = 1 << (n + m - 1).bit_length()

    if band_limit is None:
        band_limit = irf_band_limit(irf)
    nyquist = 0.5 / h
    band = min(float(band_limit), nyquist)
    if band <= 0:
        raise DeconvolutionError("band limit must be positive")

    x_hat = rfft(signal.values, n_fft)
    h_hat = _kernel_transform(irf, n_fft, k0, h)
    freqs = rfftfreq(n_fft, h)

    window = np.zeros(freqs.size)
    edge = 0.1 * band
    flat = freqs <= band - edge
    window[flat] = 1.0
    roll = (freqs > band - edge) & (freqs <= band)
    window[roll] = 0.5 * (1.0 + np.cos(math.pi * (freqs[roll] - band + edge) / edge))

    active = window > 0
    h_mag = np.abs(h_hat[active])
    if h_mag.size and h_mag.min() < 1e-2 * np.abs(h_hat).max():
        raise DeconvolutionError(
            "IRF transform falls below 1% of its peak inside the passband "
            "(a transform zero); deconvolution is ill-posed at this band "
            "limit")

    y_hat = np.zeros_like(x_hat)
    y_hat[active] = x_hat[active] / h_hat[active] * window[active]
    out = irfft(y_hat, n_fft)[:n]
    return SampledSignal(grid=signal.grid.copy(), values=out,
                         domain=signal.domain)


def write_signal(sig: SampledSignal, path, metadata: dict | None = None) -> None:
    """Write a signal to two-column whitespace text with '#' comments."""
    lines = ["# cqed-lab signal v1", f"# domain = {sig.domain}"]
    for key in sorted(metadata or {}):
        lines.append(f"# {key} = {metadata[key]}")
    _write_columns(path, lines, sig.grid, sig.values)


def _atomic_write(path, text: str) -> None:
    """Write ``text`` through a temporary file renamed over ``path``.

    An interrupted write leaves the previous file, or none, and no
    temporary file; never a truncated ``path``.
    """
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".tmp-{os.getpid()}-{os.path.basename(path)}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.lru_cache(maxsize=1)
def _grid_cells(grid: bytes) -> tuple:
    """The %.12g strings of a float64 grid given as its bytes."""
    return tuple(map("%.12g".__mod__, np.frombuffer(grid).tolist()))


def _write_columns(path, header: list, xs: np.ndarray, ys: np.ndarray) -> None:
    """Write the header lines, then one "x y" row per sample.

    Both columns are written as %.12g.  The x column is formatted once per
    run of equal grids (every spectrum of a sweep shares one), and the body
    is rendered by one template over the interleaved cells.
    """
    cells = [None] * (2 * len(ys))
    cells[::2] = _grid_cells(np.asarray(xs, dtype=float).tobytes())
    cells[1::2] = np.asarray(ys, dtype=float).tolist()
    _atomic_write(path, "".join(f"{line}\n" for line in header)
                  + ("%s %.12g\n" * len(ys)) % tuple(cells))


def _read_columns(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """The first two columns of a text file and its "# key = value" lines.

    Metadata comes only from the lines that contain a '#', each matched as
    a whole line (up to its "\\n") against "# key = value".
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    meta = {}
    end = -1
    while (at := text.find("#", end + 1)) >= 0:
        start = text.rfind("\n", 0, at) + 1
        end = text.find("\n", at)
        if end < 0:
            end = len(text)
        if match := _META.match(text, start, end):
            meta[match[1].strip()] = match[2].strip()
    try:
        with warnings.catch_warnings():
            # a file without data rows is reported below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(io.StringIO(text), comments="#",
                              usecols=(0, 1), ndmin=2)
    except ValueError:
        # name the first data line without two numbers
        for line in map(str.strip, text.splitlines()):
            fields = line.split("#", 1)[0].split()
            try:
                if fields:
                    float(fields[0]), float(fields[1])
            except (IndexError, ValueError):
                raise GridError(
                    f"{path}: malformed data line {line!r}") from None
        raise
    if data.shape[0] < 2:
        raise GridError(f"{path}: fewer than two samples")
    if not np.isfinite(data).all():
        raise GridError(f"{path}: non-finite number in data row "
                        f"{int(np.nonzero(~np.isfinite(data))[0][0]) + 1}")
    xs, ys = data.T.copy()
    return xs, ys, meta


def read_signal(path, domain: str | None = None) -> tuple[SampledSignal, dict]:
    """Read a two-column signal file; returns the signal and its metadata."""
    xs, ys, meta = _read_columns(path)
    dom = domain or meta.get("domain", "spectral")
    return SampledSignal(grid=xs, values=ys, domain=dom), meta


def read_irf(path, domain: str | None = None) -> IrfKernel:
    """Read a measured IRF file; negative counts are rejected, rest renormalized."""
    xs, ys, meta = _read_columns(path)
    dom = domain or meta.get("domain", "spectral")
    return IrfKernel.from_samples(xs, ys, domain=dom)

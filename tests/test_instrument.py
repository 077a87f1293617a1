import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from cqed_lab import (DeconvolutionError, GridError, IrfKernel, SampledSignal,
                      convolve, deconvolve, gaussian_irf, irf_band_limit,
                      irf_fwhm_from_q, read_irf, read_signal, write_signal)
from oracles import lorentzian


def kernel_grid(half_n, step):
    return np.arange(-half_n, half_n + 1) * step


def gaussian_signal(x, center, sigma):
    return np.exp(-0.5 * ((x - center) / sigma) ** 2)


class TestIrfKernel:
    def test_must_be_normalized(self):
        g = kernel_grid(10, 1.0)
        with pytest.raises(ValueError):
            IrfKernel(grid=g, values=np.ones(21), domain="spectral")

    def test_negative_counts_rejected(self):
        g = kernel_grid(10, 1.0)
        w = np.ones(21)
        w[3] = -0.5
        with pytest.raises(ValueError):
            IrfKernel.from_samples(g, w)

    def test_from_samples_renormalizes(self):
        g = kernel_grid(50, 0.5)
        counts = np.exp(-0.5 * (g / 4.0) ** 2) * 1234.5
        irf = IrfKernel.from_samples(g, counts)
        assert irf.values.sum() * irf.step == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("decimals", [9, 10])
    def test_rounded_grid_normalizes_with_its_own_step(self, tmp_path,
                                                       decimals):
        # a 1/300 ns grid written to 9-10 decimals jitters by 3e-7-3e-8,
        # inside the uniformity limit; the kernel checks the step it was
        # normalized with
        g = np.round(kernel_grid(60, 1.0 / 300.0), decimals)
        counts = gaussian_signal(g, 0.0, 0.02)
        path = tmp_path / "irf.txt"
        path.write_text("".join(f"{x!r} {y!r}\n" for x, y
                                in zip(g.tolist(), counts.tolist())))
        for irf in (IrfKernel.from_samples(g, counts, "temporal"),
                    gaussian_irf(0.05, g, "temporal"),
                    read_irf(path, "temporal")):
            assert irf.values.sum() * irf.step == pytest.approx(1.0,
                                                                 abs=1e-12)


class TestGaussianIrf:
    def test_second_moment(self):
        fwhm = 29.9
        irf = gaussian_irf(fwhm, kernel_grid(600, 0.1))
        mean = np.sum(irf.grid * irf.values) * irf.step
        var = np.sum((irf.grid - mean) ** 2 * irf.values) * irf.step
        assert math.sqrt(var) == pytest.approx(fwhm / 2.3548, rel=1e-3)

    def test_under_resolved_rejected(self):
        with pytest.raises(GridError):
            gaussian_irf(1.5, kernel_grid(10, 1.0))

    def test_spectrometer_resolution_from_q(self):
        # Q = 43500 at 952 nm corresponds to a 29.9 ueV kernel
        assert irf_fwhm_from_q(952.0, 43500.0) == pytest.approx(29.9, abs=0.05)

    def test_delta_like_kernel_is_identity(self):
        step = 0.5
        irf = gaussian_irf(2 * step, kernel_grid(40, step))
        x = np.arange(-200.0, 200.0, step)
        sig = SampledSignal(x, lorentzian(x, 5.0, 40.0, 1.0), "spectral")
        out = convolve(sig, irf)
        assert np.abs(out.values - sig.values).max() < 0.01 * sig.values.max()


class TestConvolve:
    def test_area_preserved(self):
        step = 0.2
        x = np.arange(-400.0, 400.0, step)
        sig = SampledSignal(x, gaussian_signal(x, 3.0, 15.0), "spectral")
        irf = gaussian_irf(12.0, kernel_grid(300, step))
        out = convolve(sig, irf)
        assert np.sum(out.values) == pytest.approx(np.sum(sig.values),
                                                   rel=1e-9)

    def test_lorentzian_widths_add(self):
        step = 0.05
        x = np.arange(-1500.0, 1500.0, step)
        sig = SampledSignal(x, lorentzian(x, 0.0, 40.0, 1.0), "spectral")
        irf_grid = kernel_grid(20000, step)
        lw = lorentzian(irf_grid, 0.0, 25.0, 1.0)
        irf = IrfKernel.from_samples(irf_grid, lw)
        out = convolve(sig, irf)
        half = out.values > 0.5 * out.values.max()
        fwhm = x[half].max() - x[half].min()
        assert fwhm == pytest.approx(65.0, rel=0.01)

    def test_gaussian_variances_add(self):
        step = 0.1
        x = np.arange(-300.0, 300.0, step)
        s1, s2 = 8.0, 5.0
        sig = SampledSignal(x, gaussian_signal(x, 0.0, s1), "spectral")
        irf = gaussian_irf(2.3548 * s2, kernel_grid(1000, step))
        out = convolve(sig, irf)
        mean = np.sum(x * out.values) / np.sum(out.values)
        var = np.sum((x - mean) ** 2 * out.values) / np.sum(out.values)
        assert var == pytest.approx(s1 ** 2 + s2 ** 2, rel=0.005)

    def test_symmetry_preserved(self):
        step = 0.25
        x = np.arange(-256.0, 256.0 + step / 2, step)
        center = 8.0
        sig = SampledSignal(x, gaussian_signal(x, center, 20.0), "spectral")
        irf = gaussian_irf(10.0, kernel_grid(200, step))
        out = convolve(sig, irf)
        # mirror about the center sample
        ic = int(round((center - x[0]) / step))
        k = min(ic, x.size - 1 - ic)
        left = out.values[ic - k:ic]
        right = out.values[ic + 1:ic + k + 1][::-1]
        assert np.abs(left - right).max() < 1e-9 * out.values.max()

    def test_grid_step_mismatch_rejected(self):
        x = np.arange(-100.0, 100.0, 0.5)
        sig = SampledSignal(x, np.zeros_like(x), "spectral")
        irf = gaussian_irf(5.0, kernel_grid(100, 0.4))
        with pytest.raises(GridError):
            convolve(sig, irf)

    def test_domain_mismatch_rejected(self):
        x = np.arange(-100.0, 100.0, 0.5)
        sig = SampledSignal(x, np.zeros_like(x), "temporal")
        irf = gaussian_irf(5.0, kernel_grid(100, 0.5), "spectral")
        with pytest.raises(GridError):
            convolve(sig, irf)


class TestDeconvolve:
    def setup_method(self):
        self.step = 0.5
        self.x = np.arange(-1024.0, 1024.0, self.step)
        self.irf = gaussian_irf(29.9, kernel_grid(240, self.step))

    def test_round_trip_band_limited(self):
        y = (lorentzian(self.x, -57.0, 90.0, 1.0)
             + lorentzian(self.x, 57.0, 80.0, 0.9))
        sig = SampledSignal(self.x, y, "spectral")
        back = deconvolve(convolve(sig, self.irf), self.irf)
        assert np.abs(back.values - y).max() <= 0.01 * y.max()

    def test_fwhm_recovered_after_deconvolution(self):
        truth_fwhm = 60.0
        y = lorentzian(self.x, 0.0, truth_fwhm, 1.0)
        sig = SampledSignal(self.x, y, "spectral")
        back = deconvolve(convolve(sig, self.irf), self.irf)

        def resid(p):
            return lorentzian(self.x, *p) - back.values

        fit = least_squares(resid, [0.0, 40.0, 0.8])
        assert fit.x[1] == pytest.approx(truth_fwhm, rel=0.03)

    def test_band_limit_default_at_ten_percent(self):
        band = irf_band_limit(self.irf)
        sigma = 29.9 / 2.3548
        expected = math.sqrt(math.log(10.0) / 2.0) / (math.pi * sigma)
        assert band == pytest.approx(expected, rel=0.02)

    def test_noise_suppression_beats_passband_fraction(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(0.0, 1.0, self.x.size)
        sig = SampledSignal(self.x, noise, "spectral")
        band = irf_band_limit(self.irf)
        out = deconvolve(sig, self.irf, band)

        # naive division: unwindowed division on every bin where the kernel
        # transform is still numerically representable
        n_fft = 1 << (self.x.size + self.irf.values.size - 1).bit_length()
        k = np.zeros(n_fft)
        k0 = int(round(self.irf.grid[0] / self.step))
        idx = (np.arange(self.irf.values.size) + k0) % n_fft
        k[idx] = self.irf.values * self.step
        h_hat = np.fft.rfft(k)
        x_hat = np.fft.rfft(noise, n_fft)
        keep = np.abs(h_hat) >= 1e-6 * np.abs(h_hat).max()
        y_hat = np.zeros_like(x_hat)
        y_hat[keep] = x_hat[keep] / h_hat[keep]
        naive = np.fft.irfft(y_hat, n_fft)[:self.x.size]

        passband_fraction = band / (0.5 / self.step)
        assert out.values.var() < passband_fraction * naive.var()

    def test_linearity(self):
        y1 = lorentzian(self.x, -30.0, 70.0, 1.0)
        y2 = gaussian_signal(self.x, 40.0, 50.0)
        a, b = 2.5, -0.7
        d1 = deconvolve(SampledSignal(self.x, y1, "spectral"), self.irf)
        d2 = deconvolve(SampledSignal(self.x, y2, "spectral"), self.irf)
        d12 = deconvolve(SampledSignal(self.x, a * y1 + b * y2, "spectral"),
                         self.irf)
        assert np.abs(d12.values - (a * d1.values + b * d2.values)).max() \
            < 1e-12 * np.abs(d1.values).max()

    def test_transform_zero_inside_band_rejected(self):
        # two-spike comb: transform has a zero at 1/(2*spacing)
        g = kernel_grid(20, self.step)
        w = np.zeros(g.size)
        w[g == -5.0] = 1.0
        w[g == 5.0] = 1.0
        comb = IrfKernel.from_samples(g, w)
        sig = SampledSignal(self.x, gaussian_signal(self.x, 0.0, 30.0),
                            "spectral")
        with pytest.raises(DeconvolutionError):
            deconvolve(sig, comb, band_limit=0.2)

    def test_output_is_real_and_same_grid(self):
        y = gaussian_signal(self.x, 10.0, 25.0)
        out = deconvolve(SampledSignal(self.x, y, "spectral"), self.irf)
        assert out.values.dtype == np.float64
        assert np.array_equal(out.grid, self.x)


class TestSignalIO:
    def test_signal_round_trip(self, tmp_path):
        x = np.arange(0.0, 10.0, 0.01)
        sig = SampledSignal(x, np.sin(x) ** 2 * 100.0, "temporal")
        path = tmp_path / "sig.txt"
        write_signal(sig, path, metadata={"detuning_ueV": "12"})
        back, meta = read_signal(path)
        assert back.domain == "temporal"
        assert meta["detuning_ueV"] == "12"
        assert np.allclose(back.values, sig.values, rtol=1e-10)

    def test_read_irf_rejects_negative(self, tmp_path):
        path = tmp_path / "irf.txt"
        path.write_text("# domain = temporal\n0.0 1.0\n0.1 -0.5\n0.2 1.0\n")
        with pytest.raises(ValueError):
            read_irf(path)

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0\n1.0 2.0\n3.0 1.0\n")
        with pytest.raises(GridError):
            read_signal(path)

import math
import os
import re

import numpy as np
import pytest

from cqed_lab import (HBAR_UEV_NS, DetectionCoefficients, GridError,
                      PeakError, SampledSignal, Spectrum, SystemParams,
                      convolve, correlation_kernel, default_grid,
                      emission_spectrum, fit_lorentzian_pair, gaussian_irf,
                      propagate, rabi_splitting, read_spectrum,
                      resolvent_transform, seed_lorentzian_pair,
                      write_signal, write_spectrum)
from cqed_lab import spectra
from cqed_lab.instrument import _META, _write_columns
from cqed_lab.model import decay_moments, generator_matrix
from cqed_lab.spectra import _detected_intensity, _prominent_maxima
from oracles import fft_half_range_spectrum, lorentzian, simpson_integral


class TestDetectionCoefficients:
    def test_defaults_are_cavity_only(self):
        det = DetectionCoefficients()
        assert det.eta_ca == 1.0 and det.eta_qd == 0.0

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            DetectionCoefficients(eta_ca=0.0, eta_qd=0.0)

    def test_background_range(self):
        with pytest.raises(ValueError):
            DetectionCoefficients(background_fraction=1.0)
        with pytest.raises(ValueError):
            DetectionCoefficients(background_fraction=-0.1)


class TestCorrelationKernel:
    def test_decoupled_diagonal(self):
        params = SystemParams(g=0.0, kappa=110.0, gamma=1.3, gamma_dp=6.3,
                              delta=40.0)
        kern = correlation_kernel(params)
        a = kern.matrix
        assert a[0, 1] == 0.0 and a[1, 0] == 0.0
        assert a[0, 0] == pytest.approx((-55.0 - 40.0j) / HBAR_UEV_NS)
        assert a[1, 1] == pytest.approx(-(0.65 + 6.3) / HBAR_UEV_NS)

    def test_lossless_rabi_doublet(self):
        # dissipation-free limit: eigenvalues +-i g/hbar
        params = SystemParams(g=30.0, kappa=1e-9, gamma=0.0)
        kern = correlation_kernel(params)
        eig = np.linalg.eigvals(kern.matrix)
        assert sorted(eig.imag) == pytest.approx(
            [-30.0 / HBAR_UEV_NS, 30.0 / HBAR_UEV_NS], rel=1e-6)

    def test_off_diagonal_magnitude(self, micropillar):
        kern = correlation_kernel(micropillar)
        assert abs(kern.matrix[0, 1]) == pytest.approx(22.6 / HBAR_UEV_NS)
        assert abs(kern.matrix[1, 0]) == pytest.approx(22.6 / HBAR_UEV_NS)
        assert kern.matrix[0, 1] == -kern.matrix[1, 0]

    def test_dissipative_eigenvalues_decay(self, micropillar, pc_cavity):
        for params in (micropillar, pc_cavity):
            eig = np.linalg.eigvals(correlation_kernel(params).matrix)
            assert np.all(eig.real < 0)

    def test_eigenvalue_splitting_matches_resolved_peaks(self):
        # deep strong coupling: spectral maxima sit at the eigenfrequencies
        params = SystemParams(g=500.0, kappa=20.0, gamma=0.2, gamma_dp=0.0)
        kern = correlation_kernel(params)
        eig = np.linalg.eigvals(kern.matrix)
        pred = abs(eig.imag[0] - eig.imag[1]) * HBAR_UEV_NS
        grid = np.linspace(-5100.0, 5100.0, 32769)
        spec = emission_spectrum(params, grid=grid)
        assert rabi_splitting(spec) == pytest.approx(pred, rel=0.01)

    def test_micropillar_is_overdamped_at_resonance(self, micropillar):
        # crossing regime: purely real eigenvalues, single spectral peak
        eig = np.linalg.eigvals(correlation_kernel(micropillar).matrix)
        assert np.abs(eig.imag).max() < 1e-9
        spec = emission_spectrum(micropillar)
        with pytest.raises(PeakError):
            rabi_splitting(spec)


class TestResolventTransform:
    @pytest.mark.parametrize("name, delta", [
        pytest.param("micropillar", 0.0, id="micropillar"),
        pytest.param("pc_cavity", 0.0, id="pc_cavity"),
        pytest.param("pc_cavity", 60.0, id="pc_cavity-delta60"),
    ])
    def test_agrees_with_fft_path(self, name, delta, request):
        # the oracle builds its own generator and start vector; the
        # package's kernel and the path the commands run must both match it
        params = request.getfixturevalue(name).with_(delta=delta)
        span = 6.0 * max(params.kappa, 2 * params.g)
        omega, oracle = fft_half_range_spectrum(params, span)
        kern = correlation_kernel(params)
        kt = params.kappa / HBAR_UEV_NS
        direct = kt * resolvent_transform(kern.matrix, kern.v0, omega)[0].real \
            / (math.pi * HBAR_UEV_NS)
        spectrum = emission_spectrum(params, grid=omega).values
        for got in (direct, spectrum):
            assert np.abs(got - oracle).max() <= 1e-6 * np.abs(oracle).max()

    def test_decoupled_cavity_lorentzian(self):
        # unit cavity correlation through the g=0 kernel: bare cavity line
        params = SystemParams(g=0.0, kappa=110.0, gamma=1.3, gamma_dp=6.3,
                              delta=40.0)
        kern = correlation_kernel(params)
        grid = np.linspace(-1500.0, 1500.0, 240001)
        vals = resolvent_transform(kern.matrix, np.array([1.0, 0.0]), grid)[0].real
        expected = (1.0 / (params.kappa / 2 / HBAR_UEV_NS)) * \
            lorentzian(grid, -40.0, 110.0, 1.0)
        assert np.abs(vals - expected).max() < 1e-3 * expected.max()


class TestEmissionSpectrum:
    def test_decoupled_cavity_channel_is_dark(self):
        # with the emitter initially excited and g=0, nothing reaches the cavity
        params = SystemParams(g=0.0, kappa=110.0, gamma=1.3, gamma_dp=6.3,
                              delta=40.0)
        spec = emission_spectrum(params)
        assert np.abs(spec.intensity).max() < 1e-15

    def test_decoupled_emitter_line(self):
        params = SystemParams(g=0.0, kappa=110.0, gamma=1.3, gamma_dp=6.3,
                              delta=40.0)
        det = DetectionCoefficients(eta_ca=0.0, eta_qd=1.0)
        grid = np.linspace(-1200.0, 1200.0, 480001)
        spec = emission_spectrum(params, det, grid)
        width = 1.3 + 2 * 6.3
        imax = np.argmax(spec.intensity)
        assert abs(spec.omega[imax]) < 0.01
        half = spec.intensity > 0.5 * spec.intensity[imax]
        fwhm = spec.omega[half].max() - spec.omega[half].min()
        assert fwhm == pytest.approx(width, rel=0.001)

    def test_pc_doublet_splitting(self, pc_cavity):
        spec = emission_spectrum(pc_cavity)
        assert rabi_splitting(spec) == pytest.approx(114.0, rel=0.10)

    def test_cavity_channel_area_counts_photons(self, micropillar):
        params = micropillar.with_(delta=30.0)
        traj = propagate(params)
        spec = emission_spectrum(params, grid=default_grid(params, 32768))
        i_ca = simpson_integral(traj.rho_ca, traj.times)
        photons = params.kappa / HBAR_UEV_NS * i_ca
        area = simpson_integral(spec.intensity, spec.omega)
        assert area == pytest.approx(photons, rel=0.01)

    def test_emitter_channel_area_counts_photons(self, micropillar):
        params = micropillar.with_(delta=30.0)
        det = DetectionCoefficients(eta_ca=0.0, eta_qd=1.0)
        traj = propagate(params)
        spec = emission_spectrum(params, det, default_grid(params, 32768))
        i_qd = simpson_integral(traj.rho_qd, traj.times)
        photons = params.gamma / HBAR_UEV_NS * i_qd
        area = simpson_integral(spec.intensity, spec.omega)
        assert area == pytest.approx(photons, rel=0.01)

    def test_symmetric_at_zero_detuning(self, pc_cavity):
        grid = np.linspace(-2000.0, 2000.0, 8193)
        spec = emission_spectrum(pc_cavity, grid=grid)
        assert np.abs(spec.intensity - spec.intensity[::-1]).max() \
            <= 1e-9 * spec.intensity.max()

    def test_background_pedestal_area(self, micropillar):
        params = micropillar.with_(delta=40.0)
        grid = np.linspace(-30000.0, 30000.0, 65537)
        base = emission_spectrum(params, DetectionCoefficients(), grid)
        frac = 0.208
        with_bg = emission_spectrum(
            params, DetectionCoefficients(background_fraction=frac), grid)
        added = simpson_integral(with_bg.intensity - base.intensity, grid)
        coherent = simpson_integral(base.intensity, grid)
        # pedestal carries the requested fraction of the total cavity area
        assert added / (added + coherent) == pytest.approx(frac, rel=0.005)

    def test_pedestal_scales_linearly(self, micropillar):
        params = micropillar.with_(delta=40.0)
        grid = np.linspace(-30000.0, 30000.0, 65537)
        base = emission_spectrum(params, DetectionCoefficients(), grid)
        f1 = 0.1
        f2 = 2 * f1 / (1 + f1)  # doubles the pedestal odds f/(1-f)
        s1 = emission_spectrum(params,
                               DetectionCoefficients(background_fraction=f1),
                               grid)
        s2 = emission_spectrum(params,
                               DetectionCoefficients(background_fraction=f2),
                               grid)
        added1 = s1.intensity - base.intensity
        added2 = s2.intensity - base.intensity
        assert np.abs(added2 - 2.0 * added1).max() < 1e-12 * base.intensity.max()

    def test_narrow_grid_rejected(self, pc_cavity):
        with pytest.raises(GridError):
            emission_spectrum(pc_cavity, grid=np.linspace(-100.0, 100.0, 512))

    def test_grid_missing_dressed_lines_rejected(self):
        # deep strong coupling: the lines sit near +-g, far outside +-5 kappa
        params = SystemParams(g=500.0, kappa=20.0, gamma=0.2, gamma_dp=0.0)
        with pytest.raises(GridError):
            emission_spectrum(params, grid=np.linspace(-200.0, 200.0, 801))

    def test_grid_five_half_widths_past_lines_accepted(self, pc_cavity):
        # PC lines at +-79.7 ueV with half-width 50.8 ueV need +-334 ueV
        emission_spectrum(pc_cavity, grid=np.linspace(-340.0, 340.0, 681))
        with pytest.raises(GridError):
            emission_spectrum(pc_cavity, grid=np.linspace(-330.0, 330.0, 661))

    def test_weak_coupling_emitter_linewidth(self):
        # gamma_tot >= 20 g, far detuned: emitter line width approaches the
        # bare width plus the cavity-induced (Purcell) broadening
        params = SystemParams(g=3.0, kappa=160.0, gamma=1.0, gamma_dp=2.0,
                              delta=300.0)
        det = DetectionCoefficients(eta_ca=0.0, eta_qd=1.0)
        grid = np.linspace(-4000.0, 4000.0, 1600001)
        spec = emission_spectrum(params, det, grid)
        sel = np.abs(grid) < 50.0
        y, x = spec.intensity[sel], grid[sel]
        imax = np.argmax(y)
        half = y > 0.5 * y[imax]
        fwhm = x[half].max() - x[half].min()
        bare = params.gamma + 2 * params.gamma_dp
        drive = params.kappa / 2 - params.gamma / 2 - params.gamma_dp
        purcell = 2 * params.g ** 2 * drive / (drive ** 2 + params.delta ** 2)
        assert fwhm == pytest.approx(bare + purcell, rel=0.05)

    def test_interference_terms_enter_with_both_channels(self, micropillar):
        params = micropillar.with_(delta=40.0)
        det_mix = DetectionCoefficients(eta_ca=1.0, eta_qd=0.4)
        both = emission_spectrum(params, det_mix)
        ca_only = emission_spectrum(params, DetectionCoefficients())
        qd_only = emission_spectrum(
            params, DetectionCoefficients(eta_ca=0.0, eta_qd=0.4))
        incoherent_sum = ca_only.intensity + qd_only.intensity
        assert np.abs(both.intensity - incoherent_sum).max() > \
            0.01 * both.intensity.max()


MP = SystemParams(g=22.6, kappa=110.0, gamma=1.3, gamma_dp=6.3)
# at delta = 0 the correlation generator is defective at this g
MP_EXCEPTIONAL = MP.with_(g=abs(MP.kappa - MP.gamma - 2.0 * MP.gamma_dp) / 4.0)


class TestAnalyticDerivatives:
    @pytest.mark.filterwarnings("ignore:interference terms")
    @pytest.mark.parametrize("params,eta_qd,frac", [
        (MP, 0.0, 0.0),
        (MP.with_(delta=17.0), 1.0, 0.0),
        (MP.with_(delta=-40.0), 3j, 0.2),
        (MP_EXCEPTIONAL, 0.0, 0.0),
        (MP_EXCEPTIONAL, 3j, 0.2),
        (SystemParams(g=92.4, kappa=195.0, gamma=0.0, gamma_dp=4.0,
                      delta=60.0), 1.0, 0.3),
    ], ids=["mp", "eta1-detuned", "eta3i-pedestal", "exceptional",
            "exceptional-eta3i-pedestal", "pc-gamma0-pedestal"])
    def test_match_central_differences(self, params, eta_qd, frac):
        det = DetectionCoefficients(eta_qd=eta_qd, background_fraction=frac)
        grid = default_grid(params, 801, reach=abs(params.delta))
        value, d_g, d_omega = _detected_intensity(params, det, grid, jac=True)
        assert np.array_equal(value, _detected_intensity(params, det, grid))

        h = 2e-5 * params.g
        fd_g = (_detected_intensity(params.with_(g=params.g + h), det, grid)
                - _detected_intensity(params.with_(g=params.g - h), det, grid)
                ) / (2.0 * h)
        h = 2e-4
        fd_omega = (_detected_intensity(params, det, grid + h)
                    - _detected_intensity(params, det, grid - h)) / (2.0 * h)
        for analytic, numeric in ((d_g, fd_g), (d_omega, fd_omega)):
            scale = np.abs(analytic).max()
            assert scale > 0.0
            assert np.abs(analytic - numeric).max() <= 1e-7 * scale

    @pytest.mark.filterwarnings("ignore:interference terms")
    @pytest.mark.parametrize("eta_ca,eta_qd", [
        (1.0, 0.0), (1.0, 0.6 - 0.8j), (1.0, 1j), (1.0, 3.0), (0.0, 1.0)],
        ids=["eta0", "eta-complex", "eta1j", "eta3", "emitter-only"])
    @pytest.mark.parametrize("delta", [0.0, 100.0, -100.0])
    @pytest.mark.parametrize("params", [
        MP, SystemParams(g=92.4, kappa=195.0, gamma=0.2, gamma_dp=4.0)],
        ids=["mp", "pc"])
    def test_match_one_transform_per_term(self, params, delta, eta_ca,
                                          eta_qd):
        # reference: each of R v, its g-derivative and its omega-derivative
        # from a separate public resolvent_transform call per channel, summed
        # term by term over the two channels and their interference
        params = params.with_(delta=delta)
        det = DetectionCoefficients(eta_ca=eta_ca, eta_qd=eta_qd)
        grid = default_grid(params, 2048, reach=abs(delta))
        y = decay_moments(params)[0]
        dy = np.linalg.solve(generator_matrix(params), np.array(
            [2.0 * y[2], -2.0 * y[2], y[1] - y[0], 0.0]) / HBAR_UEV_NS)
        a = correlation_kernel(params).matrix
        hb = HBAR_UEV_NS

        def channel(v, dv):
            r = resolvent_transform(a, v, grid)
            return (r, resolvent_transform(
                        a, np.array([r[1], -r[0]]) / hb + dv[:, None], grid),
                    -1j / hb * resolvent_transform(a, r, grid))

        def start(u):
            return (np.array([u[1], u[2] - 1j * u[3]]),
                    np.array([u[2] + 1j * u[3], u[0]]))

        (ca, dca), (qd, dqd) = zip(start(y), start(dy))
        r_ca, r_qd = channel(ca, dca), channel(qd, dqd)
        kt, gm = params.kappa / hb, params.gamma / hb
        root = math.sqrt(kt * gm)
        expected = [(abs(eta_ca) ** 2 * kt * c[0]
                     + abs(eta_qd) ** 2 * gm * q[1]
                     + np.conj(eta_ca) * eta_qd * root * q[0]
                     + np.conj(eta_qd) * eta_ca * root * c[1]).real
                    / (math.pi * hb) for c, q in zip(r_ca, r_qd)]
        got = _detected_intensity(params, det, grid, jac=True)
        for row, ref in zip(got, expected):
            assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("jac,applications", [(False, 1), (True, 3)])
    @pytest.mark.parametrize("eta_qd", [0.3, 1j, 3.0])
    def test_one_resolvent_application_per_row(self, monkeypatch, eta_qd,
                                               jac, applications):
        # the detected field is one start vector whatever eta_qd is
        calls = []
        resolvent = spectra._resolvent

        def counting(matrix, omega):
            apply = resolvent(matrix, omega)
            return lambda v: calls.append(v) or apply(v)

        monkeypatch.setattr(spectra, "_resolvent", counting)
        params = MP.with_(delta=30.0)
        _detected_intensity(params, DetectionCoefficients(eta_qd=eta_qd),
                            default_grid(params, 512, reach=30.0), jac=jac)
        assert len(calls) == applications


class TestRabiSplitting:
    def test_constructed_doublet(self):
        x = np.linspace(-400.0, 400.0, 4001)
        y = lorentzian(x, -57.0, 30.0, 1.0) + lorentzian(x, 57.0, 30.0, 1.0)
        spec = Spectrum(x, y)
        assert rabi_splitting(spec) == pytest.approx(114.0, abs=0.2)

    def test_single_peak_errors(self):
        x = np.linspace(-400.0, 400.0, 4001)
        spec = Spectrum(x, lorentzian(x, 0.0, 60.0, 1.0))
        with pytest.raises(PeakError):
            rabi_splitting(spec)

    @pytest.mark.parametrize("g", [74.0, 75.0, 76.0, 77.0])
    def test_shallow_dip_is_one_peak_whatever_the_tie(self, g):
        # the PC dips here are 1.5-3.4% of the maximum, under the 5%
        # prominence; at g=74 and 76 the two maxima are bit-identical
        params = SystemParams(g=g, kappa=195.0, gamma=0.2, gamma_dp=4.0)
        with pytest.raises(PeakError):
            rabi_splitting(emission_spectrum(params))

    @pytest.mark.parametrize("g", [22.6, 60.0, 92.4])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_maxima_match_find_peaks(self, g, noise):
        # scipy.signal.find_peaks with prominence= is the reference rule
        from scipy.signal import find_peaks
        rng = np.random.default_rng(5)
        x = np.linspace(-1200.0, 1200.0, 2401)
        for delta in (-300.0, -60.0, 0.0, 25.0, 200.0):
            params = SystemParams(g=g, kappa=150.0, gamma=1.0, gamma_dp=5.0,
                                  delta=delta)
            y = emission_spectrum(params, grid=x).intensity
            y = y * (1.0 + noise * rng.standard_normal(y.size))
            for depth in (0.0, 0.01 * y.max(), 0.05 * y.max()):
                want = find_peaks(y, prominence=depth)[0].tolist()
                assert _prominent_maxima(y, depth) == want

    def test_flat_top_maxima_match_find_peaks(self):
        from scipy.signal import find_peaks
        rng = np.random.default_rng(6)
        for _ in range(200):
            y = rng.integers(0, 4, size=rng.integers(3, 60)).astype(float)
            for depth in (0.0, 1.0, 2.0):
                want = find_peaks(y, prominence=depth)[0].tolist()
                assert _prominent_maxima(y, depth) == want

    def test_convolved_signal(self, pc_cavity):
        # convolve returns a plain SampledSignal, not a Spectrum
        spec = emission_spectrum(pc_cavity)
        irf = gaussian_irf(5.0, np.arange(-250, 251) * spec.step)
        sig = convolve(spec, irf)
        assert type(sig) is SampledSignal
        assert rabi_splitting(sig) == pytest.approx(rabi_splitting(spec),
                                                    rel=0.01)

    def test_three_peaks_error(self):
        x = np.linspace(-400.0, 400.0, 4001)
        y = (lorentzian(x, -100.0, 20.0, 1.0) + lorentzian(x, 0.0, 20.0, 0.9)
             + lorentzian(x, 100.0, 20.0, 1.0))
        with pytest.raises(PeakError):
            rabi_splitting(Spectrum(x, y))


class TestSerialization:
    def test_round_trip(self, tmp_path, pc_cavity):
        spec = emission_spectrum(pc_cavity, grid=default_grid(pc_cavity, 512))
        path = tmp_path / "spec.txt"
        write_spectrum(spec, path, metadata={"detuning_ueV": "0"})
        back, meta = read_spectrum(path)
        assert meta["frame"] == "offset"
        assert meta["detuning_ueV"] == "0"
        assert np.allclose(back.omega, spec.omega, rtol=1e-12)
        assert np.allclose(back.intensity, spec.intensity, rtol=1e-10)

    def test_spectra_are_signals_the_fitters_take(self, tmp_path, pc_cavity):
        spec = emission_spectrum(pc_cavity)
        assert isinstance(spec, SampledSignal) and spec.domain == "spectral"
        assert spec.omega is spec.grid and spec.intensity is spec.values
        path = tmp_path / "spec.txt"
        write_spectrum(spec, path)
        back, _ = read_spectrum(path)
        assert isinstance(back, SampledSignal) and back.domain == "spectral"
        assert back.omega is back.grid and back.intensity is back.values
        init = seed_lorentzian_pair(back)
        fit = fit_lorentzian_pair(back, init)
        plain = SampledSignal(back.grid, back.values)
        assert init == seed_lorentzian_pair(plain)
        assert fit.to_dict() == fit_lorentzian_pair(plain, init).to_dict()

    def test_convolved_signal_writes_as_a_spectrum(self, tmp_path, pc_cavity):
        grid = default_grid(pc_cavity, 1024)
        spec = emission_spectrum(pc_cavity, grid=grid)
        irf = gaussian_irf(20.0, np.arange(-60, 61) * spec.step)
        sig = convolve(spec, irf)
        path = tmp_path / "spec.txt"
        write_spectrum(sig, path, metadata={"seed": "3"})
        back, meta = read_spectrum(path)
        assert meta == {"frame": "offset", "seed": "3"}
        assert back.grid.tolist() == [float(f"{x:.12g}") for x in sig.grid]
        assert back.values.tolist() == [float(f"{v:.12g}")
                                        for v in sig.values]

    def test_absolute_frame_rejected(self, tmp_path):
        # spectra hold offsets from the emitter energy; a file of absolute
        # photon energies must not be fit as if it held offsets
        path = tmp_path / "abs.txt"
        path.write_text("# cqed-lab spectrum v1\n# frame = absolute\n"
                        "# omega_qd_ueV = 1342000\n1342000 1\n1342001 2\n")
        with pytest.raises(GridError, match=re.escape(
                f"{path}: frame 'absolute' is not supported")):
            read_spectrum(path)

    @pytest.mark.parametrize("body, message", [
        ("# frame = offset\n0.0 1.0\n1.0\n", "malformed data line '1.0'"),
        ("# frame = offset\n0.0 1.0\n", "fewer than two samples"),
        ("0.0 1.0\nabc 2.0\n1.0 3.0\n", "malformed data line 'abc 2.0'"),
    ])
    def test_malformed_file_rejected(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(GridError, match=re.escape(f"{path}: {message}")):
            read_spectrum(path)

    def test_reader_matches_per_line_parse(self, tmp_path, pc_cavity):
        # reference: float() on the first two fields of each data line
        path = tmp_path / "spec.txt"
        write_spectrum(emission_spectrum(pc_cavity), path,
                       metadata={"seed": "3"})
        rows = [line.split() for line in path.read_text().splitlines()
                if not line.startswith("#")]
        spec, meta = read_spectrum(path)
        assert spec.omega.tolist() == [float(r[0]) for r in rows]
        assert spec.intensity.tolist() == [float(r[1]) for r in rows]
        assert meta == {"frame": "offset", "seed": "3"}

        path.write_text("# cqed-lab spectrum v1\n  # frame = offset\n\n"
                        "-1.5 0.25 9\n# note = a = b\n0 1e-300 # tail\n"
                        "# columns: omega_ueV intensity\n1.5 -2\n")
        spec, meta = read_spectrum(path)
        assert spec.omega.tolist() == [-1.5, 0.0, 1.5]
        assert spec.intensity.tolist() == [0.25, 1e-300, -2.0]
        assert meta == {"frame": "offset", "note": "a = b"}

        # CRLF line ends, and a '#' inside a header value; the metadata is
        # what the whole-text match of the "# key = value" pattern gives
        path.write_bytes(b"# cqed-lab spectrum v1\r\n# frame = offset\r\n"
                         b"# source = run#3\r\n-1 2\r\n0 3 # x = 1\r\n"
                         b"1 4\r\n")
        spec, meta = read_spectrum(path)
        assert spec.omega.tolist() == [-1.0, 0.0, 1.0]
        assert spec.intensity.tolist() == [2.0, 3.0, 4.0]
        assert meta == {"frame": "offset", "source": "run#3"}
        assert meta == {key.strip(): val.strip() for key, val
                        in _META.findall(path.read_text())}

    def test_interrupted_rewrite_keeps_the_old_file(self, tmp_path,
                                                    monkeypatch, pc_cavity):
        spec = emission_spectrum(pc_cavity, grid=default_grid(pc_cavity, 512))
        path = tmp_path / "spec.txt"
        write_spectrum(spec, path)
        old = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        spec = Spectrum(spec.grid, 2.0 * spec.values)
        with pytest.raises(OSError, match="interrupted"):
            write_spectrum(spec, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["spec.txt"]

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(GridError):
            Spectrum(np.array([0.0, 1.0, 3.0]), np.zeros(3))

    def test_writers_match_per_row_format(self, tmp_path, pc_cavity):
        # reference format: one f-string per row on numpy scalars
        def per_row(header, xs, ys):
            lines = header + [f"{x:.12g} {v:.12g}" for x, v in zip(xs, ys)]
            return "\n".join(lines) + "\n"

        spec = emission_spectrum(pc_cavity.with_(delta=50.0),
                                 grid=default_grid(pc_cavity, 4096))
        spec.intensity[::7] *= -1.0  # signs and tiny values format too
        spec.intensity[5] = 1e-300
        path = tmp_path / "spec.txt"
        write_spectrum(spec, path,
                       metadata={"seed": "3", "detuning_ueV": "50"})
        header = ["# cqed-lab spectrum v1", "# frame = offset",
                  "# detuning_ueV = 50",
                  "# seed = 3", "# columns: omega_ueV intensity"]
        assert path.read_bytes() == per_row(
            header, spec.omega, spec.intensity).encode()

        sig = SampledSignal(np.arange(-40, 3000) * 2e-3,
                            np.random.default_rng(1).poisson(50.0, 3040)
                            .astype(float), "temporal")
        path = tmp_path / "sig.txt"
        write_signal(sig, path, metadata={"seed": "3"})
        header = ["# cqed-lab signal v1", "# domain = temporal", "# seed = 3"]
        assert path.read_bytes() == per_row(
            header, sig.grid, sig.values).encode()

        # values where %.12g switches notation, rounds up a digit, or has
        # no digits at all, in both columns
        edge = np.array([-0.0, 1e-5, 9.99999999999e-5, 1e11, 1e12,
                         123456789012.5, 1e16, 5e-324, np.inf, -np.inf,
                         np.nan])
        _write_columns(path, ["# edge"], edge, edge[::-1])
        assert path.read_bytes() == per_row(["# edge"], edge,
                                            edge[::-1]).encode()

        # grids A, B, A of equal length: each file carries its own x column
        grid_a = np.arange(3040) * 2e-3
        for grid in (grid_a, grid_a + 0.5e-3, grid_a):
            sig = SampledSignal(grid, sig.values, "temporal")
            write_signal(sig, path)
            assert path.read_bytes() == per_row(
                ["# cqed-lab signal v1", "# domain = temporal"],
                grid, sig.values).encode()

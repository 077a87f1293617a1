import json
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

import cqed_lab.inference
from cqed_lab import (FitError, IrfKernel, LorentzianPairParams,
                      SampledSignal, SweepRecord, SystemParams,
                      classify_coupling, compare_coupling_estimates, convolve,
                      emission_spectrum, extract_sweep_record, fit_decay,
                      fit_jc_cavity_spectrum, fit_lorentzian_pair, gaussian_irf,
                      irf_fwhm_from_q, lorentzian, rabi_splitting,
                      seed_lorentzian_pair)

PC_FIXED = {"kappa": 195.0, "gamma": 0.2, "gamma_dp": 4.0, "delta": 0.0}


def delayed(sig, irf, steps):
    """``sig`` and ``irf`` with both grids moved ``steps`` samples later: the
    same measurement, with the kernel recorded late on its own grid."""
    late = IrfKernel(irf.grid + steps * irf.step, irf.values, irf.domain)
    assert late.grid[0] > late.grid[-1] - late.grid[0]  # past its own length
    return (SampledSignal(sig.grid + steps * sig.step, sig.values, sig.domain),
            late)


def pair_signal(x, init: LorentzianPairParams, baseline=0.0):
    y = baseline + sum(lorentzian(x, c, w, h) for c, w, h
                       in zip(init.centers, init.fwhms, init.heights))
    return SampledSignal(x, y, "spectral")


def make_decay(rates, amplitudes, baseline=0.0, t_max=12.0, dt=0.004,
               irf_fwhm=0.05, peak=1e4, rng=None):
    t = np.arange(-1.0, t_max, dt)
    y = np.full(t.size, baseline)
    on = t >= 0.0
    for r, a in zip(rates, amplitudes):
        y[on] += a * np.exp(-r * t[on])
    sig = SampledSignal(t, y, "temporal")
    irf = None
    if irf_fwhm:
        half = int(math.ceil(4 * irf_fwhm / dt))
        irf = gaussian_irf(irf_fwhm, np.arange(-half, half + 1) * dt,
                           "temporal")
        sig = SampledSignal(t, np.maximum(
            __import__("cqed_lab").convolve(sig, irf).values, 0.0), "temporal")
    scale = peak / sig.values.max()
    counts = sig.values * scale
    if rng is not None:
        counts = rng.poisson(counts).astype(float)
    return SampledSignal(t, counts, "temporal"), irf, scale


class TestFitLorentzianPair:
    x = np.linspace(-400.0, 400.0, 1601)

    def test_noiseless_recovery(self):
        truth = LorentzianPairParams(centers=(-57.0, 57.0), fwhms=(60.0, 65.0),
                                     heights=(1.0, 0.9))
        init = LorentzianPairParams(centers=(-40.0, 70.0), fwhms=(50.0, 50.0),
                                    heights=(0.8, 0.8))
        fit = fit_lorentzian_pair(pair_signal(self.x, truth), init)
        assert fit.converged
        est = fit.estimates
        for got, want in [(est["center_1"], -57.0), (est["fwhm_1"], 60.0),
                          (est["height_1"], 1.0), (est["center_2"], 57.0),
                          (est["fwhm_2"], 65.0), (est["height_2"], 0.9)]:
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_monte_carlo_bias(self):
        truth = LorentzianPairParams(centers=(-57.0, 57.0), fwhms=(60.0, 65.0),
                                     heights=(1.0, 0.9))
        sig = pair_signal(self.x, truth)
        init = LorentzianPairParams(centers=(-50.0, 50.0), fwhms=(55.0, 55.0),
                                    heights=(0.9, 0.9))
        rng = np.random.default_rng(2024)
        sums = np.zeros(6)
        n = 200
        for _ in range(n):
            noisy = SampledSignal(
                self.x, sig.values + rng.normal(0.0, 0.01, self.x.size),
                "spectral")
            fit = fit_lorentzian_pair(noisy, init)
            est = fit.estimates
            key = sorted([(est["center_1"], est["fwhm_1"]),
                          (est["center_2"], est["fwhm_2"])])
            sums += [key[0][0], key[0][1], key[1][0], key[1][1],
                     min(est["height_1"], est["height_2"]),
                     max(est["height_1"], est["height_2"])]
        mean = sums / n
        assert abs(mean[0] - (-57.0)) < 0.5
        assert abs(mean[2] - 57.0) < 0.5
        assert abs(mean[1] - 60.0) < 0.02 * 60.0
        assert abs(mean[3] - 65.0) < 0.02 * 65.0

    def test_single_peak_data_flagged(self):
        single = SampledSignal(self.x, lorentzian(self.x, 0.0, 60.0, 1.0),
                               "spectral")
        init = LorentzianPairParams(centers=(-20.0, 20.0), fwhms=(50.0, 50.0),
                                    heights=(0.6, 0.6))
        fit = fit_lorentzian_pair(single, init)
        assert ("merged-centers" in fit.messages
                or "singular-curvature" in fit.messages)

    def test_line_driven_to_zero_height_flagged(self):
        y = (lorentzian(self.x, 0.0, 40.0, 1.0) + 0.05
             + np.random.default_rng(1).normal(0.0, 0.01, self.x.size))
        init = LorentzianPairParams(centers=(5.0, -250.0), fwhms=(30.0, 30.0),
                                    heights=(0.8, 0.3))
        fit = fit_lorentzian_pair(SampledSignal(self.x, y, "spectral"), init)
        assert fit.estimates["height_2"] == 0.0
        assert "vanished-line" in fit.messages
        record = extract_sweep_record(fit, 930.0)
        assert 0.0 in (record.rel_area_qd, record.rel_area_ca)

    def test_permutation_invariance(self):
        truth = LorentzianPairParams(centers=(-57.0, 57.0), fwhms=(60.0, 65.0),
                                     heights=(1.0, 0.9))
        sig = pair_signal(self.x, truth)
        init_a = LorentzianPairParams(centers=(-50.0, 60.0),
                                      fwhms=(50.0, 60.0), heights=(1.0, 1.0))
        init_b = LorentzianPairParams(centers=(60.0, -50.0),
                                      fwhms=(60.0, 50.0), heights=(1.0, 1.0))
        fa = fit_lorentzian_pair(sig, init_a)
        fb = fit_lorentzian_pair(sig, init_b)

        def canon(fit):
            est = fit.estimates
            return sorted([(est["center_1"], est["fwhm_1"], est["height_1"]),
                           (est["center_2"], est["fwhm_2"], est["height_2"])])

        for pa, pb in zip(canon(fa), canon(fb)):
            assert pa == pytest.approx(pb, rel=1e-6, abs=1e-8)

    def test_irf_awareness(self):
        truth = LorentzianPairParams(centers=(-80.0, 80.0), fwhms=(40.0, 40.0),
                                     heights=(1.0, 1.0))
        step = self.x[1] - self.x[0]
        irf = gaussian_irf(30.0, np.arange(-120, 121) * step)
        from cqed_lab import convolve
        blurred = convolve(pair_signal(self.x, truth), irf)
        init = LorentzianPairParams(centers=(-80.0, 80.0), fwhms=(45.0, 45.0),
                                    heights=(0.9, 0.9))
        blind = fit_lorentzian_pair(blurred, init)
        aware = fit_lorentzian_pair(blurred, init, irf=irf)
        # small residue from edge handling: the data came from a grid-bound
        # convolution while the model extends the tails
        assert blind.estimates["fwhm_1"] > 1.1 * 40.0
        assert aware.estimates["fwhm_1"] == pytest.approx(40.0, rel=1e-3)
        assert aware.estimates["fwhm_2"] == pytest.approx(40.0, rel=1e-3)

    def test_kernel_delayed_past_its_length(self):
        truth = LorentzianPairParams(centers=(-80.0, 80.0), fwhms=(40.0, 40.0),
                                     heights=(1.0, 1.0))
        step = self.x[1] - self.x[0]
        irf = gaussian_irf(30.0, np.arange(-120, 121) * step)
        blurred = convolve(pair_signal(self.x, truth), irf)
        init = LorentzianPairParams(centers=(-80.0, 80.0), fwhms=(45.0, 45.0),
                                    heights=(0.9, 0.9))
        fit = fit_lorentzian_pair(blurred, init, irf=irf)
        late_sig, late_irf = delayed(blurred, irf, 400)
        late = fit_lorentzian_pair(late_sig, init, irf=late_irf)
        for name, value in fit.estimates.items():
            assert late.estimates[name] == pytest.approx(value, rel=1e-6,
                                                         abs=1e-9)

    def test_seeding_recovers_broad_plus_narrow(self):
        truth = LorentzianPairParams(centers=(-150.0, 0.0),
                                     fwhms=(195.0, 10.0), heights=(0.3, 1.0))
        sig = pair_signal(self.x, truth)
        init = seed_lorentzian_pair(sig)
        fit = fit_lorentzian_pair(sig, init)
        got = sorted([fit.estimates["center_1"], fit.estimates["center_2"]])
        assert got[0] == pytest.approx(-150.0, abs=0.5)
        assert got[1] == pytest.approx(0.0, abs=0.5)


def measured_spectrum(params, x, rng, peak=1e4):
    """Cavity spectrum through a Q=40,000 spectrometer at 930 nm, in counts."""
    irf_fwhm = irf_fwhm_from_q(930.0, 40000.0)
    step = x[1] - x[0]
    half = int(math.ceil(4.0 * irf_fwhm / step))
    irf = gaussian_irf(irf_fwhm, np.arange(-half, half + 1) * step)
    clean = SampledSignal(x, emission_spectrum(params, grid=x).intensity)
    blurred = convolve(clean, irf).values
    counts = rng.poisson(np.clip(blurred * peak / blurred.max(), 0.0, None))
    return SampledSignal(x, counts.astype(float))


class TestSeedOnMeasuredSweeps:
    """Pair seeds on IRF-blurred, Poisson-noised paper-system spectra."""

    x = np.linspace(-1500.0, 1500.0, 1501)

    def sweep_records(self, params, deltas, seed):
        rng = np.random.default_rng(seed)
        records = []
        for d in deltas:
            sig = measured_spectrum(params.with_(delta=d), self.x, rng)
            fit = fit_lorentzian_pair(sig, seed_lorentzian_pair(sig))
            records.append(extract_sweep_record(fit, 930.0, detuning=d))
        return records

    @pytest.mark.parametrize("delta", [-600.0, -500.0, -350.0,
                                       350.0, 500.0, 600.0])
    def test_far_detuned_pc_seeds_both_lines(self, pc_cavity, delta):
        rng = np.random.default_rng(2024)
        sig = measured_spectrum(pc_cavity.with_(delta=delta), self.x, rng)
        init = seed_lorentzian_pair(sig)
        assert abs(init.centers[1] - init.centers[0]) > init.fwhms[0]
        fit = fit_lorentzian_pair(sig, init)
        assert fit.converged
        centers = sorted([fit.estimates["center_1"],
                          fit.estimates["center_2"]], key=lambda c: abs(c))
        assert centers[0] == pytest.approx(0.0, abs=0.1 * abs(delta))
        assert centers[1] == pytest.approx(-delta, abs=0.1 * abs(delta))

    def test_pc_sweep_anticrosses(self, pc_cavity):
        records = self.sweep_records(
            pc_cavity, [-600.0, -500.0, -350.0, 0.0, 350.0, 500.0, 600.0], 7)
        assert classify_coupling(records).label == "anti_crossing"

    def test_mp_sweep_crosses(self, micropillar):
        records = self.sweep_records(
            micropillar, [-300.0, -150.0, -50.0, 0.0, 50.0, 150.0, 300.0], 7)
        assert classify_coupling(records).label == "crossing"


class TestExtractSweepRecord:
    def fit_of(self, truth):
        x = np.linspace(-400.0, 400.0, 1601)
        return fit_lorentzian_pair(pair_signal(x, truth), truth)

    def test_equal_peaks_split_area(self):
        truth = LorentzianPairParams(centers=(-57.0, 57.0), fwhms=(60.0, 60.0),
                                     heights=(1.0, 1.0))
        rec = extract_sweep_record(self.fit_of(truth), 952.0, detuning=0.0)
        assert rec.rel_area_qd == pytest.approx(0.5, abs=1e-9)
        assert rec.rel_area_ca == pytest.approx(0.5, abs=1e-9)

    def test_q_factor_from_width(self):
        # a 195-ueV-wide line at 952 nm carries Q = 6690
        photon = 1.23984198e9 / 952.0
        width = photon / 6690.0
        truth = LorentzianPairParams(centers=(-80.0, 80.0),
                                     fwhms=(width, 20.0), heights=(1.0, 0.6))
        rec = extract_sweep_record(self.fit_of(truth), 952.0)
        assert rec.q_ca == pytest.approx(6690.0, rel=1e-6)
        assert rec.fwhm_ca == pytest.approx(width, rel=1e-6)

    def test_height_ratio_sets_areas(self):
        truth = LorentzianPairParams(centers=(-60.0, 60.0), fwhms=(50.0, 50.0),
                                     heights=(2.0, 1.0))
        rec = extract_sweep_record(self.fit_of(truth), 952.0)
        areas = sorted([rec.rel_area_qd, rec.rel_area_ca])
        assert areas == pytest.approx([1.0 / 3.0, 2.0 / 3.0], rel=1e-9)

    def test_unconverged_rejected(self):
        from cqed_lab import FitResult
        bad = FitResult(estimates={}, errors={}, residual_sum=0.0,
                        iterations=1, converged=False)
        with pytest.raises(FitError):
            extract_sweep_record(bad, 952.0)


class TestFitDecay:
    def test_noiseless_single_rate_through_irf(self):
        curve, irf, _ = make_decay([0.39], [1.0], t_max=30.0, dt=0.01)
        fit = fit_decay(curve, irf=irf, mode="single")
        assert fit.estimates["rate_1"] == pytest.approx(0.39, rel=0.005)

    def test_biexponential_fast_rate(self):
        rng = np.random.default_rng(99)
        curve, irf, _ = make_decay([18.5, 0.39], [10.0, 1.0], t_max=12.0,
                                   rng=rng)
        fit = fit_decay(curve, irf=irf, mode="bi")
        assert fit.estimates["rate_1"] == pytest.approx(18.5, rel=0.02)
        assert fit.estimates["rate_2"] == pytest.approx(0.39, rel=0.05)

    def test_rates_sorted_descending(self):
        curve, irf, _ = make_decay([18.5, 0.39], [10.0, 1.0])
        fit = fit_decay(curve, irf=irf, mode="bi")
        assert fit.estimates["rate_1"] > fit.estimates["rate_2"]

    def test_kernel_delayed_past_its_length(self):
        curve, irf, _ = make_decay([2.0], [1.0], t_max=10.0)
        rate = fit_decay(curve, irf=irf, mode="single").estimates["rate_1"]
        late_curve, late = delayed(curve, irf, 250)
        late_fit = fit_decay(late_curve, irf=late, mode="single")
        assert late_fit.estimates["rate_1"] == pytest.approx(rate, rel=1e-6)

    def test_flat_input_errors(self):
        t = np.arange(-1.0, 10.0, 0.01)
        flat = SampledSignal(t, np.full(t.size, 100.0), "temporal")
        with pytest.raises(FitError):
            fit_decay(flat, mode="single")

    def test_rate_collapse_flagged(self):
        curve, irf, _ = make_decay([5.0], [10.0], t_max=8.0)
        fit = fit_decay(curve, irf=irf, mode="bi")
        assert "rate-collapse" in fit.messages
        assert "rate_2" not in fit.estimates
        assert fit.estimates["rate_1"] == pytest.approx(5.0, rel=0.01)

    def test_multi_mode_selects_order_by_f_test(self):
        rng = np.random.default_rng(17)
        single, irf, _ = make_decay([2.0], [5.0], t_max=15.0, rng=rng)
        fit1 = fit_decay(single, irf=irf, mode="multi")
        assert "rate_2" not in fit1.estimates

        two, irf2, _ = make_decay([10.0, 0.5], [5.0, 2.0], t_max=25.0,
                                  dt=0.01, rng=rng)
        fit2 = fit_decay(two, irf=irf2, mode="multi")
        assert "rate_2" in fit2.estimates
        assert fit2.estimates["rate_1"] == pytest.approx(10.0, rel=0.05)

    def test_unconverged_trial_never_selected(self, monkeypatch):
        # marked as stopped at the evaluation limit, a trial that wins the
        # F-test when it converges must not enter the test
        rng = np.random.default_rng(17)
        two, irf, _ = make_decay([10.0, 0.5], [5.0, 2.0], t_max=25.0,
                                 dt=0.01, rng=rng)
        assert "rate_2" in fit_decay(two, irf=irf, mode="multi").estimates
        order_fit = cqed_lab.inference._fit_decay_order

        def capped(curve, irf, n_comp):
            res = order_fit(curve, irf, n_comp)
            if n_comp > 1:
                res.status = 0
            return res

        monkeypatch.setattr(cqed_lab.inference, "_fit_decay_order", capped)
        fit = fit_decay(two, irf=irf, mode="multi")
        assert fit.converged
        assert "rate_2" not in fit.estimates

    def test_f_test_tail_matches_scipy(self):
        from scipy.special import fdtrc
        for dof in (5, 17, 120, 1000, 4000):
            for fstat in np.logspace(-4.0, 3.0, 36):
                assert cqed_lab.inference._f_tail_2(dof, fstat) == \
                    pytest.approx(fdtrc(2, dof, fstat), rel=1e-12, abs=0.0)

    def test_poisson_weighting_present(self):
        # biased weights would shift the baseline estimate visibly
        rng = np.random.default_rng(31)
        curve, irf, scale = make_decay([1.0], [10.0], baseline=0.05,
                                       t_max=30.0, dt=0.01, rng=rng)
        fit = fit_decay(curve, irf=irf, mode="single")
        assert fit.estimates["baseline"] == pytest.approx(0.05 * scale,
                                                          rel=0.05)


class TestFitJcCavitySpectrum:
    grid = np.linspace(-900.0, 900.0, 1801)

    def synth(self, g, amp=1.0):
        params = SystemParams(g=g, kappa=PC_FIXED["kappa"],
                              gamma=PC_FIXED["gamma"],
                              gamma_dp=PC_FIXED["gamma_dp"])
        spec = emission_spectrum(params, grid=self.grid)
        return SampledSignal(self.grid, amp * spec.intensity, "spectral")

    def test_self_consistent_recovery(self):
        sig = self.synth(92.4, amp=3.7)
        fit = fit_jc_cavity_spectrum(sig, PC_FIXED, init_g=60.0)
        assert fit.estimates["g"] == pytest.approx(92.4, rel=0.01)
        assert fit.estimates["amplitude"] == pytest.approx(3.7, rel=0.01)

    def test_bare_cavity_consistent_with_zero(self):
        # the cavity-detected spectrum of an excited emitter is dark at g=0
        # and carries the emitter width at small g, so no g reproduces a
        # bare cavity line: the fit must not pass it off as a coupling
        rng = np.random.default_rng(8)
        bare = lorentzian(self.grid, 0.0, PC_FIXED["kappa"], 1.0)
        noisy = SampledSignal(self.grid,
                              bare + rng.normal(0.0, 0.005, self.grid.size),
                              "spectral")
        fit = fit_jc_cavity_spectrum(noisy, PC_FIXED, init_g=5.0)
        assert "model-mismatch" in fit.messages

    def test_model_plus_noise_not_flagged(self):
        rng = np.random.default_rng(8)
        line = self.synth(92.4).values
        noisy = SampledSignal(self.grid, line / line.max()
                              + rng.normal(0.0, 0.005, self.grid.size),
                              "spectral")
        fit = fit_jc_cavity_spectrum(noisy, PC_FIXED, init_g=5.0)
        assert "model-mismatch" not in fit.messages
        assert fit.estimates["g"] == pytest.approx(92.4, rel=0.01)

    def test_splitting_114_maps_to_quoted_g(self):
        def splitting_minus_target(g):
            params = SystemParams(g=g, kappa=195.0, gamma=0.2, gamma_dp=4.0)
            return rabi_splitting(emission_spectrum(params)) - 114.0

        # the doublet is resolved (two maxima) only above g ~ 80
        g114 = brentq(splitting_minus_target, 85.0, 120.0, xtol=1e-4)
        sig = self.synth(g114)
        fit = fit_jc_cavity_spectrum(sig, PC_FIXED, init_g=50.0)
        assert fit.estimates["g"] == pytest.approx(g114, rel=0.01)
        assert fit.estimates["g"] == pytest.approx(92.4, rel=0.10)


class TestClassifyCoupling:
    @staticmethod
    def coupled_mode_records(g, kappa, deltas):
        # eigenvalues of the two-mode matrix: textbook branch energies
        records = []
        for d in deltas:
            h11 = d / 2.0 + 0.0j
            h22 = -d / 2.0 - 0.5j * kappa
            s = math.sqrt(abs((h11 - h22) ** 2 / 4.0 + g * g))
            avg = (h11 + h22) / 2.0
            root = np.sqrt((h11 - h22) ** 2 / 4.0 + g * g + 0j)
            e1, e2 = avg + root, avg - root
            records.append(SweepRecord(
                detuning=d, energy_qd=e1.real, energy_ca=e2.real,
                fwhm_qd=-2 * e1.imag if e1.imag < 0 else 5.0,
                fwhm_ca=max(-2 * e2.imag, kappa / 2), q_qd=1e4, q_ca=1e4,
                rel_area_qd=0.5, rel_area_ca=0.5))
        return records

    def test_strong_coupling_branches_anticross(self):
        recs = self.coupled_mode_records(92.4, 195.0,
                                         np.linspace(-300.0, 300.0, 11))
        out = classify_coupling(recs)
        assert out.label == "anti_crossing"
        assert out.min_separation > out.threshold

    def test_independent_lines_cross(self):
        records = [SweepRecord(detuning=d, energy_qd=0.0, energy_ca=-d,
                               fwhm_qd=10.0, fwhm_ca=110.0, q_qd=1e5,
                               q_ca=1e4, rel_area_qd=0.4, rel_area_ca=0.6)
                   for d in np.linspace(-200.0, 200.0, 9)]
        out = classify_coupling(records)
        assert out.label == "crossing"
        assert out.min_separation < 1e-9

    def test_insufficient_coverage_rejected(self):
        recs = self.coupled_mode_records(50.0, 100.0, [10.0, 20.0, 30.0,
                                                       40.0, 50.0])
        with pytest.raises(ValueError):
            classify_coupling(recs)
        with pytest.raises(ValueError):
            classify_coupling(recs[:3])

    def test_unknown_detunings_do_not_cover_both_signs(self):
        # fit-spectra gives a file without a detuning NaN, which compares
        # false against zero either way
        recs = self.coupled_mode_records(92.4, 195.0,
                                         np.linspace(-300.0, 300.0, 6))
        for r in recs:
            r.detuning = math.nan
        with pytest.raises(ValueError, match="both detuning signs"):
            classify_coupling(recs)
        recs = self.coupled_mode_records(50.0, 100.0,
                                         [math.nan, 10.0, 20.0, 30.0, 40.0])
        with pytest.raises(ValueError, match="both detuning signs"):
            classify_coupling(recs)

    def test_label_invariant_under_energy_offset(self):
        recs = self.coupled_mode_records(92.4, 195.0,
                                         np.linspace(-300.0, 300.0, 11))
        shifted = [SweepRecord(
            detuning=r.detuning, energy_qd=r.energy_qd + 1.342e6,
            energy_ca=r.energy_ca + 1.342e6, fwhm_qd=r.fwhm_qd,
            fwhm_ca=r.fwhm_ca, q_qd=r.q_qd, q_ca=r.q_ca,
            rel_area_qd=r.rel_area_qd, rel_area_ca=r.rel_area_ca)
            for r in recs]
        a = classify_coupling(recs)
        b = classify_coupling(shifted)
        assert a.label == b.label
        assert a.min_separation == pytest.approx(b.min_separation, rel=1e-9)

    def test_zero_area_cavity_line_left_out_of_threshold(self):
        # a PC-like anti-crossing, 114.1 ueV apart at resonance, whose fit at
        # delta = -600 drove the cavity line to zero height and 700 ueV
        records = [SweepRecord(
            detuning=d, energy_qd=math.hypot(d / 2.0, 57.05),
            energy_ca=-math.hypot(d / 2.0, 57.05), fwhm_qd=10.0,
            fwhm_ca=195.0, q_qd=1e5, q_ca=7e3, rel_area_qd=0.5,
            rel_area_ca=0.5) for d in np.linspace(-600.0, 600.0, 7)]
        records[0].fwhm_ca, records[0].rel_area_qd = 700.0, 1.0
        records[0].rel_area_ca = 0.0
        out = classify_coupling(records)
        assert out.threshold == pytest.approx(97.5)
        assert out.label == "anti_crossing"
        for r in records:
            r.rel_area_ca = 0.0
        with pytest.raises(ValueError, match="zero area"):
            classify_coupling(records)


class TestCompareCouplingEstimates:
    def test_paper_values(self):
        cmp_ = compare_coupling_estimates(92.4, 22.0, 195.0, 0.2, 4.0)
        assert cmp_.ratio == pytest.approx(4.2, abs=0.01)
        assert cmp_.threshold == pytest.approx(46.7, abs=0.06)
        assert cmp_.spectral_verdict == "strong"
        assert cmp_.dynamical_verdict == "weak"

    def test_identity_ratio(self):
        cmp_ = compare_coupling_estimates(40.0, 40.0, 195.0, 0.2, 4.0)
        assert cmp_.ratio == 1.0
        assert cmp_.spectral_verdict == cmp_.dynamical_verdict

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            compare_coupling_estimates(0.0, 10.0, 100.0, 1.0, 1.0)


class TestFitResultRecord:
    def test_dict_round_trip(self):
        curve, irf, _ = make_decay([2.0], [5.0], t_max=15.0)
        fit = fit_decay(curve, irf=irf, mode="single")
        d = fit.to_dict()
        assert d["estimates"]["rate_1"] == fit.estimates["rate_1"]
        assert d["converged"] is True
        assert json.loads(json.dumps(d)) == d


def test_fitters_call_the_module_level_solver(monkeypatch):
    # the benchmark counts solver work by wrapping inference.least_squares;
    # each fitter must reach the solver through that module global
    x = TestFitLorentzianPair.x
    truth = LorentzianPairParams(centers=(-80.0, 80.0), fwhms=(40.0, 40.0),
                                 heights=(1.0, 1.0))
    irf = gaussian_irf(30.0, np.arange(-120, 121) * (x[1] - x[0]))
    blurred = convolve(pair_signal(x, truth), irf)
    init = LorentzianPairParams(centers=(-70.0, 90.0), fwhms=(45.0, 45.0),
                                heights=(0.9, 0.9))
    curve, decay_irf, _ = make_decay([10.0, 0.5], [5.0, 2.0], t_max=25.0,
                                     dt=0.01, rng=np.random.default_rng(17))
    jc = TestFitJcCavitySpectrum().synth(92.4, amp=3.7)
    fits = {
        "pair": lambda: fit_lorentzian_pair(blurred, init, irf=irf),
        "decay": lambda: fit_decay(curve, irf=decay_irf, mode="multi"),
        "jc": lambda: fit_jc_cavity_spectrum(jc, PC_FIXED, init_g=60.0),
    }
    plain = {name: fit().to_dict() for name, fit in fits.items()}
    solve = cqed_lab.inference.least_squares
    for name, fit in fits.items():
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cqed_lab.inference, "least_squares", counting)
        assert fit().to_dict() == plain[name]
        assert calls, name


def scipy_least_squares(*args, **kwargs):
    """scipy's trust-region solver, called as the package calls its own."""
    from scipy.optimize import least_squares
    return least_squares(*args, method="trf", **kwargs)


def noisy_pair(irf=None):
    x = TestFitLorentzianPair.x
    truth = LorentzianPairParams(centers=(-60.0, 45.0), fwhms=(30.0, 80.0),
                                 heights=(1.0, 0.6))
    sig = pair_signal(x, truth, baseline=0.05)
    if irf is not None:
        sig = convolve(sig, irf)
    noise = np.random.default_rng(5).normal(0.0, 0.01, x.size)
    return SampledSignal(x, sig.values + noise, "spectral")


def fit_noisy_pair(with_irf):
    irf = None
    if with_irf:
        x = TestFitLorentzianPair.x
        irf = gaussian_irf(20.0, np.arange(-120, 121) * (x[1] - x[0]))
    spec = noisy_pair(irf)
    return fit_lorentzian_pair(spec, seed_lorentzian_pair(spec), irf=irf)


def fit_noisy_jc():
    grid = TestFitJcCavitySpectrum.grid
    line = TestFitJcCavitySpectrum().synth(92.4).values
    noise = np.random.default_rng(8).normal(0.0, 0.005, grid.size)
    spec = SampledSignal(grid, line / line.max() + noise, "spectral")
    return fit_jc_cavity_spectrum(spec, PC_FIXED, init_g=60.0)


def fit_near_merged_pair():
    # two lines 17 ueV apart, closer than one cavity FWHM, as the MP pair at
    # resonance, with Poisson noise at 1e4 peak counts: the case whose
    # Jacobian columns are closest to dependent
    x = np.linspace(-500.0, 500.0, 2001)
    truth = LorentzianPairParams(centers=(-8.5, 8.5), fwhms=(30.0, 110.0),
                                 heights=(0.6, 0.4))
    line = pair_signal(x, truth, baseline=0.01).values
    counts = np.random.default_rng(11).poisson(1e4 * line / line.max())
    spec = SampledSignal(x, counts.astype(float), "spectral")
    return fit_lorentzian_pair(spec, seed_lorentzian_pair(spec))


def fit_noisy_multi():
    curve, irf, _ = make_decay([10.0, 0.5], [5.0, 2.0], t_max=25.0, dt=0.01,
                               rng=np.random.default_rng(17))
    return fit_decay(curve, irf=irf, mode="multi")


class TestLeastSquares:
    @pytest.mark.parametrize("fit", [
        lambda: fit_noisy_pair(with_irf=False),
        lambda: fit_noisy_pair(with_irf=True),
        fit_near_merged_pair,
        fit_noisy_jc,
        fit_noisy_multi,
    ], ids=["pair", "pair-irf", "near-merged-pair", "jc", "multi"])
    def test_estimates_match_scipy(self, monkeypatch, fit):
        ours = fit()
        monkeypatch.setattr(cqed_lab.inference, "least_squares",
                            scipy_least_squares)
        reference = fit()
        assert ours.converged and reference.converged
        assert list(ours.estimates) == list(reference.estimates)
        for name, value in ours.estimates.items():
            assert abs(value - reference.estimates[name]) \
                <= 0.1 * reference.errors[name], name

    def test_amplitude_driven_onto_zero_bound(self):
        # the second component of a bi-exponential fit to one exponential
        # wants a negative amplitude: it is held exactly on its bound
        curve, irf, _ = make_decay([2.0], [5.0], baseline=0.01, t_max=15.0,
                                   rng=np.random.default_rng(3))
        res = cqed_lab.inference._fit_decay_order(curve, irf, 2)
        amplitudes = res.x[1:4:2]
        assert 0.0 in amplitudes
        assert list(res.active_mask[1:4:2][amplitudes == 0.0]) == [-1]
        assert res.active_mask[-1] == 0  # the baseline has no bound
        fit = fit_decay(curve, irf=irf, mode="bi")
        assert "rate-collapse" in fit.messages
        assert "rate_2" not in fit.estimates

    def test_evaluation_limit_sets_status_zero(self, monkeypatch):
        spec = noisy_pair()
        init = seed_lorentzian_pair(spec)
        res = cqed_lab.inference.least_squares(
            lambda p: lorentzian(spec.grid, *p) - spec.values,
            init.centers[:1] + init.fwhms[:1] + init.heights[:1],
            lambda p: cqed_lab.inference._lorentzians(
                spec.grid, [*p, 0.0], jac=True)[1][:, :3],
            max_nfev=3)
        assert res.status == 0 and res.nfev == 3
        monkeypatch.setattr(cqed_lab.inference, "_MAX_NFEV", 3)
        with pytest.raises(FitError):
            fit_lorentzian_pair(spec, init)

    def test_zero_jacobian_column_takes_zero_step(self):
        # the second line has zero height, so its center and width columns
        # of the Jacobian are exactly zero: both stay where they started
        spec = noisy_pair()
        x = spec.grid
        start = [-55.0, 35.0, 0.9, 120.0, 50.0, 0.0]

        def model(p, jac=False):
            return cqed_lab.inference._lorentzians(
                x, [*p[:5], 0.0, p[5]], jac)

        res = cqed_lab.inference.least_squares(
            lambda p: model(p) - spec.values, start,
            jac=lambda p: np.delete(model(p, jac=True)[1], 5, axis=1))
        assert res.status > 0
        assert not res.jac[:, 3:5].any()
        assert list(res.x[3:5]) == start[3:5]
        # the live parameters land where a fit without the dead ones does
        live = [0, 1, 2, 5]
        alone = cqed_lab.inference.least_squares(
            lambda p: model([*p[:3], 0.0, 1.0, p[3]]) - spec.values,
            [start[i] for i in live],
            jac=lambda p: model([*p[:3], 0.0, 1.0, p[3]], jac=True)[1][
                :, [0, 1, 2, 6]])
        assert res.x[live] == pytest.approx(alone.x, rel=1e-6)

    @pytest.mark.parametrize("where", ["residual", "jacobian"])
    def test_non_finite_values_raise_fit_error(self, capfd, where):
        spec = noisy_pair()
        x = spec.grid
        start = [-55.0, 35.0, 0.9]
        nfev = []

        def residual(p):
            nfev.append(1)
            r = lorentzian(x, *p) - spec.values
            if where == "residual":
                r[100] = np.nan
            return r

        njev = []

        def jacobian(p):
            njev.append(1)
            j = cqed_lab.inference._lorentzians(x, [*p, 0.0], jac=True)[1]
            if where == "jacobian" and len(njev) > 1:  # after one step
                j[:, 1] = np.nan
            return j[:, :3]

        with pytest.raises(FitError, match=re.escape(f"started at {start}")):
            cqed_lab.inference.least_squares(residual, start, jac=jacobian)
        # raised at once, not after running to the evaluation limit
        assert len(nfev) <= (1 if where == "residual" else 10)
        assert capfd.readouterr().err == ""


class TestFusedEvaluation:
    @pytest.mark.parametrize("fit", [
        lambda: fit_noisy_pair(with_irf=False),
        lambda: fit_noisy_pair(with_irf=True),
        fit_noisy_multi,
        fit_noisy_jc,
    ], ids=["pair", "pair-irf", "multi", "jc"])
    def test_one_model_call_per_evaluation(self, monkeypatch, fit):
        solve = cqed_lab.inference._solve
        counts = []

        def counting_solve(model, *args, **kwargs):
            calls = []

            def counted(*a, **k):
                calls.append(k.get("jac", False))
                return model(*a, **k)

            res = solve(counted, *args, **kwargs)
            counts.append((len(calls), res.nfev))
            assert all(calls)  # each call returns values and Jacobian
            return res

        monkeypatch.setattr(cqed_lab.inference, "_solve", counting_solve)
        assert fit().converged
        assert counts
        for calls, nfev in counts:
            assert calls == nfev

    def test_jacobian_away_from_the_last_point_is_evaluated_afresh(self):
        x = TestFitLorentzianPair.x
        irf = gaussian_irf(20.0, np.arange(-120, 121) * (x[1] - x[0]))
        spec = noisy_pair(irf)
        (left, right), conv = cqed_lab.inference._aligned_convolution(
            spec, irf)
        h = spec.step
        xe = np.concatenate([x[0] - h * np.arange(left, 0, -1), x,
                             x[-1] + h * np.arange(1, right + 1)])
        sigma = np.linspace(0.5, 2.0, x.size)

        def model(p):
            return cqed_lab.inference._lorentzians(xe, p, jac=True)

        residual, jacobian = cqed_lab.inference._residual_and_jacobian(
            model, spec.values, conv, sigma)
        p1 = np.array([-60.0, 30.0, 1.0, 45.0, 80.0, 0.6, 0.05])
        p2 = p1 + [3.0, -2.0, 0.1, -4.0, 5.0, -0.05, 0.01]
        expected = conv(model(p1)[1]) / sigma[:, None]
        residual(p1)
        assert np.array_equal(jacobian(p1), expected)
        residual(p2)
        assert np.array_equal(jacobian(p1), expected)
        assert np.array_equal(jacobian(p2), conv(model(p2)[1])
                              / sigma[:, None])


def central_differences(fun, p, rel=1e-5):
    """Columns d fun / d p_k by central differences, steps
    rel max(|p_k|, 1)."""
    p = np.asarray(p, dtype=float)
    cols = []
    for k in range(p.size):
        step = rel * max(abs(p[k]), 1.0)
        hi, lo = p.copy(), p.copy()
        hi[k] += step
        lo[k] -= step
        cols.append((fun(hi) - fun(lo)) / (2.0 * step))
    return np.column_stack(cols)


def assert_jacobian_matches(analytic, numeric, rel=1e-6):
    """Each column within ``rel`` of its largest entry; a column that is
    zero (a component held at zero amplitude) must be zero in both."""
    assert analytic.shape == numeric.shape and analytic.any()
    for k in range(analytic.shape[1]):
        scale = np.abs(analytic[:, k]).max()
        assert np.abs(analytic[:, k] - numeric[:, k]).max() <= rel * scale, k


class TestAnalyticJacobians:
    def test_lorentzian_pair_with_baseline(self):
        x = np.linspace(-400.0, 400.0, 1601)
        p = [-60.0, 30.0, 1.0, 45.0, 80.0, 0.6, 0.05]
        values, jac = cqed_lab.inference._lorentzians(x, p, jac=True)
        assert jac.T.flags.c_contiguous  # parameter-major
        assert np.array_equal(values, cqed_lab.inference._lorentzians(x, p))
        assert_jacobian_matches(jac, central_differences(
            lambda q: cqed_lab.inference._lorentzians(x, q), p))

    def test_three_component_decay_with_lead_in(self):
        t = np.arange(-0.5, 6.0, 0.01)
        p = [12.0, 3.0, 1.5, 2.0, 0.3, 0.5, 0.02]
        values, jac = cqed_lab.inference._decay_model(t, p, jac=True)
        assert jac.T.flags.c_contiguous
        assert np.array_equal(values, cqed_lab.inference._decay_model(t, p))
        assert not jac[t < 0.0, :-1].any()
        assert_jacobian_matches(jac, central_differences(
            lambda q: cqed_lab.inference._decay_model(t, q), p))

    @pytest.mark.parametrize("fit", [
        lambda: fit_noisy_pair(with_irf=True),
        fit_noisy_multi,
    ], ids=["pair-irf", "multi-irf-weighted"])
    def test_solver_gets_the_convolved_jacobian(self, monkeypatch, fit):
        solve = cqed_lab.inference.least_squares
        checked = []

        def checking(fun, x0, jac, **kwargs):
            res = solve(fun, x0, jac, **kwargs)
            analytic = jac(res.x)
            assert analytic.T.flags.c_contiguous
            assert_jacobian_matches(analytic, central_differences(fun, res.x))
            checked.append(res.x.size)
            return res

        monkeypatch.setattr(cqed_lab.inference, "least_squares", checking)
        fit()
        assert checked

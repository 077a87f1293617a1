import math

import numpy as np
import pytest

from cqed_lab import (HBAR_UEV_NS, GridError, SystemParams, TruncationError,
                      correlation_kernel, coupling_from_rate, decay_moments,
                      default_time_step, emission_spectrum, mean_decay_rate,
                      propagate, quality_factor)
from cqed_lab.model import _expm, generator_matrix
from oracles import (rabi_oracle, rk4_trajectory, simpson_integral,
                     weak_coupling_rate)


def random_params(rng):
    return SystemParams(g=rng.uniform(0.0, 100.0),
                        kappa=rng.uniform(20.0, 250.0),
                        gamma=rng.uniform(1.0, 5.0),
                        gamma_dp=rng.uniform(0.0, 8.0),
                        delta=rng.uniform(-200.0, 200.0))


class TestSystemParams:
    def test_gamma_tot_is_derived(self, micropillar):
        assert micropillar.gamma_tot == pytest.approx((110 + 1.3 + 12.6) / 2)

    @pytest.mark.parametrize("bad", [
        dict(g=-1.0, kappa=1.0, gamma=0.0),
        dict(g=1.0, kappa=0.0, gamma=0.0),
        dict(g=1.0, kappa=-2.0, gamma=0.0),
        dict(g=1.0, kappa=1.0, gamma=-0.1),
        dict(g=1.0, kappa=1.0, gamma=0.0, gamma_dp=-1.0),
        dict(g=math.nan, kappa=1.0, gamma=0.0),
        dict(g=1.0, kappa=math.inf, gamma=0.0),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            SystemParams(**bad)


class TestPropagate:
    def test_initial_condition(self, micropillar):
        traj = propagate(micropillar)
        assert traj.rho_qd[0] == pytest.approx(1.0, abs=1e-12)
        assert traj.rho_ca[0] == pytest.approx(0.0, abs=1e-12)
        assert traj.rho_po[0] == pytest.approx(0.0, abs=1e-12)

    def test_decoupled_emitter_is_exponential(self):
        # gamma chosen so gamma/hbar = 1 per ns exactly
        params = SystemParams(g=0.0, kappa=50.0, gamma=HBAR_UEV_NS)
        traj = propagate(params, t_max=20.0, dt=1e-3)
        assert np.abs(traj.rho_qd - np.exp(-traj.times)).max() < 1e-8

    def test_lossless_rabi_oscillation(self):
        params = SystemParams(g=22.6, kappa=1e-9, gamma=0.0)
        period = math.pi * HBAR_UEV_NS / 22.6
        traj = propagate(params, t_max=5 * period, dt=period / 400)
        expected = rabi_oracle(22.6, traj.times)
        assert np.abs(traj.rho_qd - expected).max() < 1e-7

    def test_against_independent_rk4(self, micropillar):
        params = micropillar.with_(delta=0.0)
        dt = 5e-4
        traj = propagate(params, t_max=0.5, dt=dt)
        t_o, y_o = rk4_trajectory(params, 0.5, dt / 100)
        oracle_qd = y_o[::100, 0]
        oracle_ca = y_o[::100, 1]
        assert np.abs(traj.rho_qd - oracle_qd).max() < 1e-9
        assert np.abs(traj.rho_ca - oracle_ca).max() < 1e-9

    def test_populations_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            traj = propagate(random_params(rng))
            assert traj.rho_qd.min() > -1e-9
            assert traj.rho_qd.max() < 1.0 + 1e-9
            assert traj.rho_ca.min() > -1e-9
            assert traj.rho_ca.max() < 1.0 + 1e-9

    def test_energy_balance_random_sets(self):
        # every excitation leaves through one of the two loss channels
        rng = np.random.default_rng(7)
        for _ in range(30):
            params = random_params(rng)
            i0, _ = decay_moments(params)
            emitted = params.gamma * i0[0] + params.kappa * i0[1]
            assert abs(emitted / HBAR_UEV_NS - 1.0) < 1e-6

    @pytest.mark.parametrize("system, kwargs", [
        ("micropillar", dict(t_max=10.0, dt=0.1)),
        ("pc_cavity", dict(dt=2e-3)),
    ])
    def test_any_step_matches_fine_rk4(self, request, system, kwargs):
        # steps far above the fastest rate's timescale are still exact
        params = request.getfixturevalue(system)
        traj = propagate(params, **kwargs)
        _, y_o = rk4_trajectory(params, traj.times[-1], traj.dt / 100)
        exact = np.column_stack([traj.rho_qd, traj.rho_ca,
                                 traj.rho_po.real, traj.rho_po.imag])
        assert np.abs(exact - y_o[::100]).max() < 1e-8 * traj.rho_qd.max()

    def test_horizon_shorter_than_ten_steps(self, micropillar):
        with pytest.raises(GridError):
            propagate(micropillar, t_max=1e-4, dt=2e-5)

    def test_exceptional_point_falls_back(self):
        # g at the coherence-sector exceptional point: defective generator
        params = SystemParams(g=(110.0 - 1.3) / 4.0, kappa=110.0, gamma=1.3)
        traj = propagate(params, t_max=2.0)
        t_o, y_o = rk4_trajectory(params, traj.times[-1], traj.dt / 100)
        assert np.abs(traj.rho_qd - y_o[::100, 0]).max() < 1e-8

    def test_expm_matches_scipy_at_exceptional_point(self):
        from scipy.linalg import expm
        params = SystemParams(g=(110.0 - 1.3) / 4.0, kappa=110.0, gamma=1.3)
        M = generator_matrix(params)
        dt = default_time_step(params)
        # one propagate step, and steps long enough to need squaring
        for scale in (1.0, 10.0, 100.0):
            assert np.abs(_expm(M * dt * scale)
                          - expm(M * dt * scale)).max() < 1e-13


class TestRabiOracle:
    def test_initial_value(self):
        assert rabi_oracle(13.0, 0.0) == pytest.approx(1.0)

    def test_half_period_zero(self):
        g = 22.6
        t_half = math.pi * HBAR_UEV_NS / (2 * g)
        assert rabi_oracle(g, t_half) == pytest.approx(0.0, abs=1e-15)

    def test_direct_arithmetic(self):
        expected = math.cos(22.6 * 0.0457 / HBAR_UEV_NS) ** 2
        assert expected < 1e-5  # near a Rabi zero
        assert rabi_oracle(22.6, 0.0457) == pytest.approx(expected, rel=1e-12)

    def test_matches_lossless_propagation(self):
        params = SystemParams(g=22.6, kappa=1e-9, gamma=0.0)
        traj = propagate(params, t_max=0.2, dt=1e-4)
        assert np.abs(traj.rho_qd - rabi_oracle(22.6, traj.times)).max() < 1e-7


class TestWeakCouplingRate:
    # the oracle's closed form, the arbiter of the adiabatic tests below,
    # checked against the limits the rate must have
    def test_no_cavity(self):
        params = SystemParams(g=0.0, kappa=100.0, gamma=1.3, gamma_dp=2.0)
        assert weak_coupling_rate(params) == pytest.approx(1.3 / HBAR_UEV_NS)

    def test_micropillar_value(self, micropillar):
        params = micropillar.with_(delta=17.0)
        gtot = (110.0 + 1.3 + 2 * 6.3) / 2
        expected = (1.3 + 2 * 22.6 ** 2 * gtot / (gtot ** 2 + 17.0 ** 2))
        assert expected == pytest.approx(16.63, abs=0.01)
        assert weak_coupling_rate(params) == pytest.approx(
            expected / HBAR_UEV_NS, rel=1e-12)

    def test_monotone_in_detuning(self, micropillar):
        deltas = np.linspace(0.0, 500.0, 40)
        rates = [weak_coupling_rate(micropillar.with_(delta=d)) for d in deltas]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        # symmetric in the detuning sign
        assert weak_coupling_rate(micropillar.with_(delta=-40.0)) == \
            pytest.approx(weak_coupling_rate(micropillar.with_(delta=40.0)))

    def test_monotone_in_coupling(self, micropillar):
        gs = np.linspace(0.0, 80.0, 30)
        rates = [weak_coupling_rate(micropillar.with_(g=g)) for g in gs]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_far_detuned_asymptote_from_above(self, micropillar):
        gamma_rate = micropillar.gamma / HBAR_UEV_NS
        for d in (1e3, 1e4, 1e5):
            r = weak_coupling_rate(micropillar.with_(delta=d))
            assert r > gamma_rate
        assert weak_coupling_rate(micropillar.with_(delta=1e5)) == \
            pytest.approx(gamma_rate, rel=1e-4)

    def test_dephasing_broadens_never_feeds(self):
        # gamma_tot >> g: more dephasing only slows the emitter decay
        base = SystemParams(g=2.0, kappa=150.0, gamma=1.0, gamma_dp=0.0)
        rates = [weak_coupling_rate(base.with_(gamma_dp=dp))
                 for dp in np.linspace(0.0, 40.0, 20)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] > base.gamma / HBAR_UEV_NS


class TestMeanDecayRate:
    def test_pure_exponential_recovers_rate(self):
        params = SystemParams(g=0.0, kappa=50.0, gamma=HBAR_UEV_NS)
        assert mean_decay_rate(params) == pytest.approx(1.0, rel=1e-6)
        i0, i1 = decay_moments(params)
        assert i0[0] / i1[0] == pytest.approx(1.0, rel=1e-6)

    def test_micropillar_fastest_rate(self, micropillar):
        # measured fastest mean rate: 17.7 1/ns at 17 ueV detuning
        rate = mean_decay_rate(micropillar.with_(delta=17.0))
        assert rate == pytest.approx(17.7, rel=0.15)

    def test_full_model_matches_adiabatic_in_deep_weak_coupling(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            kappa = rng.uniform(80.0, 250.0)
            gamma = rng.uniform(1.0, 4.0)
            gamma_dp = rng.uniform(0.0, 6.0)
            gtot = (kappa + gamma + 2 * gamma_dp) / 2
            g = rng.uniform(0.2, 1.0) * gtot / 20.0
            params = SystemParams(g=g, kappa=kappa, gamma=gamma,
                                  gamma_dp=gamma_dp,
                                  delta=rng.uniform(-50.0, 50.0))
            full = mean_decay_rate(params)
            assert full == pytest.approx(weak_coupling_rate(params), rel=0.05)


class TestClosedFormMoments:
    PARAMS = [
        SystemParams(g=22.6, kappa=110.0, gamma=1.3, gamma_dp=6.3),
        SystemParams(g=92.4, kappa=195.0, gamma=0.2, gamma_dp=4.0, delta=50.0),
        SystemParams(g=(110.0 - 1.3) / 4.0, kappa=110.0, gamma=1.3),
        SystemParams(g=5.0, kappa=150.0, gamma=2.0, gamma_dp=3.0,
                     delta=-100.0),
    ]

    @pytest.mark.parametrize("params", PARAMS)
    def test_agree_with_sampled_quadrature(self, params):
        traj = propagate(params)
        rows = np.array([traj.rho_qd, traj.rho_ca, traj.rho_po.real,
                         traj.rho_po.imag])
        sampled0 = np.array([simpson_integral(r, traj.times) for r in rows])
        sampled1 = np.array([simpson_integral(traj.times * r, traj.times)
                             for r in rows])
        scale0, scale1 = np.abs(sampled0).max(), np.abs(sampled1).max()
        i0, i1 = decay_moments(params)
        assert np.abs(i0 - sampled0).max() < 1e-6 * scale0
        assert np.abs(i1 - sampled1).max() < 1e-5 * scale1
        w = params.gamma * rows[0] + params.kappa * rows[1]
        sampled_rate = (simpson_integral(w, traj.times)
                        / simpson_integral(traj.times * w, traj.times))
        assert mean_decay_rate(params) == pytest.approx(sampled_rate, rel=1e-5)

    def test_non_decaying_generator_raises(self):
        # g = 0 and gamma = 0: the emitter population never changes
        params = SystemParams(g=0.0, kappa=50.0, gamma=0.0)
        grid = np.linspace(-500.0, 500.0, 101)
        for call in (lambda: decay_moments(params),
                     lambda: mean_decay_rate(params),
                     lambda: correlation_kernel(params),
                     lambda: emission_spectrum(params, grid=grid)):
            with pytest.raises(TruncationError):
                call()


class TestCouplingFromRate:
    def test_target_at_background_gives_zero(self, micropillar):
        g = coupling_from_rate(micropillar.gamma / HBAR_UEV_NS, micropillar)
        assert g == 0.0

    def test_target_below_background_errors(self, micropillar):
        with pytest.raises(ValueError):
            coupling_from_rate(0.5 * micropillar.gamma / HBAR_UEV_NS,
                               micropillar)

    def test_adiabatic_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = random_params(rng)
            g = coupling_from_rate(weak_coupling_rate(params), params,
                                   mode="adiabatic")
            assert g == pytest.approx(params.g, rel=1e-9, abs=1e-9)

    def test_full_round_trip(self, micropillar):
        # the inverse is exact, from far below to far above the
        # strong-coupling threshold, with and without a background decay
        for gamma in (0.0, 1.3):
            for delta in (0.0, 17.0):
                for g in np.geomspace(1e-2, 3e3, 15):
                    params = micropillar.with_(g=g, gamma=gamma, delta=delta)
                    rate = mean_decay_rate(params)
                    g_back = coupling_from_rate(rate, params, mode="full")
                    assert g_back == pytest.approx(g, rel=1e-10)

    def test_full_rate_limit_raises(self, micropillar):
        # the mean decay rate rises towards (kappa + gamma) / (2 hbar) as g
        # grows and never reaches it
        limit = (micropillar.kappa + micropillar.gamma) / (2.0 * HBAR_UEV_NS)
        assert mean_decay_rate(micropillar.with_(g=1e4)) < limit
        for above in (0.0, 1e-9, 1.0):
            with pytest.raises(ValueError, match="no g reaches"):
                coupling_from_rate(limit * (1.0 + above), micropillar,
                                   mode="full")

    @pytest.mark.parametrize("params", [
        SystemParams(g=22.6, kappa=110.0, gamma=1.3, gamma_dp=6.3, delta=17.0),
        SystemParams(g=92.4, kappa=195.0, gamma=0.2, gamma_dp=4.0),
        SystemParams(g=5.0, kappa=150.0, gamma=2.0, gamma_dp=3.0,
                     delta=-100.0),
    ])
    def test_full_matches_brentq(self, params):
        from scipy.optimize import brentq
        target = mean_decay_rate(params)

        def f(g):
            return mean_decay_rate(params.with_(g=g)) - target

        reference = brentq(f, 1e-9, 1000.0, xtol=1e-14, rtol=1e-13)
        g = coupling_from_rate(target, params, mode="full")
        assert g == pytest.approx(reference, rel=1e-10)

    def test_pc_adiabatic_inversion_near_resonance(self, pc_cavity):
        # adiabatic inversion of the fast measured rate 18.5 1/ns at zero
        # detuning; quoted extraction was 22 ueV (tolerance 25%)
        params = pc_cavity.with_(delta=0.0)
        gtot = params.gamma_tot
        expected = math.sqrt((18.5 * HBAR_UEV_NS - 0.2) * gtot / 2.0)
        g = coupling_from_rate(18.5, params, mode="adiabatic")
        assert g == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx(24.66, abs=0.01)
        assert g == pytest.approx(22.0, rel=0.25)


class TestScalarOps:
    def test_quality_factor_paper_value(self):
        assert quality_factor(952.0, 195.0) == pytest.approx(6690.0, rel=0.005)

    def test_quality_factor_definition(self):
        # kappa equal to the photon energy itself gives Q = 1
        from cqed_lab import wavelength_to_energy
        lam = 930.0
        assert quality_factor(lam, wavelength_to_energy(lam)) == \
            pytest.approx(1.0, rel=1e-12)

    def test_quality_factor_inverse_arithmetic(self):
        # Q=12200 with kappa=110 ueV places the resonance near 924 nm
        from cqed_lab import HC_UEV_NM
        lam = HC_UEV_NM / (12200.0 * 110.0)
        assert lam == pytest.approx(924.0, abs=1.0)
        assert quality_factor(lam, 110.0) == pytest.approx(12200.0, rel=1e-12)

    def test_quality_factor_errors(self):
        with pytest.raises(ValueError):
            quality_factor(-1.0, 10.0)
        with pytest.raises(ValueError):
            quality_factor(952.0, 0.0)

"""g recovery at seeds 1-12 on both paper systems, through compare-g.

The two strict xfails state gates the code does not meet yet (ROADMAP
directions 8 and 1a); each fails on both systems today.
"""

import pytest

import recovery


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("recovery"))
    out = {}
    for system in recovery.workloads.SYSTEMS:
        runs = recovery.recover(root, system)
        out[system] = (runs, recovery.summary(system, runs))
    return out


def test_spectral_g_is_recovered(summaries):
    for runs, s in summaries.values():
        assert all(run["code"] == 0 for run in runs.values())
        assert not any(run["spectral"]["flags"] for run in runs.values())
        assert abs(s["spectral"]["mean_g"] - s["truth"]) < 0.02
        assert s["spectral"]["scatter"] < 0.1


@pytest.mark.xfail(strict=True, reason="direction 8: the unweighted JC "
                   "spectral fit reports a sigma 4-5 times too small")
def test_spectral_sigma_is_calibrated(summaries):
    for _, s in summaries.values():
        assert 0.7 <= s["spectral"]["z_sd"] <= 1.3
        assert s["spectral"]["max_abs_z"] <= 3.5


@pytest.mark.xfail(strict=True, reason="direction 1a: the rate inversion "
                   "biases the dynamical g and every decay fit is flagged")
def test_dynamical_g_is_recovered(summaries):
    for _, s in summaries.values():
        dyn = s["dynamical"]
        assert abs(dyn["mean_g"] - s["truth"]) / s["truth"] <= 0.01
        assert dyn["flagged"] == 0

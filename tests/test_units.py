import numpy as np
import pytest

from cqed_lab import (HBAR_UEV_NS, energy_to_rate, rate_to_energy,
                      wavelength_to_energy)


def test_round_trip_is_exact():
    rng = np.random.default_rng(1)
    for x in rng.uniform(1e-3, 1e3, 200):
        assert rate_to_energy(energy_to_rate(x)) == pytest.approx(x, rel=1e-15)
        assert energy_to_rate(rate_to_energy(x)) == pytest.approx(x, rel=1e-15)


def test_known_conversion():
    # 1.3 ueV corresponds to 1.975 1/ns
    assert energy_to_rate(1.3) == pytest.approx(1.3 / HBAR_UEV_NS, rel=1e-14)
    assert energy_to_rate(1.3) == pytest.approx(1.975, rel=1e-3)


def test_wavelength_conversion():
    assert wavelength_to_energy(952.0) == pytest.approx(1302354.0, rel=1e-6)
    with pytest.raises(ValueError):
        wavelength_to_energy(-1.0)

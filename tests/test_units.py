import pytest

from cqed_lab import wavelength_to_energy


def test_wavelength_conversion():
    assert wavelength_to_energy(952.0) == pytest.approx(1302354.0, rel=1e-6)
    with pytest.raises(ValueError):
        wavelength_to_energy(-1.0)

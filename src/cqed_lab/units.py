"""Unit conventions and conversions.

All stored energies and energy-equivalent rates are in microelectronvolts
(ueV); times are in nanoseconds (ns); wavelengths in nanometers (nm).
Angular rates in ns^-1 appear only at integration boundaries, obtained by
dividing ueV values by HBAR_UEV_NS.
"""

from __future__ import annotations

HBAR_UEV_NS = 0.6582119569
"""hbar in ueV*ns (exact by convention in this package)."""

HC_UEV_NM = 1.23984198e9
"""h*c in ueV*nm, for wavelength <-> photon-energy conversion."""


def energy_to_rate(energy_uev: float) -> float:
    """Convert an energy-equivalent rate (ueV) to an angular rate (ns^-1)."""
    return energy_uev / HBAR_UEV_NS


def rate_to_energy(rate_per_ns: float) -> float:
    """Convert an angular rate (ns^-1) to its energy equivalent (ueV)."""
    return rate_per_ns * HBAR_UEV_NS


def wavelength_to_energy(wavelength_nm: float) -> float:
    """Photon energy (ueV) of light at the given vacuum wavelength (nm)."""
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    return HC_UEV_NM / wavelength_nm

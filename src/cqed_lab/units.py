"""Unit conventions and conversions.

All stored energies and energy-equivalent rates are in microelectronvolts
(ueV); times are in nanoseconds (ns); wavelengths in nanometers (nm).
Angular rates in ns^-1 appear only at integration boundaries, where the
code divides ueV values by HBAR_UEV_NS.
"""

from __future__ import annotations

__all__ = ["HBAR_UEV_NS", "HC_UEV_NM", "wavelength_to_energy"]

HBAR_UEV_NS = 0.6582119569
"""hbar in ueV*ns (exact by convention in this package)."""

HC_UEV_NM = 1.23984198e9
"""h*c in ueV*nm, for wavelength <-> photon-energy conversion."""


def wavelength_to_energy(wavelength_nm: float) -> float:
    """Photon energy (ueV) of light at the given vacuum wavelength (nm)."""
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    return HC_UEV_NM / wavelength_nm

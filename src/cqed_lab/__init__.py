"""Dissipative emitter-cavity dynamics, emission spectra, and inverse problems.

The package simulates a single two-level emitter coupled to a lossy cavity
mode in the single-excitation sector, computes detected emission spectra via
two-time correlations, models instrument response (convolution and Fourier
deconvolution), and solves the two inverse problems of extracting the
light-matter coupling strength from time-resolved decay curves and from the
spectral Rabi splitting.
"""

from .errors import (ConfigError, CqedError, DeconvolutionError, FitError,
                     GridError, PeakError, TruncationError)
from .inference import (CouplingClassification, FitResult,
                        LorentzianPairParams, SweepRecord, classify_coupling,
                        extract_sweep_record, fit_decay,
                        fit_jc_cavity_spectrum, fit_lorentzian_pair,
                        seed_lorentzian_pair)
from .instrument import (IrfKernel, SampledSignal, convolve, deconvolve,
                         gaussian_irf, irf_band_limit, irf_fwhm_from_q,
                         read_irf, read_signal, write_signal)
from .model import (SystemParams, Trajectory, coupling_from_rate,
                    decay_moments, default_horizon, default_time_step,
                    mean_decay_rate, propagate, quality_factor)
from .spectra import (CorrelationKernel, DetectionCoefficients, Spectrum,
                      correlation_kernel, default_grid, emission_spectrum,
                      rabi_splitting, read_spectrum, resolvent_transform,
                      write_spectrum)
from .units import HBAR_UEV_NS, HC_UEV_NM, wavelength_to_energy

__version__ = "0.1.0"

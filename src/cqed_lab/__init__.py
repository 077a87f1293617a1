"""Dissipative emitter-cavity dynamics, emission spectra, and inverse problems.

The package simulates a single two-level emitter coupled to a lossy cavity
mode in the single-excitation sector, computes detected emission spectra via
two-time correlations, models instrument response (convolution and Fourier
deconvolution), and solves the two inverse problems of extracting the
light-matter coupling strength from time-resolved decay curves and from the
spectral Rabi splitting.
"""

from .errors import *  # noqa: F403 -- each module's __all__ is the API
from .units import *  # noqa: F403
from .model import *  # noqa: F403
from .instrument import *  # noqa: F403
from .spectra import *  # noqa: F403
from .inference import *  # noqa: F403

__version__ = "0.1.0"

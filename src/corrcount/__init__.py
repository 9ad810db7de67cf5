"""Count statistics of exchangeable, correlated binary events.

Given N statistically indistinguishable events whose connected
correlations are truncated at a finite order, this package computes the
distribution of the number of events that occur: exactly at finite N, and
in the N -> infinity limit through the closed-form generating-function
exponent.  Brute-force oracles, samplers, and coefficient estimators close
the loop for end-to-end verification.

The package root exports the entry points; everything else is imported
from its submodule (``corrcount.core``, ``corrcount.ursell``, ...).
"""

from .core import CorrcountError, CorrelationModel, Pmf
from .finite import count_pmf_from_joint, finite_count_pmf
from .limit import char_fn, limit_pmf
from .montecarlo import (
    MixtureSpec,
    build_mixture_joint,
    estimate_coefficients,
    sample_counts,
)
from .verify import run_identity_suite

__version__ = "0.1.0"

__all__ = [
    "CorrelationModel",
    "Pmf",
    "CorrcountError",
    "MixtureSpec",
    "limit_pmf",
    "finite_count_pmf",
    "count_pmf_from_joint",
    "build_mixture_joint",
    "char_fn",
    "sample_counts",
    "estimate_coefficients",
    "run_identity_suite",
]

"""Numerical tolerances used throughout the package, as one frozen value.

Sampling stores the value in force, IN_FORCE, on the SampledPath it
returns, and every stage after sampling reads it from there.  DEFAULT is
in force unless a caller sets another value for a context, as the
command line tool does for one call with --eps-real.
"""

import contextvars
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    # base threshold for treating an imaginary part as zero; the effective
    # threshold scales with the magnitude of the value being tested
    eps_real: float = 1e-9
    # two unit imaginary directions closer than this angle count as equal
    theta_tol: float = 1e-6
    # adaptive sampling: maximal rotation of the imaginary direction
    # between neighbouring samples, and the bisection depth budget
    theta_step: float = 0.1
    d_max: int = 24
    # relative residual allowed when checking exp(lift) against the path
    tol_lift: float = 1e-8
    # number of halvings used when chasing a one-sided direction limit
    limit_halvings: int = 40

    def is_real(self, im_norm, norm):
        """Scale-aware realness test, elementwise on arrays."""
        return im_norm <= self.eps_real * np.maximum(1.0, norm)


DEFAULT = Tolerances()
IN_FORCE = contextvars.ContextVar("IN_FORCE", default=DEFAULT)

"""Numerical tolerances used throughout the package.

The values are module-level so the command line tool can override the
realness threshold for a whole run.  Library callers normally leave
everything at the defaults.
"""

import numpy as np

# base threshold for treating an imaginary part as zero; the effective
# threshold scales with the magnitude of the value being tested
EPS_REAL = 1e-9

# two unit imaginary directions closer than this angle count as equal
THETA_TOL = 1e-6

# adaptive sampling: maximal rotation of the imaginary direction between
# neighbouring samples, and the bisection depth budget
THETA_STEP = 0.1
D_MAX = 24

# relative residual allowed when checking exp(lift) against the path
TOL_LIFT = 1e-8

# number of halvings used when chasing a one-sided direction limit
LIMIT_HALVINGS = 40


def is_real(im_norm, norm):
    """Scale-aware realness test, elementwise on arrays."""
    return im_norm <= EPS_REAL * np.maximum(1.0, norm)


def set_eps_real(value: float) -> None:
    """Override the base realness threshold (sanity-checked)."""
    global EPS_REAL
    if not (1e-14 <= value <= 1e-4):
        raise ValueError("eps-real override must lie in [1e-14, 1e-4]")
    EPS_REAL = float(value)

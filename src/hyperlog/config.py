"""The realness threshold, the one tolerance a caller can set, and the
fixed tolerances that several stages read.

Sampling stores the Tolerances value in force, IN_FORCE, on the
SampledPath it returns, and every stage after sampling reads it from
there.  DEFAULT is in force unless a caller sets another value for a
context, as the command line tool does for one call with --eps-real.
"""

import contextvars
from dataclasses import dataclass

import numpy as np

# two unit imaginary directions closer than this angle count as equal
THETA_TOL = 1e-6
# relative residual allowed when checking exp(lift) against the path
TOL_LIFT = 1e-8
# the parameter tolerances, fractions of the span b - a of a path's
# domain so that they scale with its parameter: the resolution to which
# parameters are solved and compared, and the distance within which two
# parameters are one place
PARAM_RESOLUTION = 1e-12
PARAM_SAME = 1e-9
# two values p and q of a path are one value when |p - q| <= VALUE_SAME |q|
VALUE_SAME = 1e-9


@dataclass(frozen=True)
class Tolerances:
    # a value q counts as real when |Im q| <= eps_real |q|, which a
    # positive real factor does not change
    eps_real: float = 1e-9

    def is_real(self, im_norm, norm):
        """Relative realness test of values with |Im q| = im_norm and
        |q| = norm, elementwise on arrays."""
        return im_norm <= self.eps_real * norm


DEFAULT = Tolerances()
IN_FORCE = contextvars.ContextVar("IN_FORCE", default=DEFAULT)

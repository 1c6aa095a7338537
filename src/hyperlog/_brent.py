"""Brent's scalar root finder and bounded minimiser.

Both follow R. P. Brent, *Algorithms for Minimization without
Derivatives* (Prentice-Hall, 1973), ch. 4 and 5, step for step as SciPy
implements them, so they return the same floating-point results as
SciPy's ``optimize.brentq`` and ``optimize.minimize_scalar(...,
method="bounded")`` for the same function, bracket and tolerance.

Each solver is written once, as a generator (``brentq_steps``,
``minimize_bounded_steps``) that yields the abscissae it needs and is
sent the function's values there, so that a caller can advance many
solves together and evaluate their abscissae in one batch.
"""

from __future__ import annotations

import math
import sys

EPS = sys.float_info.epsilon
# defaults of SciPy's optimize.brentq
RTOL = 4 * EPS
MAXITER = 100
# default of SciPy's optimize._minimize_scalar_bounded
MAXFUN = 500


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _div(num: float, den: float) -> float:
    """num / den as C computes it: division by zero gives +-inf, or NaN
    for 0 / 0, where Python raises."""
    if den != 0:
        return num / den
    if num == 0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def brentq_steps(xa: float, xb: float, xtol: float):
    """Brent's root finder as a generator: it yields each abscissa at
    which it needs the function, is sent the function's value there, and
    returns a root of the function in [xa, xb], whose ends give values of
    opposite sign.

    Ported from ``optimize/Zeros/brentq.c`` of SciPy (BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers),
    with the argument checks of its ``optimize.brentq``.  The relative
    tolerance is RTOL.  Raises ValueError for a bracket without a sign
    change or a NaN value of f, and RuntimeError after MAXITER iterations
    without convergence.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def checked(x, y):
        y = float(y)
        if math.isnan(y):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return y

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = checked(xpre, (yield xpre))
    fcur = checked(xcur, (yield xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        # the tolerance is 2 * delta
        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(
                    -fcur * (fblk * dblk - fpre * dpre),
                    dblk * dpre * (fblk - fpre),
                )
            # MIN(a, b) of the C source, which is (a < b ? a : b)
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = checked(xcur, (yield xcur))
    raise RuntimeError(
        f"Failed to converge after {MAXITER} iterations, value is {xcur}"
    )


def minimize_bounded_steps(x1: float, x2: float, xatol: float):
    """Brent's bounded minimiser as a generator: it yields each abscissa
    at which it needs the function, is sent the function's value there,
    and returns the minimiser on [x1, x2].

    Ported from ``_minimize_scalar_bounded`` in ``optimize/_optimize.py``
    of SciPy (BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and
    2003- SciPy Developers), which its ``minimize_scalar(method="bounded")``
    runs.  Returns the best abscissa found, also when MAXFUN evaluations
    ran out first.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")

    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(x1), float(x2)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    # np.sign(xm - xf) + ((xm - xf) == 0) in SciPy
                    si = -1.0 if xm - xf < 0 else 1.0
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = -1.0 if rat < 0 else 1.0
        x = xf + si * max(abs(rat), tol1)
        fu = yield x
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= MAXFUN:
            break

    return xf

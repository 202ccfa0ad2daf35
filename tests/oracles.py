"""Reference evaluations the fast source paths are checked against: the
time factor's derivatives through numpy.polynomial and the phi-functions
on a whole array, each taken afresh on every call."""

import math

import numpy as np

from pnhybrid import transport as tr

# Terms of the phi-functions' Taylor series below tr.PHI_SERIES_BELOW.
PHI_SERIES_TERMS = 20


def poly_derivatives(poly, t: float) -> list:
    """[p(t), p'(t), ..., p^(d)(t)] for coefficients low order first."""
    c = np.asarray(poly, dtype=float)
    out = []
    for _ in range(len(c)):
        out.append(float(np.polynomial.polynomial.polyval(t, c)))
        c = np.polynomial.polynomial.polyder(c)
    return out


def phi_functions(z, n: int) -> list:
    """[phi_0(z), ..., phi_n(z)] elementwise, phi_0(z) = e^z and
    phi_j(z) = sum_m z^m/(m+j)!, so phi_(j+1)(z) = (phi_j(z) - 1/j!)/z.
    The recurrence is used for |z| >= tr.PHI_SERIES_BELOW, the series below."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < tr.PHI_SERIES_BELOW
    z_big = np.where(small, 1.0, z)
    z_small = np.where(small, z, 0.0)
    out = [np.exp(z)]
    for j in range(1, n + 1):
        rec = (out[-1] - 1.0 / math.factorial(j - 1)) / z_big
        if small.any():
            ser = np.zeros_like(z_small)
            for m in reversed(range(PHI_SERIES_TERMS)):
                ser = ser * z_small + 1.0 / math.factorial(m + j)
            rec = np.where(small, ser, rec)
        out.append(rec)
    return out


def source_response(lam, tm, a: float, b: float):
    """e^(mu b) sum_j p^(j)(a) h^(j+1) phi_(j+1)(-(lam + mu) h) on the
    array lam, for the term p(t) e^(mu t) tm and h = b - a."""
    h = b - a
    derivs = poly_derivatives(tm.time_poly, a)
    phis = phi_functions(-(lam + tm.time_exp) * h, len(derivs))
    acc = sum(d * h ** (j + 1) * phis[j + 1] for j, d in enumerate(derivs))
    return math.exp(tm.time_exp * b) * acc

"""Periodic Fourier grids on [0, 2*pi)^3 with one to three active axes,
plus the two field containers used everywhere else: spectral moment fields
(spatial mode x angular moment) and spectral nodal fields (spatial mode x
quadrature direction).

Convention: f(x) = sum_k c_k exp(i k.x) with integer wavenumbers centered
on zero, so ||f||^2 over the active axes is (2*pi)^dim * sum |c_k|^2.
Inactive axes carry a single k = 0 plane.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import harmonics as sh


@dataclass(frozen=True)
class SpatialGrid:
    """Centered spectral grid: `modes` wavenumbers per active axis."""

    dim: int
    modes: int

    def __post_init__(self):
        sh.require_integer("dim", self.dim)
        sh.require_integer("modes", self.modes)
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got {self.dim}")
        if self.modes < 1 or self.modes % 2 == 0:
            raise ValueError(f"modes must be odd and positive, got {self.modes}")

    @functools.cached_property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.modes if ax < self.dim else 1 for ax in range(3))

    @property
    def kmax(self) -> int:
        return (self.modes - 1) // 2

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Integer wavenumbers along a 0-based axis, in index order."""
        if axis < self.dim:
            return np.arange(self.modes) - self.kmax
        return np.zeros(1, dtype=int)

    def k_grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Three broadcastable integer arrays shaped like the mode box."""
        out = []
        for ax in range(3):
            k = self.wavenumbers(ax)
            shape = [1, 1, 1]
            shape[ax] = k.shape[0]
            out.append(k.reshape(shape))
        return tuple(out)

    def k_norm2(self) -> np.ndarray:
        k1, k2, k3 = self.k_grids()
        return (k1 * k1 + k2 * k2 + k3 * k3).astype(float)

    def index_of(self, k: tuple[int, int, int]) -> tuple[int, int, int]:
        """Array index of the mode with wavenumber k, validating the band."""
        idx = []
        for ax in range(3):
            if ax < self.dim:
                if abs(k[ax]) > self.kmax:
                    raise ValueError(
                        f"wavenumber {k} outside band limit {self.kmax} of axis {ax}"
                    )
                idx.append(k[ax] + self.kmax)
            else:
                if k[ax] != 0:
                    raise ValueError(
                        f"wavenumber {k} uses inactive axis {ax} (dim={self.dim})"
                    )
                idx.append(0)
        return tuple(idx)

    @property
    def measure(self) -> float:
        """Volume of the active part of the box."""
        return (2.0 * math.pi) ** self.dim


def _horner(coeffs, t):
    """sum_j coeffs[j] t^j by Horner's rule, highest coefficient first."""
    p = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        p = p * t + c
    return p


@dataclass(frozen=True)
class FieldTerm:
    """One separable building block of initial data or a source:
    (sum of spatial Fourier modes) x (angular moment profile) x
    (polynomial-times-exponential time factor).

    spatial: tuple of ((k1, k2, k3), amplitude) pairs.
    angular: real moment coefficients in ordinal order, any finite degree.
    time_poly: real polynomial coefficients p, low order first, at least one.
    time_exp: real signed exponential rate; the factor is p(t) exp(time_exp * t).

    The term owns its time factor: the coefficients of p, p', ..., p^(d)
    are formed once (time_derivative_polys) and every derivative value is
    taken from them by Horner's rule (time_derivatives), the same products
    and sums as numpy.polynomial's polyder and polyval.
    """

    spatial: tuple
    angular: tuple
    time_poly: tuple = (1.0,)
    time_exp: float = 0.0

    def __post_init__(self):
        if not self.time_poly:
            raise ValueError(f"time_poly must have a coefficient, got {self.time_poly!r}")
        # Only the spatial amplitudes may be complex.
        for name, values, real in (
                ("spatial amplitude", [a for _, a in self.spatial], False),
                ("angular", self.angular, True), ("time_poly", self.time_poly, True),
                ("time_exp", (self.time_exp,), True)):
            for v in values:
                if real and not isinstance(v, numbers.Real):
                    raise ValueError(f"{name} must be real, got {v}")
                if not cmath.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {v}")

    @functools.cached_property
    def time_derivative_polys(self) -> tuple:
        """(p, p', ..., p^(d)) as coefficient tuples, low order first."""
        polys = [tuple(self.time_poly)]
        while len(polys[-1]) > 1:
            c = polys[-1]
            polys.append(tuple(j * c[j] for j in range(1, len(c))))
        return tuple(polys)

    def time_derivatives(self, t: float) -> list:
        """[p(t), p'(t), ..., p^(d)(t)], the polynomial factor alone."""
        return [_horner(c, t) for c in self.time_derivative_polys]

    def time_value(self, t: float) -> float:
        return _horner(self.time_poly, t) * math.exp(self.time_exp * t)

    @property
    def angular_degree(self) -> int:
        return int(math.isqrt(len(self.angular))) - 1


def term(spatial, angular, time_poly=(1.0,), time_exp=0.0) -> FieldTerm:
    """Normalize dict/sequence inputs into a hashable FieldTerm."""
    if isinstance(spatial, dict):
        pairs = tuple(sorted((tuple(k), complex(v)) for k, v in spatial.items()))
    else:
        pairs = tuple((tuple(k), complex(v)) for k, v in spatial)
    ang = tuple(float(a) for a in angular)
    nm = len(ang)
    if sh.n_moments(int(math.isqrt(nm)) - 1) != nm:
        raise ValueError(f"angular profile length {nm} is not (L+1)^2 for any L")
    return FieldTerm(
        spatial=pairs,
        angular=ang,
        time_poly=tuple(float(c) for c in time_poly),
        time_exp=float(time_exp),
    )


def isotropic_term(spatial, time_poly=(1.0,), time_exp=0.0) -> FieldTerm:
    """Term whose angular profile is the constant function 1 on the sphere."""
    return term(spatial, (math.sqrt(4.0 * math.pi),), time_poly, time_exp)


def spatial_band(terms) -> tuple[int, int, int]:
    """Largest |k| used per axis across the terms."""
    band = [0, 0, 0]
    for tm in terms:
        for k, _ in tm.spatial:
            for ax in range(3):
                band[ax] = max(band[ax], abs(k[ax]))
    return tuple(band)


def angular_band(terms) -> int:
    return max((tm.angular_degree for tm in terms), default=0)


def grid_for(terms, extra_terms=()) -> SpatialGrid:
    """Smallest grid holding every term's spatial band."""
    band = spatial_band(tuple(terms) + tuple(extra_terms))
    dim = 1
    for ax in range(3):
        if band[ax] > 0:
            dim = max(dim, ax + 1)
    kmax = max(band)
    return SpatialGrid(dim=dim, modes=2 * kmax + 1)


@dataclass(frozen=True)
class MomentField:
    """Spectral-in-space, moment-in-angle field: coeffs[k1, k2, k3, lk]."""

    grid: SpatialGrid
    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        expect = self.grid.shape + (sh.n_moments(self.N),)
        if self.coeffs.shape != expect:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match {expect}"
            )

    def __add__(self, other: "MomentField") -> "MomentField":
        _check_same(self, other)
        return MomentField(self.grid, self.N, self.coeffs + other.coeffs)

    def __sub__(self, other: "MomentField") -> "MomentField":
        _check_same(self, other)
        return MomentField(self.grid, self.N, self.coeffs - other.coeffs)

    def scale(self, a: complex) -> "MomentField":
        return MomentField(self.grid, self.N, a * self.coeffs)

    def truncate(self, N: int) -> "MomentField":
        """Project onto degree <= N (or zero-pad up to it)."""
        return MomentField(self.grid, N, sh.project_moments(self.coeffs, N))


@dataclass(frozen=True)
class NodalField:
    """Spectral-in-space, nodal-in-angle field: values[k1, k2, k3, node]."""

    grid: SpatialGrid
    quad: sh.SphereQuadrature
    values: np.ndarray

    def __post_init__(self):
        expect = self.grid.shape + (len(self.quad),)
        if self.values.shape != expect:
            raise ValueError(
                f"value shape {self.values.shape} does not match {expect}"
            )

    def __add__(self, other: "NodalField") -> "NodalField":
        if self.grid != other.grid or not self.quad.same_rule(other.quad):
            raise ValueError("nodal fields live on different grids or quadratures")
        return NodalField(self.grid, self.quad, self.values + other.values)

    def __sub__(self, other: "NodalField") -> "NodalField":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "NodalField":
        return NodalField(self.grid, self.quad, a * self.values)


def _check_same(a: MomentField, b: MomentField):
    if a.grid != b.grid or a.N != b.N:
        raise ValueError("moment fields live on different discretizations")


def zero_moment_field(grid: SpatialGrid, N: int) -> MomentField:
    return MomentField(grid, N, np.zeros(grid.shape + (sh.n_moments(N),), dtype=complex))


def moment_field(grid: SpatialGrid, N: int, terms, t: float = 0.0) -> MomentField:
    """Assemble a moment field from separable terms at time t.

    Raises if any term's spatial band exceeds the grid or its angular
    degree exceeds N.
    """
    out = zero_moment_field(grid, N).coeffs
    nm = sh.n_moments(N)
    for tm in terms:
        if tm.angular_degree > N:
            raise ValueError(
                f"term angular degree {tm.angular_degree} exceeds N={N}"
            )
        ang = np.zeros(nm)
        ang[: len(tm.angular)] = tm.angular
        f = tm.time_value(t)
        for k, amp in tm.spatial:
            out[grid.index_of(k)] += f * amp * ang
    return MomentField(grid, N, out)


def nodal_field(grid: SpatialGrid, quad: sh.SphereQuadrature, terms, t: float = 0.0) -> NodalField:
    """Assemble a nodal field from separable terms at time t."""
    out = np.zeros(grid.shape + (len(quad),), dtype=complex)
    for tm in terms:
        ang_nodal = sh.evaluate_expansion(np.asarray(tm.angular), quad)
        f = tm.time_value(t)
        for k, amp in tm.spatial:
            out[grid.index_of(k)] += f * amp * ang_nodal
    return NodalField(grid, quad, out)


def l2_norm(field) -> float:
    """L^2(X x S^2) norm over the active axes of the box.  Where the squares
    of finite entries overflow, the sum is taken again on the entries
    divided by the largest of them, so a norm within the float range stays
    finite."""
    if isinstance(field, MomentField):
        data, weights = field.coeffs, 1.0
    else:
        data, weights = field.values, field.quad.weights
    with np.errstate(over="ignore"):
        total = float(np.sum(weights * np.abs(data) ** 2))
    if math.isinf(total) and np.all(np.isfinite(data)):
        scale = float(np.max(np.abs(data)))
        total = float(np.sum(weights * np.abs(data / scale) ** 2))
        return scale * math.sqrt(field.grid.measure * total)
    return math.sqrt(field.grid.measure * total)


def hs_seminorm(field: MomentField, s: int) -> float:
    """Angular H^s seminorm combined with the spatial L^2 sum."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return math.sqrt(field.grid.measure * sh.degree_energy(field.coeffs, s, s))


def hrs_seminorm(field: MomentField, r: int, s: int) -> float:
    """Mixed seminorm: first-power sum over all ordered r-tuples of spatial
    derivative axes of the angular H^(0,s) seminorm of the derivative."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return hs_seminorm(field, s)
    total = 0.0
    for w in derivative_weights(field.grid, r):
        deriv = MomentField(field.grid, field.N, field.coeffs * w[..., None])
        total += hs_seminorm(deriv, s)
    return total


def derivative_weights(grid: SpatialGrid, r: int) -> list:
    """The Fourier weight k_(a1) ... k_(ar) of every ordered r-tuple of
    spatial derivative axes, shaped like the mode box, in
    itertools.product order; tuples whose weight vanishes on the grid are
    left out.  r = 0 gives the one all-ones weight."""
    kk = tuple(k.astype(float) for k in grid.k_grids())
    out = []
    for combo in itertools.product(range(3), repeat=r):
        w = np.ones(grid.shape)
        for ax in combo:
            w = w * kk[ax]
        if np.any(w):
            out.append(w)
    return out


def scalar_flux(field: MomentField) -> np.ndarray:
    """Spherical average (1/4pi) integral of the field, per spatial mode."""
    return field.coeffs[..., 0] / math.sqrt(4.0 * math.pi)


# project_field and evaluate_field take the basis product of each mode of H
# on its own, (1, n) @ B, as numpy does on the box of a grid whose k3 axis is
# inactive: 1D and 2D grids keep the full box's bits.


def project_field(field: NodalField, N: int) -> MomentField:
    """Angular projection onto degree <= N via the field's quadrature.  The
    field must be real in physical space, as every field the solvers make
    is, and one that is not is refused: the half-space H is projected and
    the other modes are its conjugates."""
    rows = field.values.reshape(-1, 1, len(field.quad))
    require_hermitian("values", rows)
    values = half_space(rows)
    half = sh.project(values, N, field.quad)[:, 0]
    coeffs = from_half(half, field.grid.shape + (sh.n_moments(N),))
    return MomentField(field.grid, N, coeffs)


def evaluate_field(field: MomentField, quad: sh.SphereQuadrature) -> NodalField:
    """The field's values at the quadrature's nodes.  The field must be real
    in physical space, as every field the solvers make is, and one that is
    not is refused: the half-space H is evaluated and the other modes are
    its conjugates."""
    rows = field.coeffs.reshape(-1, 1, field.coeffs.shape[-1])
    require_hermitian("coefficients", rows)
    coeffs = half_space(rows)
    half = sh.evaluate_expansion(coeffs, quad)[:, 0]
    return NodalField(field.grid, quad, from_half(half, field.grid.shape + (len(quad),)))


def half_space(rows: np.ndarray) -> np.ndarray:
    """The half-space H of an array of box rows, shaped (modes, ...) in flat
    box order: k = 0 and every k whose first nonzero component is positive.
    Flat order is lexicographic in k, so these are the rows from k = 0 on;
    the result is a view."""
    return rows[rows.shape[0] // 2:]


def fill_conjugates(rows: np.ndarray) -> np.ndarray:
    """Write c(-k) = conj c(k), in place, into the rows of rows (modes, ...)
    before k = 0 from the half-space H after it, and return rows.  Flipping
    every axis of the centered box reverses its flat order, so -k of row i
    is row modes - 1 - i."""
    n = rows.shape[0] // 2
    np.conj(rows[:n:-1], out=rows[:n])
    return rows


def from_half(half: np.ndarray, shape: tuple) -> np.ndarray:
    """The array of the given shape, (box) + (n,), whose half-space H holds
    half, (H rows, n), and whose other rows are the conjugates."""
    out = np.empty(shape, dtype=half.dtype)
    rows = out.reshape(-1, shape[-1])
    half_space(rows)[...] = half
    fill_conjugates(rows)
    return out


def _hermitian_deviation(rows: np.ndarray) -> float:
    """max |c(k) - conj c(-k)| over box rows (modes, ...): flipping every
    axis of the centered box reverses its flat order."""
    return float(np.max(np.abs(rows - np.conj(rows[::-1]))))


def require_hermitian(name: str, rows: np.ndarray) -> None:
    """Refuse box rows (modes, ...) that are not exactly Hermitian, c(-k) =
    conj c(k) with c(0) real: the coefficients of a field that is not real
    in physical space.  One comparison when they are."""
    if not np.array_equal(rows, np.conj(rows[::-1])):
        raise ValueError(f"{name} must satisfy c(-k) = conj c(k), got a deviation of "
                         f"{_hermitian_deviation(rows):.3g}")


def require_real_terms(name: str, terms) -> None:
    """Refuse a term that is not real in physical space: its amplitudes,
    summed per wavevector, must satisfy a(-k) = conj a(k), and no -k may be
    missing."""
    for tm in terms:
        amps = {}
        for k, a in tm.spatial:
            k = tuple(k)
            amps[k] = amps[k] + a if k in amps else complex(a)
        for k, a in amps.items():
            mk = tuple(-x for x in k)
            b = amps.get(mk)
            if b is None or b != a.conjugate():
                got = "missing" if b is None else f"= {b}"
                raise ValueError(f"{name} amplitudes must satisfy a(-k) = conj a(k), "
                                 f"got a{k} = {a} and a{mk} {got}")


def reality_residual(field) -> float:
    """Deviation from Hermitian symmetry c_{-k} = conj(c_k); zero for fields
    that are real in physical space."""
    data = field.coeffs if isinstance(field, MomentField) else field.values
    return _hermitian_deviation(data.reshape(-1, data.shape[-1]))

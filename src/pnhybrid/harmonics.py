"""Real orthonormal spherical harmonics on S^2, product sphere quadrature,
projections, streaming coupling matrices, and the degree-weighted angular energy.

Conventions: the basis m_{l,k} is real, orthonormal under the plain surface
integral, and free of Condon-Shortley signs.  For k > 0 the harmonic is
sqrt(2) * A_{l,k}(theta) * cos(k*phi), for k < 0 it is the matching sine
harmonic, and A_{l,k} is the fully normalized associated Legendre function.
A flat ordinal l*l + l + k enumerates (l, k) pairs degree by degree.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for the algebraic identity audits in this module.
TOL = 1.0e-12

# Unit-length tolerance for direction vectors handed to basis evaluation.
UNIT_TOL = 1.0e-12


def require_integer(name: str, value) -> None:
    """Refuse a size that is not an integer (a bool, a float or a string
    included) with one ValueError."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def n_moments(N: int) -> int:
    """Number of real harmonics with degree <= N."""
    return (N + 1) * (N + 1)


def ordinal(l: int, k: int) -> int:
    """Flat position of (l, k) in the degree-blocked enumeration."""
    if l < 0 or abs(k) > l:
        raise ValueError(f"invalid spherical index (l={l}, k={k})")
    return l * l + l + k


def degree_slice(l: int) -> slice:
    """Slice selecting the 2l+1 coefficients of degree l."""
    return slice(l * l, (l + 1) * (l + 1))


def moment_degrees(N: int) -> np.ndarray:
    """Degree l of every ordinal up to degree N, in ordinal order: l
    repeated 2l+1 times."""
    degrees = np.arange(N + 1)
    return np.repeat(degrees, 2 * degrees + 1)


def _legendre_normalized(N: int, ct: np.ndarray, st: np.ndarray) -> np.ndarray:
    """Table A[l, k, point] of normalized associated Legendre functions.

    Stable three-term recurrence in ct = cos(theta); the normalization is
    carried incrementally so no factorial ratios ever appear.
    """
    npts = ct.shape[0]
    A = np.zeros((N + 1, N + 1, npts))
    A[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for k in range(1, N + 1):
        A[k, k] = math.sqrt((2 * k + 1) / (2.0 * k)) * st * A[k - 1, k - 1]
    for k in range(0, N):
        A[k + 1, k] = math.sqrt(2 * k + 3.0) * ct * A[k, k]
    for k in range(0, N + 1):
        for l in range(k + 2, N + 1):
            a_prev = _alpha(l - 1, k)
            a_prev2 = _alpha(l - 2, k)
            A[l, k] = (ct * A[l - 1, k] - a_prev2 * A[l - 2, k]) / a_prev
    return A


def _alpha(l: int, k: int) -> float:
    # Recurrence weight in ct*A_{l,k} = alpha(l,k) A_{l+1,k} + alpha(l-1,k) A_{l-1,k}.
    return math.sqrt(((l + 1) ** 2 - k**2) / ((2 * l + 1.0) * (2 * l + 3.0)))


def basis_matrix(N: int, directions: np.ndarray) -> np.ndarray:
    """Evaluate all harmonics of degree <= N at unit vectors.

    directions: array of shape (npts, 3).  Returns shape (npts, (N+1)^2)
    with columns in ordinal order.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"direction not unit length (deviation {worst:.3e})")
    ct = dirs[:, 2]
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    A = _legendre_normalized(N, ct, st)
    sqrt2 = math.sqrt(2.0)
    # cos(k phi) and sin(k phi) once per order k, not once per (l, k).
    cos = [None] + [np.cos(k * phi) for k in range(1, N + 1)]
    sin = [None] + [np.sin(k * phi) for k in range(1, N + 1)]
    out = np.empty((dirs.shape[0], n_moments(N)))
    for l in range(N + 1):
        out[:, ordinal(l, 0)] = A[l, 0]
        for k in range(1, l + 1):
            out[:, ordinal(l, k)] = sqrt2 * A[l, k] * cos[k]
            out[:, ordinal(l, -k)] = sqrt2 * A[l, k] * sin[k]
    return out


# Lattice symmetries.  An orthogonal g that negates and swaps coordinate
# axes acts on the basis by a signed permutation S_g, Y(g Omega) =
# S_g Y(Omega), stored as (perm, sign): Y_i(g Omega) = sign[i] *
# Y_perm[i](Omega).  So S_g M S_g^T is outer(sign, sign) * M[perm][:, perm].


def _degree_order(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree l and signed order k of every ordinal up to degree N."""
    l = moment_degrees(N)
    return l, np.arange(n_moments(N)) - l * l - l


def _reflection_signs(N: int, axis: int) -> np.ndarray:
    """Signs of the harmonics under Omega_axis -> -Omega_axis (0-based axis);
    the permutation part of a reflection is the identity."""
    l, k = _degree_order(N)
    m = np.abs(k)
    if axis == 0:  # phi -> pi - phi: cos(m phi) gains (-1)^m, sin (-1)^(m+1)
        return np.where(k >= 0, 1.0, -1.0) * (-1.0) ** m
    if axis == 1:  # phi -> -phi: the sine harmonics flip
        return np.where(k >= 0, 1.0, -1.0)
    if axis == 2:  # theta -> pi - theta: A_{l,m} has parity (-1)^(l+m)
        return (-1.0) ** (l + m)
    raise ValueError(f"axis must be 0, 1, or 2, got {axis}")


def _swap_xy(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) of Omega_1 <-> Omega_2, i.e. phi -> pi/2 - phi: even
    orders keep their type with sign (-1)^(m/2) on cos and -(-1)^(m/2) on
    sin; odd orders trade cos and sin with sign (-1)^((m-1)/2)."""
    l, k = _degree_order(N)
    m = np.abs(k)
    odd = m % 2 == 1
    perm = np.where(odd, l * l + l - k, l * l + l + k)
    sign = np.where(odd, (-1.0) ** ((m - 1) // 2),
                    np.where(k >= 0, 1.0, -1.0) * (-1.0) ** (m // 2))
    return perm, sign


def lattice_symmetry(N: int, flips, swap: bool) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) of g = (negate the axes flagged in flips) o (swap
    Omega_1 and Omega_2 when swap is true)."""
    if swap:
        perm, sign = _swap_xy(N)
    else:
        perm, sign = np.arange(n_moments(N)), np.ones(n_moments(N))
    for axis, flip in enumerate(flips):
        if flip:
            sign = sign * _reflection_signs(N, axis)
    return perm, sign


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and positive weights integrating spherical polynomials exactly
    up to the stated degree."""

    nodes: np.ndarray    # (n, 3) unit vectors
    weights: np.ndarray  # (n,) positive, summing to 4*pi
    exactness: int
    # degree N -> basis_matrix(N, nodes), read-only
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        norms = np.linalg.norm(self.nodes, axis=1)
        if np.any(np.abs(norms - 1.0) > 1.0e-14):
            raise ValueError("quadrature nodes must be unit vectors")
        if abs(float(np.sum(self.weights)) - 4.0 * math.pi) > TOL:
            raise ValueError("quadrature weights must sum to 4*pi")

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def basis(self, N: int) -> np.ndarray:
        """basis_matrix(N, nodes), built on first use per degree and shared
        read-only by every later caller."""
        B = self._bases.get(N)
        if B is None:
            B = basis_matrix(N, self.nodes)
            B.flags.writeable = False
            self._bases[N] = B
        return B

    def same_rule(self, other: "SphereQuadrature") -> bool:
        """True for the same object, or equal nodes and weights."""
        return self is other or (np.array_equal(self.nodes, other.nodes)
                                 and np.array_equal(self.weights, other.weights))


def build_sphere_quadrature(polar_order: int) -> SphereQuadrature:
    """Product rule: Gauss-Legendre in cos(theta) crossed with 2*polar_order
    equispaced azimuths.  Exactness degree is 2*polar_order - 1."""
    require_integer("polar_order", polar_order)
    if polar_order < 1:
        raise ValueError("polar_order must be >= 1")
    x, wx = np.polynomial.legendre.leggauss(polar_order)
    naz = 2 * polar_order
    phi = 2.0 * math.pi * np.arange(naz) / naz
    waz = math.pi / polar_order
    ct = np.repeat(x, naz)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    ph = np.tile(phi, polar_order)
    nodes = np.column_stack([st * np.cos(ph), st * np.sin(ph), ct])
    weights = np.repeat(wx, naz) * waz
    return SphereQuadrature(nodes=nodes, weights=weights, exactness=2 * polar_order - 1)


def axis_permutation(N: int, perm) -> tuple:
    """Per-degree blocks (R_0, ..., R_N) of the action of the axis
    permutation Pi, (Pi Omega)_i = Omega_perm[i], on the real harmonics:
    Y(Pi Omega) = R Y(Omega) with R = diag(R_0, ..., R_N) orthogonal, the
    real-harmonic rotation matrices of Ivanic and Ruedenberg (J. Phys.
    Chem. 100, 6342, 1996) for a permutation of the axes.  Since
    Pi^T Omega . k = Omega . Pi k, R A(k) R^T = A(Pi k) for the streaming
    matrix A(k) = sum_i k_i A^(i), and so R L_k R^T = L_(Pi k) for a mode
    generator.  R_0 = [[1.0]], Y_0 being constant, and R_l = int Y_l(Pi Omega)
    Y_l(Omega)^T by build_sphere_quadrature(N + 1), exact to degree
    2N + 1; the blocks are built once per (N, perm) and are read-only."""
    require_integer("N", N)
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != [0, 1, 2]:
        raise ValueError(f"perm must order the axes 0, 1, 2, got {perm}")
    return _axis_permutation(int(N), perm)


@functools.lru_cache(maxsize=None)
def _axis_permutation(N: int, perm: tuple) -> tuple:
    quad = build_sphere_quadrature(N + 1)
    B = basis_matrix(N, quad.nodes)
    moved = basis_matrix(N, quad.nodes[:, list(perm)])
    blocks = []
    for l in range(N + 1):
        s = degree_slice(l)
        R = (moved[:, s].T * quad.weights) @ B[:, s] if l else np.ones((1, 1))
        R.flags.writeable = False
        blocks.append(R)
    return tuple(blocks)


@dataclass(frozen=True)
class CouplingSet:
    """Streaming matrices a_l^(i), one per axis i in {1,2,3} and degree
    l in {1..N}; a_l^(i) has shape (2l-1, 2l+1) and couples degree l to l-1."""

    N: int
    blocks: tuple  # blocks[i][l-1] is a_l^(i+1), i in {0,1,2}

    def block(self, axis: int, l: int) -> np.ndarray:
        """a_l for the given axis (1-based) and degree l in {1..N}."""
        if axis not in (1, 2, 3):
            raise ValueError(f"axis must be 1, 2, or 3, got {axis}")
        if not 1 <= l <= self.N:
            raise ValueError(f"degree {l} outside 1..{self.N}")
        return self.blocks[axis - 1][l - 1]

    def full_matrix(self, axis: int) -> np.ndarray:
        """Dense symmetric streaming matrix A^(axis) of size (N+1)^2."""
        nm = n_moments(self.N)
        A = np.zeros((nm, nm))
        for l in range(1, self.N + 1):
            a = self.block(axis, l)
            A[degree_slice(l - 1), degree_slice(l)] = a
            A[degree_slice(l), degree_slice(l - 1)] = a.T
        return A

    def max_spectral_norm(self) -> float:
        return max(
            float(np.linalg.norm(self.block(ax, l), 2))
            for ax in (1, 2, 3)
            for l in range(1, self.N + 1)
        )


def assemble_coupling(N: int) -> CouplingSet:
    """Closed-form coupling matrices from the normalized recurrence weights.

    Entry (r, c) of a_l^(i) is the integral of Omega_i * m_{l-1,k'} * m_{l,k}
    with k' = r - (l-1) and k = c - l.  Verified entrywise against
    coupling_oracle, which is the convention's ground truth.  The blocks of
    degree l depend on l alone: each is built once per process
    (_coupling_degree) and shared read-only, so this only collects degrees
    1..N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    degrees = [_coupling_degree(l) for l in range(1, N + 1)]
    return CouplingSet(N=N, blocks=tuple(zip(*degrees)))


@functools.lru_cache(maxsize=None)
def _coupling_degree(l: int) -> tuple:
    """(a_l^(1), a_l^(2), a_l^(3)), read-only.  Column k + l (order k of
    degree l) couples to rows k' + l - 1 (order k' of degree l - 1): along
    axis 3 to k' = k by alpha(l - 1, |k|), along axes 1 and 2 to |k'| =
    |k| + 1 by the sin(theta) ladder's weight e and to |k'| = |k| - 1 by
    its weight f, with the cos/sin pairing setting each sign and order 0
    taking 1/sqrt(2) in place of 1/2.  So every column has one entry per
    ladder, all written by one indexed assignment: into padding rows where
    k' lies outside degree l - 1, and as +0 where the weight is 0 or the
    column has no such entry."""
    k = np.arange(-l, l + 1)
    kk = np.abs(k)
    sign = np.where(k < 0, -1, 1)  # of k, and +1 at k = 0
    width = (2 * l + 1.0) * (2 * l - 1.0)
    e = np.sqrt(np.maximum((l - kk) * (l - kk - 1), 0) / width)
    f = np.sqrt(np.maximum((l + kk) * (l + kk - 1), 0) / width)
    alpha = np.sqrt((l * l - kk * kk) / ((2 * l - 1.0) * (2 * l + 1.0)))  # _alpha(l - 1, |k|)
    # One row per ladder: axis 1 up and down, axis 2 up and down, axis 3.
    axes = np.array([0, 0, 1, 1, 2])
    orders = np.stack([sign * (kk + 1), sign * (kk - 1), -sign * (kk + 1), -sign * (kk - 1), k])
    half_e, half_f = 0.5 * e, 0.5 * f
    values = np.stack([-half_e, half_f, -sign * half_e, -sign * half_f, alpha])
    root = 1.0 / math.sqrt(2.0)
    values[[0, 2], l] = -root * e[l]  # k = 0 up
    values[1, l + 1] = root * f[l + 1]  # k = 1 down on axis 1
    values[3, l - 1] = root * f[l - 1]  # k = -1 down on axis 2
    values[1, l - 1:l + 1] = 0.0  # k = -1 and 0 have no axis-1 step down,
    values[3, l:l + 2] = 0.0  # k = 0 and 1 no axis-2 step down
    values += 0.0  # -0 to +0
    blocks = np.zeros((3, 2 * l + 3, 2 * l + 1))  # two padding rows each side
    blocks[axes[:, None], orders + l + 1, k + l] = values
    blocks.flags.writeable = False
    return tuple(blocks[:, 2:-2])


def coupling_oracle(N: int, quad: SphereQuadrature) -> CouplingSet:
    """Brute-force coupling entries by quadrature, independent of any
    recurrence algebra.  Requires exactness >= 2N+1."""
    if quad.exactness < 2 * N + 1:
        raise ValueError(
            f"quadrature exactness {quad.exactness} < {2 * N + 1} required for N={N}"
        )
    B = quad.basis(N)
    w = quad.weights
    axes = []
    for i in range(3):
        om = quad.nodes[:, i]
        blocks = []
        for l in range(1, N + 1):
            rows = B[:, degree_slice(l - 1)]
            cols = B[:, degree_slice(l)]
            blocks.append(((w * om)[:, None] * rows).T @ cols)
        axes.append(tuple(blocks))
    return CouplingSet(N=N, blocks=tuple(axes))


def project(values: np.ndarray, N: int, quad: SphereQuadrature) -> np.ndarray:
    """Moments of nodal values: u_{l,k} = sum_j w_j m_{l,k}(Omega_j) v_j.

    values may have extra leading axes; the node axis must come last.
    Requires quadrature exactness >= 2N so the projection is alias-free
    on expansions of degree <= N.
    """
    if quad.exactness < 2 * N:
        raise ValueError(
            f"quadrature exactness {quad.exactness} < {2 * N} required for N={N}"
        )
    B = quad.basis(N)
    return np.asarray(values) @ (quad.weights[:, None] * B)


def evaluate_expansion(moments: np.ndarray, quad: SphereQuadrature) -> np.ndarray:
    """Evaluate a moment expansion at the quadrature's nodes, with the
    quadrature's shared basis."""
    m = np.asarray(moments)
    nm = m.shape[-1]
    N = int(math.isqrt(nm)) - 1
    if n_moments(N) != nm:
        raise ValueError(f"moment axis length {nm} is not a perfect square")
    return m @ quad.basis(N).T


def degree_energy(u: np.ndarray, s: int, lmin: int) -> float:
    """Degree-weighted energy sum_(l >= lmin) (l+1/2)^(2s) ||u_l||^2, summed
    degree by degree over every leading axis of u."""
    u = np.asarray(u)
    N = int(math.isqrt(u.shape[-1])) - 1
    total = 0.0
    for l in range(lmin, N + 1):
        block = u[..., degree_slice(l)]
        total += (l + 0.5) ** (2 * s) * float(np.sum(np.abs(block) ** 2))
    return total


def equivalence_constants(s: int) -> tuple[float, float]:
    """Constants (c1, c2) sandwiching the all-degrees norm between multiples
    of the full H^s norm; both are 1 at s = 0."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return 1.0, 1.0
    c1 = 1.0 / math.sqrt(3.0 * s)
    c2 = math.sqrt(5.0 / s) * (s - 0.5) ** s
    return c1, c2


def project_moments(u: np.ndarray, N: int) -> np.ndarray:
    """Truncate a moment vector to degree <= N (zero-pads if N is larger)."""
    u = np.asarray(u)
    nm_in = u.shape[-1]
    nm_out = n_moments(N)
    if nm_out <= nm_in:
        return u[..., :nm_out].copy()
    out = np.zeros(u.shape[:-1] + (nm_out,), dtype=u.dtype)
    out[..., :nm_in] = u
    return out

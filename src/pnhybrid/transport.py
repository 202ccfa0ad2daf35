"""Monolithic spherical-harmonic solver for the scaled transport equation

    eps d_t psi + Omega . grad psi + (sigma/eps) psi = (sigma/eps) psi_bar + eps q

on the periodic box, plus the exact uncollided (pure-streaming-and-decay)
solver and the diffusion-limit solution.

Spatial modes decouple, so each wavenumber k evolves under the moment-space
generator

    L_k = -(i/eps) sum_i k_i A^(i) - (sigma/eps^2) (I - Pi_0) - sigma_a I,

advanced by matrix exponentials.  PnOperator.step is the only way a mode is
advanced.  The data are real in physical space, c(-k) = conj c(k), and
L_(-k) = conj L_k, so only the half-space H (k = 0 and every k whose first
nonzero component is positive, grid.half_space) is advanced and each other
mode is the conjugate of its -k (grid.fill_conjugates).  Axis reflections
and the x <-> y swap of k conjugate L_k by signed permutations of the real
harmonic basis, and the other axis permutations by orthogonal matrices
with one block per degree (harmonics.axis_permutation).  So the modes of H
fall into cubic classes, and only a class's representative c*, |k| sorted
in descending order, gets a dense generator and an expm: a mode k =
g Pi c* turns its vector into c*'s frame, R^T S_g^T v, and the result back,
S_g R y, degree block by degree block.  One propagator is stored per class
and step length, none per mode, and a generator lives only while its
class's exponentials are taken.  A step takes one product P @ X per class,
X holding the class's vectors in c*'s frame as columns.  A 1D wavevector
is its own representative and every 1D class holds one mode of H, so there
X is one column, numpy runs the gemv of a single mode, and a 1D step is
bit-identical to a loop over modes.  A class of several modes (2D and 3D
grids) takes a gemm, which sums in another order than the loop and agrees
with it to 1e-12 relative.  assemble_mode_operator is the one builder of a
dense generator: a class representative's, a sourced mode's (inside its
augmented generator), and the tests' dense oracle.

Up to a permutation a generator is block-diagonal (four blocks for k on
the x or y axis, 2N+1 on the z axis, two in a coordinate plane, one for a
generic k, a diagonal at k = 0), and so is its exponential.  A
representative off the axes, one with two or more nonzero components,
finds its blocks once (connected_blocks) and takes one stacked expm per
block width, at every N; so does every representative of a wide operator,
one whose moment space is wider than DENSE_EXPM_MAX_MOMENTS (N >= 17): at
N = 28 and k = (1,0,0) the four blocks are at most 225 wide, where the
dense generator is 841.  Streaming couples degree l only to l +- 1, so
with D = diag(i^l) every D^-1 L_k D is real, and each block wider than 1
is exponentiated as a real matrix (about half the work of the complex one)
and turned back by exact products with +-1 and +-i.  On one BLAS thread of
a shared 2-core machine at N = 11, eps = 0.5, sigma = 1 and h = 0.375, one
144-wide class took 6.2-6.8 ms as a dense complex expm, 0.9-1.2 ms split
in a coordinate plane (blocks 66 and 78 wide) and 2.5-2.6 ms as one real
block off the planes; at N = 5, 0.20 ms against 0.10-0.13 ms.  Only a
narrow operator's representatives on the axis, k = 0 and k = (a, 0, 0),
which are all the classes a 1D grid has, take one dense complex expm: the
split and the real frame move last bits of the propagators, which the
benchmark goldens pin up to 289 moments on 1D grids.  On one BLAS thread
of a shared 2-core machine, building one axis permutation's blocks, once
per (N, permutation) and process, took 40-55 ms at N = 20 and 120-160 ms
at N = 28, where the block-split expm a class saves took 3-4 and 16-19 ms
on the z axis, 18-21 and 80-93 ms at k = (1,0,1), and 50-58 and 258-287 ms
at k = (2,1,3).

External sources are finite sums of polynomial-times-exponential terms and
are integrated exactly in time: in moment space by a step plus the source
block of one exponential of the mode generator augmented with the source's
time factors (Van Loan, IEEE TAC 23(3), 1978), along characteristics by
phi-functions (Hochbruck-Ostermann, Acta Numerica 2010).  PnOperator.step
also takes the hybrid's isotropic re-emission drive on H, which reaches
each mode through e_0 alone, by Gauss-Legendre Duhamel quadrature on short
substeps, keeping only the e_0 column of each node propagator; the drive
is sampled once per substep, at its 12 node times together.  The
uncollided rates lambda(k, Omega) depend on (k, Omega) only through k.Omega,
so an UncollidedFlow (uncollided_flow) stores each distinct rate once, with
the source's nodal profiles, and its advance takes the exponentials and
each source term's response on those alone and gathers them per (mode of
H, node), at one time or at an array of times in one call.  The decay is
bit for bit the full-array evaluation, and each time of an array keeps the
bits of a call at that time alone.  On one BLAS thread of a shared 2-core
machine, one call per substep, not per node, took a hybrid-dt-diffusive
sweep from 0.41-0.52 s to 0.31 s (minima of 7 runs, three alternating
sets).  A term's response, sum_j p^(j) h^(j+1) phi_(j+1), is one pass over
the rates: the phi recurrence started from the carrier's exponential where
|z| is large, one power series with scalar coefficients where it is small
(taken one time at a time, as its coefficients depend on the time).  Each term
forms its derivative polynomials once (grid.FieldTerm) and every sourced
path reads them from there.

Each mode's matrices are small, and OpenBLAS threads cost more than they
give on them: on a 2-core machine with 2-thread pools a 36-wide expm took
8.0 ms threaded and 0.24 ms serial, and a perfbench verify-pn pass, whose
degree-24 and 28 references take the block-split exponentials, 0.60 s
threaded and 0.51 s serial (medians, serial faster in 10 of 10 pairs).  So
solve_pn (and hybrid.run_hybrid) run with every OpenBLAS pool at one
thread, restoring the pools' counts when the solve returns or raises
(blas.single_thread).  Other BLAS builds are untouched.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from . import blas
from . import grid as gr
from . import harmonics as sh

# Gauss-Legendre nodes per Duhamel substep, and the target on
# |fastest rate| * substep that keeps the rule near machine accuracy
# (error ~ (rho*h)^(2n)/(2n)! with n nodes).
_DUHAMEL_NODES = 12
_SUBSTEP_BUDGET = 3.0


@functools.lru_cache(maxsize=None)
def _duhamel_rule() -> tuple:
    """(nodes, weights) of the Gauss-Legendre rule on [-1, 1], read-only:
    an eigenvalue solve that each Duhamel step used to repeat."""
    rule = np.polynomial.legendre.leggauss(_DUHAMEL_NODES)
    for array in rule:
        array.flags.writeable = False
    return rule

# Below this |z| the phi-functions are summed from their Taylor series, where
# the recurrence phi_(j+1)(z) = (phi_j(z) - 1/j!)/z cancels (z = 0 occurs
# exactly: no scattering, a constant source, k.Omega = 0).  The 20-term
# series leaves a truncation below 1e-18 there, and above the switch the
# recurrence stays within 1e-14 relative of phi_0..phi_4 (checked against
# 50-digit arithmetic); the same split as bounds.TAU_STAR.
PHI_SERIES_BELOW = 1.0
_PHI_SERIES_TERMS = 20


@functools.lru_cache(maxsize=None)
def _series_table(n: int) -> np.ndarray:
    """1/(m+j+1)! in row m < _PHI_SERIES_TERMS and column j < n, so that
    the table times (p^(j)(a) h^(j+1))_j is the response's series
    coefficients c_m."""
    table = np.array([[1.0 / math.factorial(m + j + 1) for j in range(n)]
                      for m in range(_PHI_SERIES_TERMS)])
    table.flags.writeable = False
    return table


# Widest moment space, n_moments(N) = (N+1)^2, whose representatives on the
# axis (k = 0 and k = (a, 0, 0)) take one dense complex expm (N <= 16);
# wider ones, and every representative off the axis at any N, split it over
# the generator's connected blocks and take each block in the real frame
# (PnOperator._exp).
# On one BLAS thread of a 2-core machine at k = (1,0,0), eps = sigma = 1,
# the dense complex, split complex and split real-frame expm took
#     N = 17:  49.9,  5.9,  2.9 ms      N = 20: 117.5, 12.7,  6.1 ms
#     N = 24:   311, 29.7, 13.8 ms      N = 28:   694, 64.1, 27.7 ms.
# The split moves last bits of a propagator, and the perfbench goldens
# compare the padded %.17g cells of the plot tables as text, where a value
# that loses a digit changes the padding: splitting the 169- and 289-wide
# references of the hybrid dt sweeps moved 2.1485115505547617e-06 to
# 2.148511550556308e-06.  289 wide (N = 16) is the widest moment space
# whose propagators those goldens pin (those references, and the degree-12
# and 16 references of sobolev-n-sweep), so its on-axis classes, the only
# ones a 1D grid has, stay dense.
DENSE_EXPM_MAX_MOMENTS = 289

# Re(i^d) - Im(i^d) and i^(d mod 2), indexed by d mod 4 and d mod 2: the
# real-frame factors of PnOperator._exp.
_FRAME_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_FRAME_PHASES = np.array([1.0, 1j])

# Most intervals M = T/dt a ProblemSpec may have: the shipped configs and
# benchmark workloads use at most 16, and 10^6 interval edges fit in memory.
MAX_INTERVALS = 10**6


def _as_fraction(x, name="time") -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if not isinstance(x, (float, str)):
        raise TypeError(f"cannot interpret {x!r} as an exact time")
    try:
        return Fraction(x) if isinstance(x, str) else Fraction(Decimal(repr(x)))
    except (ValueError, OverflowError):
        raise ValueError(f"{name} must be a finite number, got {x!r}") from None


@dataclass(frozen=True)
class ProblemSpec:
    """A complete problem instance: scaling, cross sections, separable
    initial data g and source q, final time and step (kept as exact
    rationals so the interval schedule is reproducible)."""

    name: str
    eps: float
    sigma_t: float
    sigma_a: float
    g: tuple
    q: tuple
    T: Fraction
    dt: Fraction

    def __post_init__(self):
        # An exact time past the float range would read as inf, or as 0
        # although it is not.  Its numeral may run to hundreds of digits, so
        # the message does not repeat it.
        for name in ("T", "dt"):
            value = getattr(self, name)
            try:
                in_range = float(value) != 0.0 or value == 0
            except OverflowError:
                in_range = False
            if not in_range:
                raise ValueError(f"{name} must be within the float range (0, or "
                                 f"magnitude 5e-324 to 1.8e308)")
        for name in ("eps", "sigma_t", "sigma_a", "T", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.sigma_t < 0.0:
            raise ValueError(f"sigma_t must be nonnegative, got {self.sigma_t}")
        if not 0.0 <= self.sigma_a <= self.sigma_t:
            raise ValueError(
                f"sigma_a must satisfy 0 <= sigma_a <= sigma_t, got {self.sigma_a}"
            )
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if (self.T / self.dt).denominator != 1:
            raise ValueError(f"M*dt != T: dt={self.dt} does not divide T={self.T}")
        if self.T / self.dt > MAX_INTERVALS:
            raise ValueError(f"dt must leave at most {MAX_INTERVALS} intervals "
                             f"M = T/dt, got dt={self.dt} for T={self.T}")
        # The solvers advance the half-space H of the modes and take each -k
        # as the conjugate, which holds for data real in physical space.
        gr.require_real_terms("g", self.g)
        gr.require_real_terms("q", self.q)
        # A source growing past the float range would overflow every solver
        # (or, in moment space, turn the solution to nan without an error).
        for tm in self.q:
            if tm.time_exp * self.t_final > math.log(sys.float_info.max):
                raise ValueError(f"q time_exp {tm.time_exp} must keep exp(time_exp * t) "
                                 f"within the float range on [0, T={self.T}]")

    @property
    def M(self) -> int:
        return int(self.T / self.dt)

    @property
    def t_final(self) -> float:
        return float(self.T)

    def interval_edges(self) -> list[float]:
        return [float(self.dt * m) for m in range(self.M + 1)]


def problem(name, eps, sigma_t, g, q=(), sigma_a=0.0, T=1, dt=None) -> ProblemSpec:
    """Build a ProblemSpec, accepting floats/strings/Fractions for times."""
    Tf = _as_fraction(T, "T")
    dtf = _as_fraction(dt, "dt") if dt is not None else Tf
    return ProblemSpec(
        name=name,
        eps=float(eps),
        sigma_t=float(sigma_t),
        sigma_a=float(sigma_a),
        g=tuple(g),
        q=tuple(q),
        T=Tf,
        dt=dtf,
    )


def default_grid(spec: ProblemSpec) -> gr.SpatialGrid:
    return gr.grid_for(spec.g, spec.q)


def initial_field(spec: ProblemSpec, grid: gr.SpatialGrid, N: int) -> gr.MomentField:
    """Degree-truncated moments of g on the grid."""
    L = max(N, gr.angular_band(spec.g))
    return gr.moment_field(grid, L, spec.g).truncate(N)


def assemble_mode_operator(
    k: tuple[int, int, int],
    N: int,
    eps: float,
    sigma: float,
    coupling: sh.CouplingSet,
    sigma_a: float = 0.0,
) -> np.ndarray:
    """Dense generator of spatial mode k in moment space, from a coupling
    set of degree N or above."""
    if coupling.N < N:
        raise ValueError(f"coupling set holds degrees <= {coupling.N} < N={N}")
    nm = sh.n_moments(N)
    L = np.zeros((nm, nm), dtype=complex)
    for ax in range(3):
        if k[ax] != 0:
            L += (-1j * k[ax] / eps) * coupling.full_matrix(ax + 1)[:nm, :nm]
    scatter = np.full(nm, -sigma / eps**2)
    scatter[0] = 0.0
    L[np.diag_indices(nm)] += scatter - sigma_a
    return L


def is_narrow(N: int) -> bool:
    """Whether the degree-N moment space is at most DENSE_EXPM_MAX_MOMENTS
    wide, so that each on-axis representative's exponential is one dense
    expm."""
    return sh.n_moments(N) <= DENSE_EXPM_MAX_MOMENTS


def connected_blocks(L: np.ndarray) -> list:
    """The connected components of the nonzero pattern of the square matrix
    L, symmetrised: one (blocks, w) index array per block width w, in
    ascending w, each block's indices ascending.  L is block-diagonal under
    the permutation that lists the blocks in turn, and so is every function
    of it, expm(h L) included.  Labels are propagated along the nonzeros
    (each index takes the least label of its neighbours, then its label's
    label) until they settle on each component's least index."""
    n = L.shape[0]
    rows, cols = np.nonzero(L)
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # A stable sort keeps each component's indices ascending.
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    widths = np.diff(np.append(starts, n))
    return [np.stack([order[s:s + w] for s in starts[widths == w]])
            for w in np.unique(widths)]


def cubic_representative(c) -> tuple:
    """(c*, perm) for a wavevector c of nonnegative entries: c* is c sorted
    in descending order, the representative of its orbit under the cubic
    group, and perm the axis permutation with c_i = c*_perm[i] (None when
    c == c*), so that L_c = R L_(c*) R^T for R = sh.axis_permutation(N,
    perm)."""
    order = sorted(range(3), key=lambda i: -c[i])
    star = tuple(c[i] for i in order)
    if star == tuple(c):
        return star, None
    return star, tuple(order.index(i) for i in range(3))


def _step_length(h) -> float:
    h = float(h)
    if not (math.isfinite(h) and h >= 0.0):
        raise ValueError(f"h must be finite and nonnegative, got {h}")
    return h


def _start_time(t0) -> float:
    t0 = float(t0)
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    return t0


def _real_view_block(R: np.ndarray) -> np.ndarray:
    """kron(R, I_2): a complex vector's real view interleaves real and
    imaginary parts, so v^T R is that view times this real matrix."""
    K = np.zeros((2 * R.shape[0], 2 * R.shape[1]))
    K[0::2, 0::2] = R
    K[1::2, 1::2] = R
    return K


class _ClassStack:
    """The half-space H of a box's spatial modes, grouped by cubic class for
    one product per class.

    H holds k = 0 and every k whose first nonzero component is positive,
    the rows of the flat mode box from k = 0 on (grid.half_space); every
    other mode is -k of an H mode and takes the conjugate of its vector
    (grid.fill_conjugates).  An H mode k is reached from its class's
    representative c* (cubic_representative) as k = g Pi c*: an axis
    permutation Pi, then a lattice symmetry g (axis reflections and the
    x <-> y swap).  Its vector v enters c*'s frame as R^T S_g^T v and leaves
    it as S_g R y, with S_g g's signed permutation and R = diag(R_0, ...,
    R_N) Pi's per-degree blocks (sh.axis_permutation), both applied to the
    vectors.

    Row i of the stack is mode rows[i], a flat index into the mode box.
    S_g^T v = sign_in * v[inv] and S_g y = sign * y[perm], with the identity
    permutation and all-ones signs on the rows g leaves alone, which
    multiply exactly.  turned lists (stack rows, per-degree real-view
    blocks of R) per axis permutation; a 1D or 2D wavevector (k3 = 0)
    needs none, so flat grids turn nothing.  A class's rows are
    contiguous, in box order, and classes lists (c*, slice) in order of
    first appearance."""

    def __init__(self, modes, N):
        nm = sh.n_moments(N)
        rank = {}
        keyed = []
        for row, (_, k) in enumerate(modes[len(modes) // 2:], start=len(modes) // 2):
            a = [abs(x) for x in k]
            # k = g c with g = (negate axes where k < 0) o (swap x, y if |k1| < |k2|).
            c = (max(a[0], a[1]), min(a[0], a[1]), a[2])
            star, turn = cubic_representative(c)
            keyed.append((rank.setdefault(star, len(rank)), row, star, turn, k != c, k))
        keyed.sort(key=lambda e: e[:2])
        self.perm = np.tile(np.arange(nm), (len(keyed), 1))
        self.sign = np.ones((len(keyed), nm))
        symmetries = {}  # (flips, swap) -> sh.lattice_symmetry
        turned = {}
        for i, (_, _, _, turn, moved, k) in enumerate(keyed):
            if moved:
                g = (tuple(x < 0 for x in k), abs(k[0]) < abs(k[1]))
                if g not in symmetries:
                    symmetries[g] = sh.lattice_symmetry(N, *g)
                self.perm[i], self.sign[i] = symmetries[g]
            if turn is not None:
                turned.setdefault(turn, []).append(i)
        self.turned = [(np.array(rows, dtype=np.intp),
                        [_real_view_block(R) for R in sh.axis_permutation(N, turn)])
                       for turn, rows in sorted(turned.items())]
        self.rows = np.array([e[1] for e in keyed], dtype=np.intp)
        self.drive = self.rows - len(modes) // 2  # each row's entry of a vector over H
        self.inv = np.argsort(self.perm, axis=1)
        self.sign_in = np.take_along_axis(self.sign, self.inv, axis=1)
        self._gather = self.rows[:, None] * nm + self.inv
        self.classes = []
        start = 0
        for end in range(1, len(keyed) + 1):
            if end == len(keyed) or keyed[end][0] != keyed[start][0]:
                self.classes.append((keyed[start][2], slice(start, end)))
                start = end

    def _turn(self, x: np.ndarray, transpose: bool) -> None:
        """Every turned row's vector, in place on x (..., stack rows, nm),
        times R^T (into the frame) or, with transpose, R (out of it), degree
        block by degree block; the vectors are rows, so R^T v is v^T R."""
        for rows, blocks in self.turned:
            xs = x[..., rows, :]
            real = xs.view(float)
            for l, K in enumerate(blocks):
                s = slice(2 * l * l, 2 * (l + 1) ** 2)
                real[..., s] = real[..., s] @ (K.T if transpose else K)
            x[..., rows, :] = xs

    def into_rep(self, box: np.ndarray) -> np.ndarray:
        """R^T S_g^T v of each H row's vector v of box (modes, nm), stacked."""
        x = box.reshape(-1).take(self._gather)
        x *= self.sign_in
        self._turn(x, False)
        return x

    def from_rep(self, y: np.ndarray, box: np.ndarray) -> None:
        """box[rows] = S_g R y for frame vectors y (stack rows, nm), which it
        overwrites, and every other mode of box (modes, nm) the conjugate of
        its -k."""
        self._turn(y, True)
        z = np.take_along_axis(y, self.perm, axis=1)
        z *= self.sign
        box[self.rows] = z
        gr.fill_conjugates(box)


class PnOperator:
    """Propagators of one discretization, applied only through step.  Only
    the half-space H of the modes is advanced: L_(-k) is conj L_k, so on a
    box that is real in physical space, c(-k) = conj c(k) (which step
    requires), each other mode is the conjugate of its -k.  H is grouped by
    cubic class (_ClassStack): one representative c* per orbit of the axis
    permutations, reflections and the x <-> y swap, c* sorted in descending
    order (cubic_representative).  A mode k = g Pi c* is advanced in c*'s
    frame, P_k v = S_g R P_(c*) R^T S_g^T v, with the signed permutation S_g
    and the axis permutation's degree blocks R (sh.axis_permutation)
    applied to the vector, so no per-mode or turned matrix is ever formed
    and a class costs one expm per step length or Duhamel node.  The
    representatives' propagators are cached per (class, h) in _reps and
    the e_0 columns of their Duhamel nodes per (class, substep) in _nodes:
    memory grows with classes and step lengths, not with modes, and
    repeated equal-length steps cost no further expm.  A generator is
    assembled for each batch of expm calls on its class (one step length,
    or one Duhamel substep's propagators) and dropped after it.  Every such
    exponential is taken by _exp: one dense complex expm for a
    representative on the axis (k = 0 or (a, 0, 0)) of a narrow operator
    (is_narrow), and otherwise (_split) one stacked real-frame expm per
    block width of the generator's connected blocks, found once per
    representative, scattered into the dense propagator.  step takes one
    product P_(c*) @ X per class, X holding the class's H vectors as
    columns, and per Duhamel node its e_0 column times the class's drive
    (every turn fixes e_0); on a 1D grid every class holds one H mode, so
    those products keep the bits of a loop over modes."""

    def __init__(self, grid, N, eps, sigma, sigma_a=0.0):
        sh.require_integer("N", N)
        if N < 0:
            raise ValueError(f"N must be nonnegative, got {N}")
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be finite and positive, got {eps}")
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
        if not 0.0 <= sigma_a <= sigma:
            raise ValueError(f"sigma_a must satisfy 0 <= sigma_a <= sigma, got {sigma_a}")
        self.grid = grid
        self.N = int(N)
        self.eps = float(eps)
        self.sigma = float(sigma)
        self.sigma_a = float(sigma_a)
        self._coupling = sh.assemble_coupling(max(N, 1))
        self.nm = sh.n_moments(N)
        axes = [grid.wavenumbers(ax).tolist() for ax in range(3)]
        self._modes = [(idx, tuple(axes[ax][idx[ax]] for ax in range(3)))
                       for idx in np.ndindex(grid.shape)]
        self._stack = _ClassStack(self._modes, self.N)
        # Fastest rate of any mode, a bound on the spectral radius of L_k:
        # scattering, absorption and the streaming speed |k|/eps.
        self.max_rate = max(
            sigma / eps**2 + sigma_a + math.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) / eps
            for _, k in self._modes
        )
        self._narrow = is_narrow(self.N)
        self._blocks: dict = {}  # c -> connected_blocks(L_c), split classes only
        self._reps: dict = {}  # (c, h) -> expm(h L_c)
        self._nodes: dict = {}  # (c, hs) -> expm((hs - tau_m) L_c)[:, 0], (nodes, nm)

    def modes(self) -> list:
        """[(index, wavevector)] of every spatial mode of the grid."""
        return self._modes

    def _split(self, c) -> bool:
        """Whether c's exponential is taken block by block: always off the
        axis (two or more nonzero components), and on it (k = 0 and the
        axes) only on a wide operator."""
        return not self._narrow or np.count_nonzero(c) > 1

    def _generator(self, c) -> np.ndarray:
        """L_c; when c is split its connected blocks are found, and kept,
        the first time."""
        L = assemble_mode_operator(c, self.N, self.eps, self.sigma, self._coupling,
                                   self.sigma_a)
        if self._split(c) and c not in self._blocks:
            self._blocks[c] = connected_blocks(L)
        return L

    def _exp(self, c, A: np.ndarray) -> np.ndarray:
        """expm(A) for A = h L_c, a multiple of representative c's generator:
        the one place a representative's exponential is taken.  A narrow
        operator's representatives on the axis take one dense complex expm,
        which keeps the bits of every 1D grid.  Every other c (_split) takes
        one stacked expm per block width of L_c's connected blocks, shaped
        (blocks, w, w), and scatters the blocks into the dense propagator,
        whose other entries are exactly zero.  Blocks wider than 1 are taken
        in the real frame: streaming couples degree l only to l +- 1 through
        -i times a real matrix, and the diagonal is real, so with D =
        diag(i^l) the entries (D^-1 A D)_pq = A_pq i^(l_q - l_p) are real,
        and expm(A) = D expm(D^-1 A D) D^-1 is a real expm multiplied
        entrywise by i^(l_p - l_q).  No complex factor is formed: with d =
        (l_q - l_p) mod 4, A_pq is real for even d and imaginary for odd d,
        so the real entry is s_d (Re A_pq + Im A_pq) with the sign s_d =
        Re(i^d) - Im(i^d), and the propagator's entry is s_d E_pq times
        i^(d mod 2), all exact.  1-wide blocks (k = 0 and the |m| = N blocks
        on the z axis of a wide operator) take the complex expm, whose 1 x 1
        path the dense one shares."""
        if not self._split(c):
            return expm(A)
        P = np.zeros_like(A)
        degree = sh.moment_degrees(self.N)
        for idx in self._blocks[c]:
            square = (idx[:, :, None], idx[:, None, :])
            block = A[square]
            if idx.shape[1] == 1:
                P[square] = expm(block)
                continue
            l = degree[idx]
            d = (l[:, None, :] - l[:, :, None]) & 3  # i^d = i^(l_q - l_p)
            sign = _FRAME_SIGNS[d]
            frame = block.real + block.imag
            frame *= sign
            del block  # freed before the expm runs
            E = expm(frame)
            E *= sign
            P[square] = E * _FRAME_PHASES[d & 1]
        return P

    def _rep(self, c, h: float, L=None) -> np.ndarray:
        """expm(h L_c), taken by _exp once per (c, h); L_c is assembled
        unless the caller passes it."""
        P = self._reps.get((c, h))
        if P is None:
            # An assembled L_c is a temporary, freed before the expm runs.
            A = h * (self._generator(c) if L is None else L)
            P = self._reps[(c, h)] = self._exp(c, A)
        return P

    def _substep(self, c, hs: float, taus) -> tuple:
        """(expm(hs L_c), the e_0 column of expm((hs - tau) L_c) per Duhamel
        node, stacked (nodes, nm)), all taken from one assembly of L_c."""
        cols = self._nodes.get((c, hs))
        if cols is not None:
            return self._rep(c, hs), cols
        L = self._generator(c)
        P = self._rep(c, hs, L)
        cols = np.empty((len(taus), self.nm), dtype=complex)
        for m, tau in enumerate(taus):
            cols[m] = self._exp(c, float(hs - tau) * L)[:, 0]
        self._nodes[(c, hs)] = cols
        return P, cols

    def _box(self, out: np.ndarray) -> np.ndarray:
        """out, shaped (modes, nm) without a copy."""
        if out.shape != self.grid.shape + (self.nm,):
            raise ValueError(f"coefficient shape {out.shape} does not match "
                             f"{self.grid.shape + (self.nm,)}")
        return out.reshape(-1, self.nm)

    def substeps_for(self, h: float, extra_rate: float = 0.0) -> int:
        return max(1, math.ceil((self.max_rate + extra_rate) * h / _SUBSTEP_BUDGET))

    def step(self, coeffs, h, source=None, t0=0.0, substeps=None):
        """Advance coefficients by h: exact exponential when source is None,
        otherwise exponential plus Gauss-Legendre Duhamel on substeps (a
        positive integer, substeps_for(h) when None) from the finite start
        time t0.  The coefficients must be Hermitian, c(-k) = conj c(k), and
        source(times) is the isotropic re-emission drive, the e_0 moment of
        the forcing on the half-space H, at the Duhamel nodes of a substep:
        given that substep's 12 node times as one array, it returns one row
        per time and one value per mode of H in box order, shaped (12, H).
        So source is called once per substep."""
        h = _step_length(h)
        if source is not None:
            t0 = _start_time(t0)
            if substeps is not None:
                sh.require_integer("substeps", substeps)
                if substeps < 1:
                    raise ValueError(f"substeps must be positive, got {substeps}")
        out = np.array(coeffs, dtype=complex, copy=True)
        stack = self._stack
        box = self._box(out)
        gr.require_hermitian("coefficients", box)
        v = stack.into_rep(box)
        if source is None:
            y = np.zeros_like(v)
            for c, rows in stack.classes:
                # Modes decouple, so a class holding only zeros stays zero
                # and needs no propagator.
                if v[rows].any():
                    y[rows] = (self._rep(c, h) @ v[rows].T).T
            stack.from_rep(y, box)
            return out
        nsub = substeps if substeps is not None else self.substeps_for(h)
        hs = h / nsub
        x, w = _duhamel_rule()
        taus = 0.5 * hs * (x + 1.0)
        wts = 0.5 * hs * w
        props = [(rows,) + self._substep(c, hs, taus) for c, rows in stack.classes]
        u = np.empty_like(v)
        t = np.empty((_DUHAMEL_NODES,) + v.shape, dtype=complex)
        # Per substep each class takes the propagated state and every node's
        # e_0 column times the shared drive samples, summed node by node in
        # the representatives' frames, where the state stays between substeps.
        for j in range(nsub):
            ta = t0 + j * hs
            q = np.asarray(source(ta + taus))
            if q.shape != (_DUHAMEL_NODES, len(stack.rows)):
                raise ValueError(f"source samples must be shaped ({_DUHAMEL_NODES}, "
                                 f"{len(stack.rows)}), one drive per Duhamel node and "
                                 f"half-space mode, got {q.shape}")
            q = q[:, stack.drive]
            for rows, P, cols in props:
                u[rows] = (P @ v[rows].T).T
                t[:, rows] = (cols[:, :, None] @ q[:, None, rows]).swapaxes(1, 2)
            for m in range(_DUHAMEL_NODES):
                u += wts[m] * t[m]
            u, v = v, u
        stack.from_rep(v, box)
        return out


class SourcedModes:
    """Exact time integration of an external source in moment space.

    A source term p(t) e^(mu t) x (spatial modes) x (angular profile) with
    deg p = d is generated by w' = J w, w_j(t) = p^(j)(t) e^(mu t), where J
    has mu on the diagonal and 1 above it.  On a mode k the terms reach,
    (u, w) therefore evolves under the augmented generator
    [[L_k, B], [0, J]], B = (profile) e_0^T per term, whose exponential is
    [[expm(h L_k), F], [0, expm(h J)]] (Van Loan 1978): over a step, u goes
    to expm(h L_k) u + F w(t0), with the Duhamel integral in closed form in
    F.  So every mode, reached or not, is advanced by PnOperator.step, and
    each reached mode of the half-space H then adds F w(t0); the terms are
    real in physical space, so every other mode is the conjugate of its -k.
    F, the nm x d top-right block of one expm of the augmented generator,
    is all that is cached, per (H mode, h); the term amplitudes enter
    through w(t0).
    """

    def __init__(self, op: PnOperator, terms):
        gr.require_real_terms("q", terms)
        self.op = op
        half = len(op.modes()) // 2
        self._pieces = {}  # H mode index -> [(amplitude, term, truncated profile)]
        for tm in terms:
            ang = np.zeros(op.nm)
            n = min(op.nm, len(tm.angular))
            ang[:n] = tm.angular[:n]
            for k, amp in tm.spatial:
                idx = op.grid.index_of(k)
                if np.ravel_multi_index(idx, op.grid.shape) >= half:
                    self._pieces.setdefault(idx, []).append((amp, tm, ang))
        self._wavevector = dict(op.modes())
        self._forcing = {}  # (reached H mode, h) -> F

    def _forcing_block(self, idx, h: float) -> np.ndarray:
        """F, the top-right nm x d block of expm(h [[L_k, B], [0, J]])."""
        F = self._forcing.get((idx, h))
        if F is None:
            op, nm = self.op, self.op.nm
            pieces = self._pieces[idx]
            size = nm + sum(len(tm.time_poly) for _, tm, _ in pieces)
            A = np.zeros((size, size), dtype=complex)
            A[:nm, :nm] = assemble_mode_operator(self._wavevector[idx], op.N, op.eps,
                                                 op.sigma, op._coupling, op.sigma_a)
            col = nm
            for _, tm, ang in pieces:
                d = len(tm.time_poly)
                A[:nm, col] = ang
                A[col:col + d, col:col + d] = tm.time_exp * np.eye(d) + np.eye(d, k=1)
                col += d
            F = self._forcing[(idx, h)] = expm(h * A)[:nm, nm:].copy()
        return F

    def step(self, coeffs, h: float, t0: float) -> np.ndarray:
        """Advance coefficients from t0 to t0 + h, source included."""
        h = _step_length(h)
        t0 = _start_time(t0)
        out = self.op.step(coeffs, h)
        for idx, pieces in self._pieces.items():
            w0 = np.concatenate([
                amp * math.exp(tm.time_exp * t0) * np.array(tm.time_derivatives(t0))
                for amp, tm, _ in pieces
            ])
            out[idx] += self._forcing_block(idx, h) @ w0
        gr.fill_conjugates(self.op._box(out))
        return out


@dataclass
class SolveResult:
    final: gr.MomentField


def solve_pn(spec: ProblemSpec, N: int, grid=None) -> SolveResult:
    """Monolithic spherical-harmonic solve from t = 0 to T.

    Absorption acts directly through the generator.  The one step goes
    through SourcedModes, which integrates the source exactly in time and is
    PnOperator.step alone when there is none.  Every OpenBLAS pool runs at
    one thread (blas.single_thread).
    """
    with blas.single_thread():
        if grid is None:
            grid = default_grid(spec)
        op = PnOperator(grid, N, spec.eps, spec.sigma_t, spec.sigma_a)
        sourced = SourcedModes(op, spec.q)
        coeffs = sourced.step(initial_field(spec, grid, N).coeffs, spec.t_final, 0.0)
        return SolveResult(final=gr.MomentField(grid, N, coeffs))


@dataclass(frozen=True)
class UncollidedFlow:
    """The exact flow of the uncollided equation d_t v = -lambda v + q along
    each (mode, direction) characteristic, on one grid and quadrature.

    The flow covers the half-space H of the modes (grid.half_space): every
    field it advances is real in physical space, and each other mode is the
    conjugate of its -k, since lambda(-k, Omega) is conj lambda(k, Omega).
    The complex decay rates lambda(k, Omega) = sigma/eps^2 + sigma_a
    + i k.Omega/eps depend on (k, Omega) only through k.Omega, which
    repeats across the quadrature's reflections and over every node of
    k = 0.  distinct holds each rate of H once, two rates being equal when
    their 16-byte bit patterns are (so +0 and -0 stay apart); index,
    shaped (H modes, nodes), holds each (mode, node)'s position in
    distinct.  An elementwise function of lambda is therefore taken on
    distinct and gathered with index: equal input bits give equal output
    bits, so a flow without a source advances byte for byte as the
    full-array evaluation.  Rates of H can be bitwise conjugates of each
    other, k.Omega = -k'.Omega' exactly at some pairs of nodes, so distinct
    ends in its conjugate pairs: with n = distinct.size, entry
    n - pairs + j is the conjugate of entry n - 2 pairs + j, whose imaginary
    part is > 0; every rate before those, the real ones included, has no
    partner.  profiles holds the source's space-angle factors at the nodes,
    one (term, values[H mode, node]) pair per term, time factor left out;
    each term's response is taken once per distinct rate and agrees with
    the phi-function evaluation to 1e-12 relative.  Every array is
    read-only."""

    distinct: np.ndarray
    index: np.ndarray
    profiles: tuple
    pairs: int

    def advance(self, values: np.ndarray, a: float, b) -> np.ndarray:
        """The half-space H of the nodal values, shaped grid.shape + (nodes,),
        advanced from a to b, one time or a 1-D array of times: shaped (H
        modes, nodes) for one time and (times, H modes, nodes) for an array.
        That is the decay exp(-lam (b - a)) plus the exact source integral of
        exp(-lam (b - tau)) q(tau) over [a, b], each term's response
        (_source_response) taken on the distinct rates, gathered and
        multiplied by its profile.  Each time's values are bit for bit those
        of a call at that time alone.  grid.from_half completes the box."""
        h = np.asarray(b, dtype=float) - a
        # One complex exp per conjugate pair: exp(conj z) is conj exp(z)
        # bit for bit, and -lam h of a pair are conjugates up to the sign of
        # a zero real part, which exp ignores.
        own = self.distinct.size - self.pairs
        decay = np.empty(h.shape + self.distinct.shape, dtype=complex)
        decay[..., :own] = np.exp(-self.distinct[:own] * h[..., None])
        np.conj(decay[..., own - self.pairs:own], out=decay[..., own:])
        # take gathers a C-contiguous stack, and each product is written over
        # its gathered operand (no second stack).  The values stay the left
        # operand, so the complex product rounds as it does at one time.
        out = np.take(decay, self.index, axis=-1)
        np.multiply(gr.half_space(values.reshape(-1, self.index.shape[-1])), out, out=out)
        for tm, profile in self.profiles:
            response = np.take(self._source_response(tm, decay, a, b), self.index, axis=-1)
            response *= profile
            out += response
        return out

    def _source_response(self, tm, decay: np.ndarray, a: float, b) -> np.ndarray:
        """e^(mu b) sum_j p^(j)(a) h^(j+1) phi_(j+1)(z) per distinct rate, for
        the term p(t) e^(mu t), h = b - a and z = -(lam + mu) h, in one pass;
        b is one time or a 1-D array of times, one row of the result each.
        Where |z| >= PHI_SERIES_BELOW the recurrence phi_(j+1) = (phi_j -
        1/j!)/z runs on e^(mu b) phi_j, from e^(mu b) phi_0(z) = e^(mu a)
        decay, decay = e^(-lam h) being the carrier's exponential; no factor
        leaves the range that e^(mu t) keeps on [a, b].  Elsewhere the sum is
        one power series in z, sum_m c_m z^m with the scalar coefficients c_m
        = sum_j p^(j)(a) h^(j+1)/(m+j+1)!, which differ by time, so that
        branch takes the times in turn.  e^(mu b) and h^(j+1) are taken one
        time at a time, with scalar math, so each row keeps the bits of a
        call at its time alone."""
        mu = tm.time_exp
        b = np.asarray(b, dtype=float)
        h = b - a
        at_end = np.array([math.exp(mu * t) for t in b.reshape(-1)]).reshape(h.shape)
        scaled = np.array([[d * s ** (j + 1) for j, d in enumerate(tm.time_derivatives(a))]
                           for s in h.reshape(-1)]).reshape(h.shape + (-1,))
        z = -(self.distinct + mu) * h[..., None]
        small = np.abs(z) < PHI_SERIES_BELOW
        acc = np.empty_like(z)
        if not small.all():
            big = ~small
            zb = z[big]
            ends = np.broadcast_to(at_end[..., None], z.shape)[big]
            phi = decay[big] * math.exp(mu * a)
            total = 0.0
            for j in range(scaled.shape[-1]):
                phi = (phi - ends / math.factorial(j)) / zb
                total = total + np.broadcast_to(scaled[..., j, None], z.shape)[big] * phi
            acc[big] = total
        for row in np.ndindex(h.shape):
            if small[row].any():
                zs = z[row][small[row]]
                powers = np.cumprod(np.broadcast_to(zs, (_PHI_SERIES_TERMS - 1, zs.size)), axis=0)
                c = _series_table(scaled.shape[-1]) @ scaled[row]
                acc[row][small[row]] = at_end[row] * (c[0] + c[1:] @ powers)
        return acc


def uncollided_flow(grid: gr.SpatialGrid, quad: sh.SphereQuadrature, eps: float,
                    sigma: float, sigma_a: float = 0.0, q_terms=()) -> UncollidedFlow:
    """The UncollidedFlow of the half-space H of the grid's modes and the
    quadrature's nodes under the cross sections and the source terms
    q_terms, which must be real in physical space."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    for name, value in (("sigma", sigma), ("sigma_a", sigma_a)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if sigma_a > sigma:
        raise ValueError(f"sigma_a must satisfy 0 <= sigma_a <= sigma, got {sigma_a}")
    gr.require_real_terms("q", q_terms)
    k1, k2, k3 = grid.k_grids()
    om = quad.nodes
    kdot = (
        k1[..., None] * om[:, 0]
        + k2[..., None] * om[:, 1]
        + k3[..., None] * om[:, 2]
    )
    lam = gr.half_space(((sigma / eps**2 + sigma_a) + 1j * kdot / eps).reshape(-1, len(om)))
    void = np.dtype((np.void, lam.itemsize))
    bits, index = np.unique(lam.reshape(-1).view(void), return_inverse=True)
    distinct = bits.view(complex)
    # Some rates are bitwise conjugates of others.  Order the rates as
    # [unpaired, one of each pair (imaginary part > 0), their conjugates].
    conj = np.conj(distinct).view(void)
    found = np.minimum(np.searchsorted(bits, conj), bits.size - 1)
    lead = np.flatnonzero((distinct.imag > 0.0) & (bits[found] == conj))
    paired = np.zeros(distinct.size, dtype=bool)
    paired[lead] = paired[found[lead]] = True
    order = np.concatenate([np.flatnonzero(~paired), lead, found[lead]])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    distinct = distinct[order]
    index = rank[index].reshape(lam.shape)
    profiles = tuple(
        (tm, gr.half_space(gr.nodal_field(
            grid, quad, [replace(tm, time_poly=(1.0,), time_exp=0.0)]).values.reshape(
                -1, len(om))).copy())
        for tm in q_terms
    )
    for array in (distinct, index) + tuple(p for _, p in profiles):
        array.flags.writeable = False
    return UncollidedFlow(distinct, index, profiles, lead.size)


def solve_uncollided(state: gr.NodalField, a: float, b: float, eps: float,
                     sigma: float, sigma_a: float = 0.0, q_terms=()) -> gr.NodalField:
    """Exact evolution of the nodal state, which must be real in physical
    space, from a to b along each (mode, direction) characteristic
    (UncollidedFlow.advance).  uncollided_flow checks eps, sigma, sigma_a
    and the source terms.
    """
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if b < a:
        raise ValueError(f"interval end {b} precedes start {a}")
    shape = state.values.shape
    gr.require_hermitian("state values", state.values.reshape(-1, shape[-1]))
    flow = uncollided_flow(state.grid, state.quad, eps, sigma, sigma_a, q_terms)
    return gr.NodalField(state.grid, state.quad,
                         gr.from_half(flow.advance(state.values, a, b), shape))


def characteristics_solution(spec: ProblemSpec, quad: sh.SphereQuadrature,
                             t: float, grid=None) -> gr.NodalField:
    """Exact transport solution for scattering-free problems."""
    if spec.sigma_t != 0.0:
        raise ValueError("characteristics are exact only when sigma_t = 0")
    if grid is None:
        grid = default_grid(spec)
    state = gr.nodal_field(grid, quad, spec.g)
    return solve_uncollided(state, 0.0, t, spec.eps, 0.0, 0.0, spec.q)


def solve_diffusion(spec: ProblemSpec, t: float, grid=None) -> np.ndarray:
    """Scalar flux of the diffusion-limit solution at time t, per spatial
    mode: each wavenumber decays at |k|^2/(3 sigma_t) + sigma_a from the
    spherical average of g.  Source terms are outside this limit's scope."""
    if spec.sigma_t == 0.0:
        raise ValueError("diffusion limit requires sigma_t > 0")
    if spec.q:
        raise ValueError("diffusion-limit solution is defined for q = 0")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if grid is None:
        grid = default_grid(spec)
    L = gr.angular_band(spec.g)
    phi0 = gr.scalar_flux(gr.moment_field(grid, L, spec.g))
    decay = np.exp(-t * (grid.k_norm2() / (3.0 * spec.sigma_t) + spec.sigma_a))
    return phi0 * decay

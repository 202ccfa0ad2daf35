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
S_g R y, one complex product per degree block.  One propagator is stored
per class and step length, none per mode, and a generator lives only while
its class's exponentials are taken.  A step takes one product P @ X per class,
X holding the class's vectors in c*'s frame as columns.  A 1D wavevector
is its own representative and every 1D class holds one mode of H, so there
X is one column, numpy runs the gemv of a single mode, and a 1D step is
bit-identical to a loop over modes with the same propagators.  A class of
several modes (2D and 3D grids) takes a gemm, which sums in another order
than the loop and agrees with it to 1e-12 relative.  assemble_mode_operator is the one builder of a
generator, a class representative's and a sourced mode's (inside its
augmented generator): it adds the coupling blocks of each degree, shared
read-only per process (sh.assemble_coupling), straight into the matrix.

Up to a permutation a generator is block-diagonal (four blocks for k on
the x or y axis, 2N+1 on the z axis, two in a coordinate plane, one for a
generic k, a diagonal at k = 0), and so is its exponential.  The blocks
follow from the symmetries that fix k, so they are set once per degree and
pattern of zero components (_generator_blocks), with no search.  Every
representative of an operator wider than DENSE_EXPM_MAX_MOMENTS (N >= 4),
on the axis and at k = 0 too, takes one stacked expm per block width: at
N = 28 and k = (1,0,0) the four blocks are at most 225 wide, where the
dense generator is 841.  Streaming couples degree l only to l +- 1, so with
D = diag(i^l) every D^-1 L_k D is real, and each block wider than 1 is
exponentiated as a real matrix (about half the work of the complex one) and
turned back by exact products with +-1 and +-i; the split and the real
frame each cut a class's expm several fold.  Up to N = 3 (is_narrow) every
representative takes one dense complex expm, which is as fast there.  An
axis permutation's blocks are built once per (N, permutation) and process.
CHANGES.md keeps the timings behind each of these choices.

External sources are finite sums of polynomial-times-exponential terms and
are integrated exactly in time: in moment space by a step plus the source
block of one exponential of the mode generator augmented with the source's
time factors (Van Loan, IEEE TAC 23(3), 1978), along characteristics by
phi-functions (Hochbruck-Ostermann, Acta Numerica 2010).  PnOperator.step
also takes the hybrid's isotropic re-emission drive on H, which reaches
each mode through e_0 alone, by Gauss-Legendre Duhamel quadrature on short
substeps, keeping only the e_0 column of each node propagator; the drive
is sampled at most once per substep, at its 12 node times together.  Given
a bound on the drive that decays in time (the envelope of a flow without a
source), a substep whose node terms that bound cannot lift above half the
spacing of floats at any component of the propagated state keeps that
state and samples nothing: the sum rounds back to it, so every bit is
kept.  The caller sets the substeps; the hybrid's count is
hybrid.drive_substeps.  The uncollided rates lambda(k, Omega) depend on
(k, Omega) only through k.Omega, so an UncollidedFlow (uncollided_flow)
stores each distinct rate once, with the source's nodal profiles, and its
advance takes the exponentials and each source term's response on those
alone and gathers them per (mode of H, node), at one time or at an array
of times in one call.  The decay is bit for bit the full-array
evaluation, and each time of an array keeps the bits of a call at that
time alone; a substep's 12 node times take one call, not 12.  A term's
response, sum_j p^(j) h^(j+1) phi_(j+1), is one pass over the rates: the
phi recurrence started from the carrier's exponential where |z| is large,
one power series with scalar coefficients where it is small (taken one
time at a time, as its coefficients depend on the time).  Each term forms
its derivative polynomials once (grid.FieldTerm) and every sourced path
reads them from there.

Each mode's matrices are small, and OpenBLAS threads cost more than they
give on them, on one expm and on a whole perfbench verify-pn pass.  So
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


# Widest moment space, n_moments(N) = (N+1)^2, whose representatives take
# one dense complex expm (N <= 3); every representative of a wider one, on
# the axis and at k = 0 too, splits it over the generator's blocks
# (_generator_blocks) and takes each block in the real frame
# (PnOperator._exp).  The cut-off is where the two cross.  On one BLAS
# thread of a 2-core machine, dense complex / split real-frame expm in ms
# (median of 15 calls), each k's first row at eps = sigma = 1, h = 0.5 and
# its second at eps = 0.05, sigma = 1, h = 1:
#     k          N = 1      N = 3      N = 4      N = 5      N = 7      N = 8
#     (1,0,0)  .03/.04    .03/.09    .08/.10    .13/.11    .48/.15   1.09/.23
#              .04/.06    .08/.15    .13/.14    .23/.16   1.02/.28   2.04/.36
#     (1,1,0)  .01/.04    .03/.06    .07/.08    .13/.09    .49/.16    .89/.31
#              .05/.06    .09/.12    .13/.15    .31/.16   1.07/.30   1.66/.45
#     (2,1,1)  .01/.05    .03/.04    .07/.06    .15/.11    .64/.27   1.16/.66
#              .04/.06    .08/.08    .17/.12    .31/.18   1.13/.32   1.83/.58
# and at k = (1,0,0), eps = sigma = 1, dense complex, split complex and
# split real-frame
#     N = 17:  49.9,  5.9,  2.9 ms      N = 20: 117.5, 12.7,  6.1 ms
#     N = 24:   311, 29.7, 13.8 ms      N = 28:   694, 64.1, 27.7 ms.
# The split moves last bits of a propagator, and the perfbench goldens
# compare the padded %.17g cells of the plot tables as text, where a value
# that loses a digit changes the padding.  The hybrid's own N = 3 operators
# are pinned so: a cut-off below 16 splits them and fails plot
# hybrid-dt-diffusive with "golden txt: text differs".
DENSE_EXPM_MAX_MOMENTS = 16

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
    set of degree N or above: each nonzero axis, in axis order, adds
    s a_l and s a_l^T degree by degree, s = -i k_ax/eps, into the zeros,
    and then the diagonal follows.  No dense streaming matrix is formed."""
    if coupling.N < N:
        raise ValueError(f"coupling set holds degrees <= {coupling.N} < N={N}")
    nm = sh.n_moments(N)
    L = np.zeros((nm, nm), dtype=complex)
    for ax in range(3):
        if k[ax] != 0:
            s = -1j * k[ax] / eps
            for l, a in enumerate(coupling.blocks[ax][:N], start=1):
                low, high = sh.degree_slice(l - 1), sh.degree_slice(l)
                L[low, high] += s * a
                L[high, low] += s * a.T
    scatter = np.full(nm, -sigma / eps**2)
    scatter[0] = 0.0
    L[np.diag_indices(nm)] += scatter - sigma_a
    return L


def is_narrow(N: int) -> bool:
    """Whether the degree-N moment space is at most DENSE_EXPM_MAX_MOMENTS
    wide (N <= 3), so that every representative's exponential is one dense
    complex expm rather than one stacked expm per block width."""
    return sh.n_moments(N) <= DENSE_EXPM_MAX_MOMENTS


@functools.lru_cache(maxsize=None)
def _generator_blocks(N: int, nonzero: tuple) -> list:
    """The blocks of every generator L_k of degree N whose nonzero
    components of k are those flagged in nonzero: one read-only (blocks, w)
    index array per block width w, in ascending w, each block's indices
    ascending.  L_k is block-diagonal under the permutation that lists the
    blocks in turn, and so is every function of it, expm(h L_k) included.
    The blocks follow from the symmetries fixing k.  At k = 0 L_k is
    diagonal, and on the z axis rotations about z keep each signed order
    apart.  Otherwise the reflection of each axis where k is 0 commutes
    with L_k and gives every moment a sign (sh.lattice_symmetry), and the
    blocks are the moments' joint sign classes: for a representative
    (a, 0, 0) the four classes of ((l + |m|) mod 2, m < 0), (a, b, 0) the
    two of (l + |m|) mod 2, and one block for (a, b, c).  Each moment is
    labelled by the least index of its class."""
    degree = sh.moment_degrees(N)
    if not any(nonzero):
        key = np.arange(degree.size)
    elif nonzero == (False, False, True):
        key = np.arange(degree.size) - degree * degree - degree
    else:
        key = np.zeros(degree.size, dtype=int)
        for ax in range(3):
            if not nonzero[ax]:
                flip = [i == ax for i in range(3)]
                key |= (sh.lattice_symmetry(N, flip, False)[1] < 0) << ax
    _, least, inverse = np.unique(key, return_index=True, return_inverse=True)
    label = least[inverse]
    # A stable sort keeps each block's indices ascending.
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    widths = np.diff(np.append(starts, degree.size))
    stacks = [np.stack([order[s:s + w] for s in starts[widths == w]])
              for w in np.unique(widths)]
    for idx in stacks:
        idx.flags.writeable = False
    return stacks


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


def duhamel_substeps(rate: float, h: float) -> int:
    """Substeps of a Duhamel step of length h under rates up to rate, each
    spanning at most _SUBSTEP_BUDGET / rate; rate * h must be a float."""
    span = rate * h
    if not math.isfinite(span):
        raise ValueError(f"rate * h must be finite, got {rate} * {h}")
    return max(1, math.ceil(span / _SUBSTEP_BUDGET))


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


def _drive_below_last_bit(state: np.ndarray, bound: np.ndarray, reach: np.ndarray) -> bool:
    """Whether a Duhamel substep's node terms provably leave every bit of
    the propagated state (stack rows, nm) as it is, so the substep can keep
    it without sampling the drive.  bound holds each row's bound on |drive|
    over the substep's nodes, reach each component's sum over the nodes of
    weight times |e_0 column entry|, so B = bound[row] reach[e] bounds the
    sum of the moduli of the node terms that reach component e of that row,
    and each term's real and imaginary parts.  A sum x + d rounds back to x
    when |d| is below half the spacing of floats at x (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, sec. 2.1); for 2^p <=
    |x| < 2^(p+1) that half spacing is at least 2^(p-54), the floats below
    a power of two being twice as dense, and so above |x| 2^-55.  Every
    real and imaginary component x must therefore have x != 0 and B < |x|
    2^-55, which bounds every partial sum of the terms too, so it holds for
    the terms added in any order, or be +0 with B exactly 0 (a bound or
    reach of 0, not a product that underflows): the terms are then +-0,
    which leave +0 as it is.  A -0 component facing any term, or a zero
    component facing B > 0, keeps the drive.  One vectorized pass over the
    stack."""
    parts = state.view(float).reshape(state.shape + (2,))
    B = (bound[:, None] * reach)[..., None]
    keep = B < np.abs(parts) * 2.0**-55
    zero = (bound == 0.0)[:, None, None] | (reach == 0.0)[..., None]
    keep |= zero & (parts.view(np.uint64) == 0)  # +0 is the all-zero pattern
    return bool(keep.all())


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
    multiply exactly.  turned lists (stack rows, R's read-only blocks) per
    axis permutation; a wavevector with k3 = 0 needs none, so 1D and 2D
    grids turn nothing.  A class's rows are contiguous, in box order, and
    classes lists (c*, slice) in order of first appearance."""

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
        self.turned = [(np.array(rows, dtype=np.intp), sh.axis_permutation(N, turn))
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
        times R^T (into the frame) or, with transpose, R (out of it), one
        complex product per degree block; the vectors are rows, so R^T v
        is v^T R."""
        for rows, blocks in self.turned:
            xs = x[..., rows, :]
            for l, R in enumerate(blocks):
                s = sh.degree_slice(l)
                xs[..., s] = xs[..., s] @ (R.T if transpose else R)
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
    """Propagators of one discretization, applied only through step, which
    advances the half-space H of a Hermitian box (c(-k) = conj c(k)) class
    by class (_ClassStack): a mode k = g Pi c* is advanced in its cubic
    representative's frame, P_k v = S_g R P_(c*) R^T S_g^T v, so no
    per-mode or turned matrix is formed.  _reps caches expm(h L_c*) per
    (class, h), and _nodes the e_0 columns of a Duhamel substep's node
    propagators, with their reach, per (class, substep): memory grows with
    classes and step lengths, not modes.  A generator is assembled for each
    batch of its class's exponentials, all taken by _exp (one dense complex
    expm up to N = 3, is_narrow, and one stacked real-frame expm per block
    width above it, whatever the class), and dropped after it.  step takes
    one product P_(c*) @ X per class, X holding the class's H vectors as
    columns, and per Duhamel node one broadcast product of its e_0 column
    and the class's drive (every turn fixes e_0); on a 1D grid every class
    holds one H mode, so the products keep the bits of a loop over modes
    with the same propagators.  The caller of a Duhamel step sets its
    substeps."""

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
        self._reps: dict = {}  # (c, h) -> expm(h L_c)
        # (c, hs) -> (expm((hs - tau_m) L_c)[:, 0] shaped (nodes, nm), its reach)
        self._nodes: dict = {}

    def modes(self) -> list:
        """[(index, wavevector)] of every spatial mode of the grid."""
        return self._modes

    def _generator(self, c) -> np.ndarray:
        """L_c, written block by block by assemble_mode_operator."""
        return assemble_mode_operator(c, self.N, self.eps, self.sigma, self._coupling,
                                      self.sigma_a)

    def _exp(self, c, h: float, L: np.ndarray) -> np.ndarray:
        """expm(A) for A = h L, L = L_c the generator of representative c:
        the one place a representative's exponential is taken.  A narrow
        operator (is_narrow, N <= 3) takes one dense complex expm for every
        c.  A wide one takes, for every c, k = 0 and the axis included, one
        stacked expm per block width of L_c's blocks (_generator_blocks,
        set by the symmetries of c), shaped (blocks, w, w), each gathered
        from L and multiplied by h, the entries of h L with no dense product,
        and scatters the blocks into the dense propagator, whose other
        entries are exactly zero.  Blocks wider than 1 are taken in the real
        frame: streaming couples degree l only to l +- 1 through -i times a
        real matrix, and the diagonal is real, so with D = diag(i^l) the
        entries (D^-1 A D)_pq = A_pq i^(l_q - l_p) are real,
        and expm(A) = D expm(D^-1 A D) D^-1 is a real expm multiplied
        entrywise by i^(l_p - l_q).  No complex factor is formed: with d =
        (l_q - l_p) mod 4, A_pq is real for even d and imaginary for odd d,
        so the real entry is s_d (Re A_pq + Im A_pq) with the sign s_d =
        Re(i^d) - Im(i^d), and the propagator's entry is s_d E_pq times
        i^(d mod 2), all exact.  1-wide blocks (k = 0 and the |m| = N blocks
        on the z axis) take the complex expm, whose 1 x 1 path the dense one
        shares."""
        # A generator _rep assembled is freed before the expms run: L is
        # dropped once h L, or its blocks, are taken.
        if self._narrow:
            A = h * L
            del L
            return expm(A)
        stacks = _generator_blocks(self.N, tuple(x != 0 for x in c))
        blocks = [L[idx[:, :, None], idx[:, None, :]] for idx in stacks]
        del L
        P = np.zeros((self.nm, self.nm), dtype=complex)
        degree = sh.moment_degrees(self.N)
        for idx in stacks:
            square = (idx[:, :, None], idx[:, None, :])
            block = blocks.pop(0)
            block *= h
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
            P = self._reps[(c, h)] = self._exp(c, h, self._generator(c) if L is None else L)
        return P

    def _substep(self, c, hs: float, taus, wts) -> tuple:
        """(expm(hs L_c), the e_0 column of expm((hs - tau) L_c) per Duhamel
        node, stacked (nodes, nm), and its reach, the sum over the nodes of
        weight times |column entry|, shaped (nm,)), all taken from one
        assembly of L_c."""
        nodes = self._nodes.get((c, hs))
        if nodes is not None:
            return (self._rep(c, hs),) + nodes
        L = self._generator(c)
        P = self._rep(c, hs, L)
        cols = np.empty((len(taus), self.nm), dtype=complex)
        for m, tau in enumerate(taus):
            cols[m] = self._exp(c, float(hs - tau), L)[:, 0]
        # A reach is 0 only on a zero column, which _drive_below_last_bit
        # trusts, and at least the smallest normal float elsewhere, above
        # the absolute error of sums that underflow.
        reach = np.where(cols.any(axis=0),
                         np.maximum(wts @ np.abs(cols), np.finfo(float).tiny), 0.0)
        nodes = self._nodes[(c, hs)] = (cols, reach)
        return (P,) + nodes

    def _box(self, out: np.ndarray) -> np.ndarray:
        """out, shaped (modes, nm) without a copy."""
        if out.shape != self.grid.shape + (self.nm,):
            raise ValueError(f"coefficient shape {out.shape} does not match "
                             f"{self.grid.shape + (self.nm,)}")
        return out.reshape(-1, self.nm)

    def step(self, coeffs, h, source=None, t0=0.0, substeps=None, envelope=None):
        """Advance coefficients by h: exact exponential when source is None,
        otherwise exponential plus Gauss-Legendre Duhamel on substeps, a
        positive integer that a source needs (the caller owns the count:
        hybrid.drive_substeps for the hybrid's drive), from the finite
        start time t0.  The coefficients must be Hermitian, c(-k) = conj c(k), and
        source(times) is the isotropic re-emission drive, the e_0 moment of
        the forcing on the half-space H, at the Duhamel nodes of a substep:
        given that substep's 12 node times as one array, it returns one row
        per time and one value per mode of H in box order, shaped (12, H).
        So source is called at most once per substep.  envelope(t), when
        given, bounds |source| at every time from t on, one nonnegative
        value per mode of H in box order; a substep whose node terms that
        bound, taken at its first node, proves unable to change a bit of the
        propagated state (_drive_below_last_bit) keeps that state and does
        not sample the drive, so the result is bit for bit the same."""
        h = _step_length(h)
        if source is not None:
            t0 = _start_time(t0)
            if substeps is None:
                raise ValueError("substeps must be given with a source")
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
        hs = h / substeps
        x, w = _duhamel_rule()
        taus = 0.5 * hs * (x + 1.0)
        wts = 0.5 * hs * w
        props = [(rows,) + self._substep(c, hs, taus, wts) for c, rows in stack.classes]
        if envelope is not None:
            reach = np.empty(v.shape)
            for rows, _, _, r in props:
                reach[rows] = r
        wts = wts[:, None, None]
        t = np.empty((1 + _DUHAMEL_NODES,) + v.shape, dtype=complex)
        # Per substep each class takes the propagated state and every node's
        # e_0 column times the shared drive samples, in the representatives'
        # frames, where the state stays between substeps.  One reduction over
        # the first axis of t sums them in node order, ((t_0 + t_1) + t_2) +
        # ..., the propagated state first.
        for j in range(substeps):
            times = t0 + j * hs + taus
            for rows, P, _, _ in props:
                t[0, rows] = (P @ v[rows].T).T
            if envelope is not None and _drive_below_last_bit(
                    t[0], envelope(times[0])[stack.drive], reach):
                v[...] = t[0]
                continue
            q = np.asarray(source(times))
            if q.shape != (_DUHAMEL_NODES, len(stack.rows)):
                raise ValueError(f"source samples must be shaped ({_DUHAMEL_NODES}, "
                                 f"{len(stack.rows)}), one drive per Duhamel node and "
                                 f"half-space mode, got {q.shape}")
            q = q[:, stack.drive]
            for rows, _, cols, _ in props:
                np.multiply(cols[:, None, :], q[:, rows, None], out=t[1:, rows])
            t[1:] *= wts
            np.add.reduce(t, axis=0, out=v)
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

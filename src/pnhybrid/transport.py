"""Monolithic spherical-harmonic solver for the scaled transport equation

    eps d_t psi + Omega . grad psi + (sigma/eps) psi = (sigma/eps) psi_bar + eps q

on the periodic box, plus the exact uncollided (pure-streaming-and-decay)
solver, the diffusion-limit solution, and the absorption change of variables.

Spatial modes decouple, so each wavenumber k evolves under the moment-space
generator

    L_k = -(i/eps) sum_i k_i A^(i) - (sigma/eps^2) (I - Pi_0) - sigma_a I,

advanced by matrix exponentials.  PnOperator.step is the only way a mode is
advanced.  Axis reflections and the x <-> y swap of k conjugate L_k by
signed permutations of the real harmonic basis, so only one representative
per symmetry orbit gets a dense generator and an expm; every other mode
applies the representative's propagator with the signed permutation acting
on the vector.  One propagator is stored per orbit and step length, none
per mode, and a generator lives only while its orbit's exponentials are
taken.  A step gathers the modes of each orbit into the representative's
frame and multiplies the stack by the propagator as P @ X[..., None]: numpy
runs one gemv per stacked vector, the same product in the same summation
order as on a single mode, so the results are bit-identical to a loop over
modes (a gemm, einsum or tensordot over the stack would sum in another
order and move last bits).  assemble_mode_operator is the one builder of a
dense generator: an orbit representative's, a sourced mode's (inside its
augmented generator), and the tests' dense oracle.

Up to a permutation a generator is block-diagonal (four blocks for k on
the x or y axis, 2N+1 on the z axis, two in a coordinate plane, one for a
generic k, a diagonal at k = 0), and so is its exponential.  A wide
operator, one whose moment space is wider than DENSE_EXPM_MAX_MOMENTS,
finds each representative's blocks once (connected_blocks) and takes one
stacked expm per block width: at N = 28 and k = (1,0,0) the four blocks
are at most 225 wide, where the dense generator is 841.  A narrow
operator takes one dense expm, since there the split saves little and
moves last bits of the propagators.

External sources are finite sums of polynomial-times-exponential terms and
are integrated exactly in time: in moment space by a step plus the source
block of one exponential of the mode generator augmented with the source's
time factors (Van Loan, IEEE TAC 23(3), 1978), along characteristics by
phi-functions (Hochbruck-Ostermann, Acta Numerica 2010).  PnOperator.step
also accepts an arbitrary source callable, folded in by Gauss-Legendre
Duhamel quadrature on substeps short enough that the rule is accurate to
near machine precision; the hybrid re-emission uses that path.  The
uncollided rates lambda(k, Omega) depend on (k, Omega) only through k.Omega,
so an UncollidedFlow (uncollided_flow) stores each distinct rate once, with
the source's nodal profiles, and its advance takes the exponentials and
each source term's response on those alone and gathers them per (mode,
node).  The decay is bit for bit the full-array evaluation.  A term's
response, sum_j p^(j) h^(j+1) phi_(j+1), is one pass over the rates: the
phi recurrence started from the carrier's exponential where |z| is large,
one power series with scalar coefficients where it is small.  Each term
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
import numbers
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
# one dense expm (N <= 20); wider ones split it over the generator's
# connected blocks.  At 16 wide the split cost twice the dense expm (0.16
# against 0.08 ms, plus 0.16 ms to find the blocks), and splitting the 169-
# and 289-wide references of the hybrid dt sweeps moved last bits of the
# plotted errors (2.1485115505547617e-06 -> 2.148511550556308e-06), which
# the perfbench goldens compare as text.  On one thread the split expm of
# k = (1,0,0) took 37 ms against 298 ms dense at N = 24, 77 against 683 ms
# at N = 28.
DENSE_EXPM_MAX_MOMENTS = 441

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


def source_sampler(spec: ProblemSpec, grid: gr.SpatialGrid, N: int):
    """Callable t -> moment coefficients of the degree-truncated source,
    or None when the problem has no source."""
    if not spec.q:
        return None
    L = max(N, gr.angular_band(spec.q))

    def sample(t: float) -> np.ndarray:
        return gr.moment_field(grid, L, spec.q, t).truncate(N).coeffs

    return sample


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
    wide, so that each representative's exponential is one dense expm."""
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


def _step_length(h) -> float:
    h = float(h)
    if not (math.isfinite(h) and h >= 0.0):
        raise ValueError(f"h must be finite and nonnegative, got {h}")
    return h


class _OrbitStack:
    """The spatial modes of a box, grouped by lattice orbit for stacked
    products.

    modes lists (index, wavevector) in box order.  Row i is mode rows[i], a
    flat index into the mode box, whose orbit representative is rep[i].  Its
    vector v enters the representative's frame as S_g^T v = sign_in * v[inv]
    and leaves it as S_g y = sign * y[perm]; a representative's own row has
    the identity permutation and all-ones signs, which multiply exactly.  An
    orbit's rows are contiguous with its representative first; orbits lists
    (c, slice) in order of first appearance."""

    def __init__(self, modes, N):
        nm = sh.n_moments(N)
        order = {}  # representative -> rank of first appearance
        keyed = []
        for row, (_, k) in enumerate(modes):
            a = [abs(x) for x in k]
            # k = g c with g = (negate axes where k < 0) o (swap x, y if |k1| < |k2|).
            c = (max(a[0], a[1]), min(a[0], a[1]), a[2])
            keyed.append((order.setdefault(c, len(order)), k != c, row, c, k))
        keyed.sort(key=lambda e: e[:3])
        self.perm = np.tile(np.arange(nm), (len(keyed), 1))
        self.sign = np.ones((len(keyed), nm))
        for i, (_, moved, _, _, k) in enumerate(keyed):
            if moved:
                self.perm[i], self.sign[i] = sh.lattice_symmetry(
                    N, [x < 0 for x in k], abs(k[0]) < abs(k[1]))
        self.rows = np.array([e[2] for e in keyed], dtype=np.intp)
        self.rep = [e[3] for e in keyed]
        self.inv = np.argsort(self.perm, axis=1)
        self.sign_in = np.take_along_axis(self.sign, self.inv, axis=1)
        self._gather = self.rows[:, None] * nm + self.inv
        self.orbits = []
        start = 0
        for end in range(1, len(keyed) + 1):
            if end == len(keyed) or self.rep[end] != self.rep[start]:
                self.orbits.append((self.rep[start], slice(start, end)))
                start = end

    def into_rep(self, flat: np.ndarray) -> np.ndarray:
        """S_g^T of every row's vector: flat holds the mode box's vectors
        along its last axis, (..., modes * nm); the result is (..., rows, nm)."""
        x = flat.take(self._gather, axis=-1)
        x *= self.sign_in
        return x

    def from_rep(self, y: np.ndarray, box: np.ndarray) -> None:
        """box[rows] = S_g y for representative-frame vectors y (rows, nm)."""
        z = np.take_along_axis(y, self.perm, axis=1)
        z *= self.sign
        box[self.rows] = z


class PnOperator:
    """Propagators of one discretization, applied only through step.  A
    generator is assembled, and an expm taken, only for one representative
    wavevector c per orbit of the lattice symmetries (axis reflections and
    the x <-> y swap).  A mode k = g c is advanced in its representative's
    frame, P_k v = S_g P_c S_g^T v, with the signed permutation S_g applied
    to the vector, so no per-mode matrix is ever formed.  The
    representatives' propagators are cached per (orbit, h) in _rep: memory
    grows with orbits and step lengths, not with modes, and repeated
    equal-length steps cost no further expm.  A generator is assembled for
    each batch of expm calls on its orbit (one step length, or one Duhamel
    substep's propagators) and dropped after it.  Every such exponential is
    taken by _exp: one dense expm on a narrow operator (is_narrow), and on a
    wide one one stacked expm per block width of the generator's connected
    blocks, found once per representative, scattered into the dense
    propagator.  step advances each orbit's modes together, as one stacked
    gemv per propagator in the representative's frame (_OrbitStack),
    bit-identical to a loop over modes."""

    def __init__(self, grid, N, eps, sigma, sigma_a=0.0):
        if not isinstance(N, numbers.Integral) or isinstance(N, bool):
            raise ValueError(f"N must be an integer, got {N!r}")
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
        self._modes = [
            (idx, tuple(int(grid.wavenumbers(ax)[idx[ax]]) for ax in range(3)))
            for idx in np.ndindex(grid.shape)
        ]
        self._stack = _OrbitStack(self._modes, self.N)
        # Fastest rate of any mode, a bound on the spectral radius of L_k:
        # scattering, absorption and the streaming speed |k|/eps.
        self.max_rate = max(
            sigma / eps**2 + sigma_a + math.sqrt(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) / eps
            for _, k in self._modes
        )
        self._split = not is_narrow(self.N)
        self._blocks: dict = {}  # c -> connected_blocks(L_c), wide operators only
        self._reps: dict = {}  # (c, h) -> expm(h L_c)
        self._nodes: dict = {}  # (c, hs) -> expm((hs - tau_m) L_c), (nodes, 1, nm, nm)

    def modes(self) -> list:
        """[(index, wavevector)] of every spatial mode of the grid."""
        return self._modes

    def _generator(self, c) -> np.ndarray:
        """L_c; on a wide operator its connected blocks are found, and
        kept, the first time."""
        L = assemble_mode_operator(c, self.N, self.eps, self.sigma, self._coupling,
                                   self.sigma_a)
        if self._split and c not in self._blocks:
            self._blocks[c] = connected_blocks(L)
        return L

    def _exp(self, c, A: np.ndarray) -> np.ndarray:
        """expm(A) for A = h L_c, a multiple of representative c's generator:
        the one place a representative's exponential is taken.  A narrow
        operator takes one dense expm.  A wide one takes one stacked expm
        per block width of L_c's connected blocks, shaped (blocks, w, w),
        and scatters the blocks into the dense propagator, whose other
        entries are exactly zero."""
        if not self._split:
            return expm(A)
        P = np.zeros_like(A)
        for idx in self._blocks[c]:
            square = (idx[:, :, None], idx[:, None, :])
            P[square] = expm(A[square])
        return P

    def _rep(self, c, h: float) -> np.ndarray:
        P = self._reps.get((c, h))
        if P is None:
            P = self._reps[(c, h)] = self._exp(c, h * self._generator(c))
        return P

    def _substep(self, c, hs: float, taus) -> tuple:
        """(expm(hs L_c), stacked expm((hs - tau) L_c) per Duhamel node)."""
        P = self._rep(c, hs)
        nodes = self._nodes.get((c, hs))
        if nodes is None:
            L = self._generator(c)
            nodes = np.empty((len(taus), 1, self.nm, self.nm), dtype=complex)
            for m, tau in enumerate(taus):
                nodes[m, 0] = self._exp(c, float(hs - tau) * L)
            self._nodes[(c, hs)] = nodes
        return P, nodes

    def _box(self, out: np.ndarray) -> np.ndarray:
        """out, shaped (modes, nm) without a copy."""
        if out.shape != self.grid.shape + (self.nm,):
            raise ValueError(f"coefficient shape {out.shape} does not match "
                             f"{self.grid.shape + (self.nm,)}")
        return out.reshape(-1, self.nm)

    def substeps_for(self, h: float, extra_rate: float = 0.0) -> int:
        rho = self.max_rate + extra_rate
        return max(1, math.ceil(rho * h / _SUBSTEP_BUDGET))

    def step(self, coeffs, h, source=None, t0=0.0, substeps=None):
        """Advance coefficients by h: exact exponential when source is None,
        otherwise exponential plus Gauss-Legendre Duhamel on substeps."""
        h = _step_length(h)
        out = np.array(coeffs, dtype=complex, copy=True)
        stack = self._stack
        box = self._box(out)
        if source is None:
            x = stack.into_rep(box.reshape(-1))
            y = np.zeros_like(x)
            for c, rows in stack.orbits:
                # Modes decouple, so an orbit holding only zeros stays zero
                # and needs no propagator.
                if x[rows].any():
                    np.matmul(self._rep(c, h), x[rows, :, None], out=y[rows, :, None])
            stack.from_rep(y, box)
            return out
        nsub = substeps if substeps is not None else self.substeps_for(h)
        hs = h / nsub
        x, w = np.polynomial.legendre.leggauss(_DUHAMEL_NODES)
        taus = 0.5 * hs * (x + 1.0)
        wts = 0.5 * hs * w
        props = [(rows,) + self._substep(c, hs, taus) for c, rows in stack.orbits]
        u = np.empty((len(stack.rows), self.nm), dtype=complex)
        t = np.empty((_DUHAMEL_NODES,) + u.shape, dtype=complex)
        # The source samples are shared across modes.  Each orbit takes two
        # stacked products per substep, the propagated state and every node's
        # propagated sample, and the weighted sum runs node by node in the
        # representatives' frames: S_g acts elementwise, so it commutes
        # exactly with that sum, and every entry is the per-mode loop's.
        for j in range(nsub):
            ta = t0 + j * hs
            q = np.stack([source(ta + tau) for tau in taus])
            q = stack.into_rep(q.reshape(_DUHAMEL_NODES, -1))
            v = stack.into_rep(box.reshape(-1))
            for rows, P, nodes in props:
                np.matmul(P, v[rows, :, None], out=u[rows, :, None])
                np.matmul(nodes, q[:, rows, :, None], out=t[:, rows, :, None])
            for m in range(_DUHAMEL_NODES):
                u += wts[m] * t[m]
            stack.from_rep(u, box)
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
    each reached mode then adds F w(t0).  F, the nm x d top-right block of
    one expm of the augmented generator, is all that is cached, per
    (mode, h); the term amplitudes enter through w(t0).
    """

    def __init__(self, op: PnOperator, terms):
        self.op = op
        self._pieces = {}  # mode index -> [(amplitude, term, truncated profile)]
        for tm in terms:
            ang = np.zeros(op.nm)
            n = min(op.nm, len(tm.angular))
            ang[:n] = tm.angular[:n]
            for k, amp in tm.spatial:
                self._pieces.setdefault(op.grid.index_of(k), []).append((amp, tm, ang))
        self._wavevector = dict(op.modes())
        self._forcing = {}  # (reached mode, h) -> F

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
        out = self.op.step(coeffs, h)
        for idx, pieces in self._pieces.items():
            w0 = np.concatenate([
                amp * math.exp(tm.time_exp * t0) * np.array(tm.time_derivatives(t0))
                for amp, tm, _ in pieces
            ])
            out[idx] += self._forcing_block(idx, h) @ w0
        return out


@dataclass
class SolveResult:
    times: list
    fields: list

    @property
    def final(self) -> gr.MomentField:
        return self.fields[-1]


def solve_pn(spec: ProblemSpec, N: int, grid=None, record_times=()) -> SolveResult:
    """Monolithic spherical-harmonic solve from t = 0 to T.

    Absorption, when present, acts directly through the generator; see
    absorption_wrap for the equivalent change-of-variables route.  Every
    step goes through SourcedModes, which integrates the source exactly in
    time and is PnOperator.step alone when there is none.  Every OpenBLAS
    pool runs at one thread (blas.single_thread).
    """
    with blas.single_thread():
        if grid is None:
            grid = default_grid(spec)
        t_end = spec.t_final
        op = PnOperator(grid, N, spec.eps, spec.sigma_t, spec.sigma_a)
        sourced = SourcedModes(op, spec.q)
        state = initial_field(spec, grid, N)
        times = [float(t) for t in record_times]
        if not all(0.0 <= t <= t_end + 1e-15 for t in times):
            raise ValueError("record times must lie in [0, T]")
        # A time past T by no more than the slack is recorded at T.
        times = [t for t in sorted({min(t, t_end) for t in times} | {t_end}) if t > 0.0]
        out_times = [0.0]
        out_fields = [state]
        t = 0.0
        coeffs = state.coeffs
        for target in times:
            h = target - t
            if h > 0:
                coeffs = sourced.step(coeffs, h, t)
                t = target
            out_times.append(t)
            out_fields.append(gr.MomentField(grid, N, coeffs))
        return SolveResult(times=out_times, fields=out_fields)


def audit_energy_identity(state: gr.MomentField, h, eps, sigma, source=None,
                          t0=0.0):
    """Residual of the balance law over one step, relative to the initial
    squared norm: the decrease of ||psi||^2 must match the dissipation
    (2 sigma/eps^2) int ||psi - psi_bar||^2 plus twice the work of the source.
    """
    op = PnOperator(state.grid, state.N, eps, sigma, 0.0)
    measure = state.grid.measure
    u0 = state.coeffs
    u1 = op.step(u0, h, source=source, t0=t0)
    lhs = measure * (float(np.sum(np.abs(u1) ** 2)) - float(np.sum(np.abs(u0) ** 2)))

    nsub = op.substeps_for(h, 0.0)
    x, w = np.polynomial.legendre.leggauss(_DUHAMEL_NODES)
    total = 0.0
    hs = h / nsub
    coeffs = np.array(u0, copy=True)
    for j in range(nsub):
        ta = t0 + j * hs
        for xi, wi in zip(x, w):
            tau = 0.5 * hs * (xi + 1.0)
            mid = op.step(coeffs, tau, source=source, t0=ta)
            fluct = mid.copy()
            fluct[..., 0] = 0.0
            rate = -(2.0 * sigma / eps**2) * float(np.sum(np.abs(fluct) ** 2))
            if source is not None:
                qv = source(ta + tau)
                rate += 2.0 * float(np.sum((np.conj(qv) * mid).real))
            total += 0.5 * hs * wi * measure * rate
        coeffs = op.step(coeffs, hs, source=source, t0=ta)
    denom = max(measure * float(np.sum(np.abs(u0) ** 2)), 1e-300)
    return abs(lhs - total) / denom


@dataclass(frozen=True)
class UncollidedFlow:
    """The exact flow of the uncollided equation d_t v = -lambda v + q along
    each (mode, direction) characteristic, on one grid and quadrature.

    The complex decay rates lambda(k, Omega) = sigma/eps^2 + sigma_a
    + i k.Omega/eps depend on (k, Omega) only through k.Omega, which
    repeats across the quadrature's reflections, across +-k and over every
    node of k = 0.  distinct holds each rate once, two rates being equal
    when their 16-byte bit patterns are (so +0 and -0 stay apart); index,
    shaped grid.shape + (nodes,), holds each (mode, node)'s position in
    distinct.  An elementwise function of lambda is therefore taken on
    distinct and gathered with index: equal input bits give equal output
    bits, so a flow without a source advances byte for byte as the
    full-array evaluation.  profiles holds the source's space-angle
    factors at the nodes, one (term, values[k1, k2, k3, node]) pair per
    term, time factor left out; each term's response is taken once per
    distinct rate and agrees with the phi-function evaluation to 1e-12
    relative.  Every array is read-only."""

    distinct: np.ndarray
    index: np.ndarray
    profiles: tuple

    def advance(self, values: np.ndarray, a: float, b: float) -> np.ndarray:
        """Nodal values advanced from a to b: the decay exp(-lam (b - a))
        plus the exact source integral of exp(-lam (b - tau)) q(tau) over
        [a, b], each term's response (_source_response) taken on the
        distinct rates, gathered and multiplied by its profile."""
        decay = np.exp(-self.distinct * (b - a))
        out = values * decay[self.index]
        for tm, profile in self.profiles:
            out = out + self._source_response(tm, decay, a, b)[self.index] * profile
        return out

    def _source_response(self, tm, decay: np.ndarray, a: float, b: float) -> np.ndarray:
        """e^(mu b) sum_j p^(j)(a) h^(j+1) phi_(j+1)(z) per distinct rate, for
        the term p(t) e^(mu t), h = b - a and z = -(lam + mu) h, in one pass.
        Where |z| >= PHI_SERIES_BELOW the recurrence phi_(j+1) = (phi_j -
        1/j!)/z runs on e^(mu b) phi_j, from e^(mu b) phi_0(z) =
        e^(mu a) decay, decay = e^(-lam h) being the carrier's exponential;
        no factor leaves the range that e^(mu t) keeps on [a, b].  Elsewhere
        the sum is one power series in z, sum_m c_m z^m with the scalar
        coefficients c_m = sum_j p^(j)(a) h^(j+1)/(m+j+1)!."""
        h, mu = b - a, tm.time_exp
        at_end = math.exp(mu * b)
        scaled = np.array([d * h ** (j + 1) for j, d in enumerate(tm.time_derivatives(a))])
        z = -(self.distinct + mu) * h
        small = np.abs(z) < PHI_SERIES_BELOW
        acc = np.empty_like(z)
        if not small.all():
            big = ~small
            zb = z[big]
            phi = decay[big] * math.exp(mu * a)
            total = 0.0
            for j, d in enumerate(scaled):
                phi = (phi - at_end / math.factorial(j)) / zb
                total = total + d * phi
            acc[big] = total
        if small.any():
            zs = z[small]
            powers = np.cumprod(np.broadcast_to(zs, (_PHI_SERIES_TERMS - 1, zs.size)), axis=0)
            c = _series_table(len(scaled)) @ scaled
            acc[small] = at_end * (c[0] + c[1:] @ powers)
        return acc


def uncollided_flow(grid: gr.SpatialGrid, quad: sh.SphereQuadrature, eps: float,
                    sigma: float, sigma_a: float = 0.0, q_terms=()) -> UncollidedFlow:
    """The UncollidedFlow of the grid's modes and the quadrature's nodes
    under the cross sections and the source terms q_terms."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    for name, value in (("sigma", sigma), ("sigma_a", sigma_a)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if sigma_a > sigma:
        raise ValueError(f"sigma_a must satisfy 0 <= sigma_a <= sigma, got {sigma_a}")
    k1, k2, k3 = grid.k_grids()
    om = quad.nodes
    kdot = (
        k1[..., None] * om[:, 0]
        + k2[..., None] * om[:, 1]
        + k3[..., None] * om[:, 2]
    )
    lam = (sigma / eps**2 + sigma_a) + 1j * kdot / eps
    bits = lam.reshape(-1).view(np.dtype((np.void, lam.itemsize)))
    distinct, index = np.unique(bits, return_inverse=True)
    distinct = distinct.view(complex)
    index = index.reshape(lam.shape)
    profiles = tuple(
        (tm, gr.nodal_field(grid, quad, [replace(tm, time_poly=(1.0,), time_exp=0.0)]).values)
        for tm in q_terms
    )
    for array in (distinct, index) + tuple(p for _, p in profiles):
        array.flags.writeable = False
    return UncollidedFlow(distinct, index, profiles)


def solve_uncollided(state: gr.NodalField, a: float, b: float, eps: float,
                     sigma: float, sigma_a: float = 0.0, q_terms=()) -> gr.NodalField:
    """Exact evolution of the nodal state from a to b along each (mode,
    direction) characteristic (UncollidedFlow.advance).  uncollided_flow
    checks eps, sigma and sigma_a.
    """
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if b < a:
        raise ValueError(f"interval end {b} precedes start {a}")
    flow = uncollided_flow(state.grid, state.quad, eps, sigma, sigma_a, q_terms)
    return gr.NodalField(state.grid, state.quad, flow.advance(state.values, a, b))


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


def absorption_wrap(spec: ProblemSpec):
    """Change of variables removing absorption: returns the pure-scattering
    problem whose solution, multiplied by the returned scale(t), equals the
    absorbing solution.  The source picks up the inverse growth factor."""
    sa = spec.sigma_a
    if sa == 0.0:
        return spec, (lambda t: 1.0)
    pure = replace(spec, name=spec.name + "+absorption-removed", sigma_a=0.0,
                   q=tuple(replace(tm, time_exp=tm.time_exp + sa) for tm in spec.q))
    return pure, (lambda t: math.exp(-sa * t))

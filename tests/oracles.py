"""Reference routines the tests check the program against, none of which
the program itself calls: the time factor's derivatives through
numpy.polynomial and the phi-functions on a whole array, each taken afresh
on every call; the uncollided flow's advance to one time; the Hermitian
part of a coefficient box, for test data real in physical space, and the
deviation from it with the box flipped axis by axis; single harmonics and
the angular Sobolev norms; the damping-integral formulas; a sampled
source, random vectors over the half-space and the box source of a
re-emission drive, the axis turns of a class stack on real views, the
dense per-mode Duhamel step with a source of any moments, the energy
balance of a step and the absorption change of variables; each degree's
coupling blocks filled entry by entry, the mode generator from dense
streaming matrices, and the connected blocks of a generator's nonzero
pattern by label propagation."""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from pnhybrid import blas
from pnhybrid import bounds as bd
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import transport as tr

# Terms of the phi-functions' Taylor series below tr.PHI_SERIES_BELOW.
PHI_SERIES_TERMS = 20


def hermitian(u):
    """(u + conj u(-k)) / 2 of a box u shaped (k1, k2, k3, ...): exactly
    Hermitian, c(-k) = conj c(k) and c(0) real, since the sum commutes."""
    u = np.asarray(u)
    return 0.5 * (u + np.conj(np.flip(u, axis=(0, 1, 2))))


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


def advance_at(flow: tr.UncollidedFlow, values: np.ndarray, a: float, b: float) -> np.ndarray:
    """flow.advance(values, a, b) at the one time b, as the flow took it one
    time per call: the half-space H of the values times the decay, each
    source term's response gathered and multiplied by its profile.  The
    batched advance must keep these bits at every time of its array."""
    own = flow.distinct.size - flow.pairs
    decay = np.empty_like(flow.distinct)
    decay[:own] = np.exp(-flow.distinct[:own] * (b - a))
    np.conj(decay[own - flow.pairs:own], out=decay[own:])
    out = gr.half_space(values.reshape(-1, flow.index.shape[-1])) * decay[flow.index]
    for tm, profile in flow.profiles:
        out = out + _response_at(flow, tm, decay, a, b)[flow.index] * profile
    return out


def _response_at(flow: tr.UncollidedFlow, tm, decay, a: float, b: float) -> np.ndarray:
    """The source response of advance_at per distinct rate: the phi
    recurrence from the decay where |z| >= tr.PHI_SERIES_BELOW, one power
    series with scalar coefficients below."""
    h, mu = b - a, tm.time_exp
    at_end = math.exp(mu * b)
    scaled = np.array([d * h ** (j + 1) for j, d in enumerate(tm.time_derivatives(a))])
    z = -(flow.distinct + mu) * h
    small = np.abs(z) < tr.PHI_SERIES_BELOW
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
        powers = np.cumprod(np.broadcast_to(zs, (PHI_SERIES_TERMS - 1, zs.size)), axis=0)
        c = tr._series_table(len(scaled)) @ scaled
        acc[small] = at_end * (c[0] + c[1:] @ powers)
    return acc


# ---------------------------------------------------------------------------
# Harmonics: single evaluations and the angular Sobolev norms


def index_of(pos: int) -> tuple[int, int]:
    """Inverse of sh.ordinal: flat position -> (l, k)."""
    if pos < 0:
        raise ValueError(f"invalid ordinal {pos}")
    l = int(math.isqrt(pos))
    return l, pos - l * l - l


def basis_eval(l: int, k: int, direction) -> float:
    """Single harmonic m_{l,k} at one unit direction."""
    if abs(k) > l:
        raise ValueError(f"invalid spherical index (l={l}, k={k})")
    row = sh.basis_matrix(l, np.asarray(direction, dtype=float).reshape(1, 3))
    return float(row[0, sh.ordinal(l, k)])


def angular_seminorm(u: np.ndarray, s: int) -> float:
    """H^s(S^2) semi-norm: degrees l >= s weighted by (l+1/2)^(2s)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return math.sqrt(sh.degree_energy(u, s, s))


def angular_norm(u: np.ndarray, s: int) -> float:
    """Full H^s(S^2) norm: sqrt(s*||u||^2 + |u|_{H^s}^2)."""
    u = np.asarray(u)
    plain = float(np.sum(np.abs(u) ** 2))
    return math.sqrt(s * plain + angular_seminorm(u, s) ** 2)


def angular_norm_all_degrees(u: np.ndarray, s: int) -> float:
    """Norm with weights (l+1/2)^(2s) applied at every degree from zero."""
    return math.sqrt(sh.degree_energy(u, s, 0))


def tail_moments(u: np.ndarray, N: int) -> np.ndarray:
    """Complement of sh.project_moments: degrees above N, kept in place."""
    u = np.asarray(u).copy()
    nm = sh.n_moments(N)
    u[..., : min(nm, u.shape[-1])] = 0.0
    return u


# ---------------------------------------------------------------------------
# Bounds: the k-fold damping integral


def _check_damping(k: int, eps: float, sigma: float, span: float):
    if k < 0:
        raise ValueError("k must be nonnegative")
    bd._require("eps", eps, True)
    bd._require("sigma", sigma, False)
    bd._require("span", span, False)


def a_operator_bound(k: int, eps: float, sigma: float, span: float) -> float:
    """Upper bound for the k-fold damping integral applied to 1:
    min(eps^k/sigma^k, span^k/(k! eps^k))."""
    _check_damping(k, eps, sigma, span)
    if k == 0:
        return 1.0
    first = math.inf if sigma == 0.0 else (eps / sigma) ** k
    second = (span / eps) ** k / math.factorial(k)
    return min(first, second)


def a_operator_exact_decay(k: int, eps: float, sigma: float, span: float) -> float:
    """The k-fold damping integral applied to the decay profile
    exp(-sigma (t - a)/eps^2): exactly span^k exp(-sigma span/eps^2)/(k! eps^k)."""
    _check_damping(k, eps, sigma, span)
    return span**k * math.exp(-sigma * span / eps**2) / (math.factorial(k) * eps**k)


# ---------------------------------------------------------------------------
# Transport: a sampled source, the energy balance, the absorption transform


def source_sampler(spec: tr.ProblemSpec, grid: gr.SpatialGrid, N: int):
    """Callable t -> moment coefficients of the degree-truncated source,
    or None when the problem has no source."""
    if not spec.q:
        return None
    L = max(N, gr.angular_band(spec.q))

    def sample(t: float) -> np.ndarray:
        return gr.moment_field(grid, L, spec.q, t).truncate(N).coeffs

    return sample


def _e_minus(l: int, k: int) -> float:
    # sin(theta) ladder, k-raising, degree-lowering coefficient.
    num = (l - k) * (l - k - 1)
    return math.sqrt(max(num, 0) / ((2 * l + 1.0) * (2 * l - 1.0)))


def _f_minus(l: int, k: int) -> float:
    # sin(theta) ladder, k-lowering, degree-lowering coefficient.
    num = (l + k) * (l + k - 1)
    return math.sqrt(max(num, 0) / ((2 * l + 1.0) * (2 * l - 1.0)))


def coupling_degree(l: int) -> tuple:
    """sh._coupling_degree's (a_l^(1), a_l^(2), a_l^(3)) filled entry by
    entry, order k by order k, from scalar recurrence weights."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    a1 = np.zeros((2 * l - 1, 2 * l + 1))
    a2 = np.zeros((2 * l - 1, 2 * l + 1))
    a3 = np.zeros((2 * l - 1, 2 * l + 1))

    def put(a, kp, k, val):
        if abs(kp) <= l - 1 and val != 0.0:
            a[kp + l - 1, k + l] += val

    for k in range(-l, l + 1):
        kk = abs(k)
        # axis 3: Omega_3 = cos(theta), diagonal in order.
        put(a3, k, k, sh._alpha(l - 1, kk))
        em = _e_minus(l, kk)
        fm = _f_minus(l, kk)
        if k >= 2:
            put(a1, k + 1, k, -0.5 * em)
            put(a1, k - 1, k, 0.5 * fm)
            put(a2, -(k + 1), k, -0.5 * em)
            put(a2, -(k - 1), k, -0.5 * fm)
        elif k == 1:
            put(a1, 2, k, -0.5 * em)
            put(a1, 0, k, inv_sqrt2 * fm)
            put(a2, -2, k, -0.5 * em)
        elif k == 0:
            put(a1, 1, k, -inv_sqrt2 * em)
            put(a2, -1, k, -inv_sqrt2 * em)
        elif k == -1:
            put(a1, -2, k, -0.5 * em)
            put(a2, 0, k, inv_sqrt2 * fm)
            put(a2, 2, k, 0.5 * em)
        else:  # k <= -2
            put(a1, -(kk + 1), k, -0.5 * em)
            put(a1, -(kk - 1), k, 0.5 * fm)
            put(a2, kk - 1, k, 0.5 * fm)
            put(a2, kk + 1, k, 0.5 * em)
    return a1, a2, a3


def dense_mode_operator(k, N, eps, sigma, coupling, sigma_a=0.0):
    """tr.assemble_mode_operator's generator from the dense streaming
    matrices: L = 0, then (-i k_ax/eps) A^(ax) added for each nonzero axis
    in axis order, then the diagonal."""
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


def connected_blocks(L):
    """The connected components of the nonzero pattern of the square matrix
    L, symmetrised: one (blocks, w) index array per block width w, in
    ascending w, each block's indices ascending.  Labels are propagated
    along the nonzeros (each index takes the least label of its neighbours,
    then its label's label) until they settle on each component's least
    index."""
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


def conjugate_rest(op: tr.PnOperator, out):
    """out with every mode outside the half-space H set to the conjugate of
    its -k."""
    modes = op.modes()
    for idx, k in modes[len(modes) // 2 + 1:]:
        out[op.grid.index_of(tuple(-x for x in k))] = np.conj(out[idx])
    return out


def real_view_turn(stack, x: np.ndarray, transpose: bool) -> None:
    """tr._ClassStack._turn taken on real views: each turned row's vector,
    in place on x (..., stack rows, nm), its real and imaginary parts
    interleaved, times kron(R_l^T, I_2) into the frame or, with transpose,
    kron(R_l, I_2) out of it, degree block by degree block, the blocks R_l
    being those in stack.turned."""
    for rows, blocks in stack.turned:
        xs = x[..., rows, :]
        real = xs.view(float)
        for l, R in enumerate(blocks):
            K = np.zeros((2 * R.shape[0], 2 * R.shape[1]))
            K[0::2, 0::2] = R
            K[1::2, 1::2] = R
            s = slice(2 * l * l, 2 * (l + 1) ** 2)
            real[..., s] = real[..., s] @ (K.T if transpose else K)
        x[..., rows, :] = xs


def reality_residual(field) -> float:
    """gr.reality_residual with the box flipped along each active axis in
    turn: max |c(-k) - conj c(k)|."""
    data = field.coeffs if isinstance(field, gr.MomentField) else field.values
    flipped = data
    for ax in range(field.grid.dim):
        flipped = np.flip(flipped, axis=ax)
    return float(np.max(np.abs(flipped - np.conj(data))))


def dense_step(op: tr.PnOperator, coeffs, h, source=None, t0=0.0, substeps=None,
               propagator=None):
    """PnOperator.step as a loop over the modes of H, each with the dense
    expm of its own generator, or with propagator(k, length) when given,
    then c(-k) = conj c(k) for the others.  The source, when given, is a
    callable t -> coefficient box whose every moment drives (of which H is
    read), folded in by the Gauss-Legendre Duhamel rule of step on
    substeps, which a source needs."""
    coupling = sh.assemble_coupling(max(op.N, 1))
    props = {}

    def dense(k, length):
        return expm(length * tr.assemble_mode_operator(k, op.N, op.eps, op.sigma, coupling,
                                                       op.sigma_a))

    def prop(k, length):
        if (k, length) not in props:
            props[(k, length)] = (propagator or dense)(k, length)
        return props[(k, length)]

    out = np.array(coeffs, dtype=complex, copy=True)
    modes = op.modes()
    half = modes[len(modes) // 2:]
    if source is None:
        for idx, k in half:
            out[idx] = prop(k, h) @ out[idx]
    else:
        hs = h / substeps
        x, w = np.polynomial.legendre.leggauss(tr._DUHAMEL_NODES)
        taus = 0.5 * hs * (x + 1.0)
        wts = 0.5 * hs * w
        for j in range(substeps):
            ta = t0 + j * hs
            q_samples = [source(ta + tau) for tau in taus]
            for idx, k in half:
                u = prop(k, hs) @ out[idx]
                for m in range(tr._DUHAMEL_NODES):
                    u = u + wts[m] * (prop(k, float(hs - taus[m])) @ q_samples[m][idx])
                out[idx] = u
    return conjugate_rest(op, out)


def half_space_vectors(rng, op: tr.PnOperator, count: int) -> list:
    """count random complex vectors over the half-space H of op's modes,
    each real at k = 0, like a drive of data real in physical space."""
    half = len(op.modes()) - len(op.modes()) // 2
    vectors = [rng.standard_normal(half) + 1j * rng.standard_normal(half)
               for _ in range(count)]
    for x in vectors:
        x[0] = x[0].real
    return vectors


def drive_source(op: tr.PnOperator, drive):
    """The box source t -> coefficients that dense_step reads for a
    re-emission drive times -> (times, H modes), the source PnOperator.step
    takes: e_0 holds the drive at t on H, every other moment is zero, and
    each other mode is the conjugate of its -k."""
    def source(t):
        box = np.zeros(op.grid.shape + (op.nm,), dtype=complex)
        box.reshape(-1, op.nm)[len(op.modes()) // 2:, 0] = drive(np.array([t]))[0]
        return conjugate_rest(op, box)

    return source


def audit_energy_identity(state: gr.MomentField, h, eps, sigma, drive=None,
                          t0=0.0):
    """Residual of the balance law over one step, relative to the initial
    squared norm: the decrease of ||psi||^2 must match the dissipation
    (2 sigma/eps^2) int ||psi - psi_bar||^2 plus twice the work of the source.
    Every step is PnOperator.step's, with the isotropic re-emission drive
    times -> (times, H modes) when one is given, whose box (drive_source)
    does the work, on substeps that follow the operator's fastest rate
    (tr.duhamel_substeps).  Every OpenBLAS pool runs at one thread, as in
    tr.solve_pn.
    """
    with blas.single_thread():
        op = tr.PnOperator(state.grid, state.N, eps, sigma, 0.0)

        def advance(coeffs, length, t0):
            return op.step(coeffs, length, source=drive, t0=t0,
                           substeps=tr.duhamel_substeps(op.max_rate, length))

        source = None if drive is None else drive_source(op, drive)
        measure = state.grid.measure
        u0 = state.coeffs
        u1 = advance(u0, h, t0=t0)
        lhs = measure * (float(np.sum(np.abs(u1) ** 2)) - float(np.sum(np.abs(u0) ** 2)))

        nsub = tr.duhamel_substeps(op.max_rate, h)
        x, w = tr._duhamel_rule()
        total = 0.0
        hs = h / nsub
        coeffs = np.array(u0, copy=True)
        for j in range(nsub):
            ta = t0 + j * hs
            for xi, wi in zip(x, w):
                tau = 0.5 * hs * (xi + 1.0)
                mid = advance(coeffs, tau, t0=ta)
                fluct = mid.copy()
                fluct[..., 0] = 0.0
                rate = -(2.0 * sigma / eps**2) * float(np.sum(np.abs(fluct) ** 2))
                if source is not None:
                    qv = source(ta + tau)
                    rate += 2.0 * float(np.sum((np.conj(qv) * mid).real))
                total += 0.5 * hs * wi * measure * rate
            coeffs = advance(coeffs, hs, t0=ta)
    denom = max(measure * float(np.sum(np.abs(u0) ** 2)), 1e-300)
    return abs(lhs - total) / denom


def absorption_wrap(spec: tr.ProblemSpec):
    """Change of variables removing absorption: returns the pure-scattering
    problem whose solution, multiplied by the returned scale(t), equals the
    absorbing solution.  The source picks up the inverse growth factor."""
    sa = spec.sigma_a
    if sa == 0.0:
        return spec, (lambda t: 1.0)
    pure = replace(spec, name=spec.name + "+absorption-removed", sigma_a=0.0,
                   q=tuple(replace(tm, time_exp=tm.time_exp + sa) for tm in spec.q))
    return pure, (lambda t: math.exp(-sa * t))

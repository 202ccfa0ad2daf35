"""Closed-form evaluators for every error bound the solvers are tested
against: the five-term spectral estimate for the monolithic solver, its
isotropic corollary, the interval-splitting estimate for the hybrid scheme,
the absorbing variants, the exponential-moment kernels, the iterated
damping operator, a regime advisor, and inequality audits.

All evaluators take plain numbers in and give a BoundReport out; nothing
here runs a solver.  The reported constant is 1; harness fits rescale it
per theorem and problem family.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from . import grid as gr
from . import harmonics as sh
from . import transport as tr

# Switch point between the Taylor branch and the closed-form branch of the
# exponential-moment kernels.  The 20-term series is accurate to well below
# 1e-13 out to tau ~ 1.5 and every closed form has shed its small-tau
# cancellation by tau ~ 0.9, so both branches hold 1e-13 agreement in a
# window around the switch.
TAU_STAR = 1.0
_SERIES_TERMS = 20


def _series_coeffs(term_fn) -> np.ndarray:
    vals = [float(term_fn(k)) for k in range(_SERIES_TERMS)]
    return np.array(vals[::-1])  # highest power first, for polyval


# gamma(tau) = sum_k (-tau)^k/(k+1)!.
_GAMMA_SER = _series_coeffs(lambda k: Fraction((-1) ** k, math.factorial(k + 1)))
# beta_n(tau)/tau = sum_k (n-1)! (-1)^k (k+1)/(k+n+1)! tau^k.
_BETA_SER = {
    n: _series_coeffs(lambda k, n=n: Fraction(
        math.factorial(n - 1) * (-1) ** k * (k + 1), math.factorial(k + n + 1)))
    for n in (1, 2, 3)
}
# Closed form of beta_n(tau), given tau and e = exp(-tau).
_BETA_CLOSED = {
    1: lambda tau, e: (1.0 - e - tau * e) / tau,
    2: lambda tau, e: (tau * e + 2.0 * e + tau - 2.0) / tau**2,
    3: lambda tau, e: (tau**2 - 4.0 * tau - 2.0 * tau * e + 6.0 - 6.0 * e) / tau**3,
}


def _check_tau(tau: float):
    if not tau >= 0:  # refuses nan too
        raise ValueError(f"kernel argument must be nonnegative, got {tau}")


def _pick(branch: str, tau: float) -> bool:
    """True for the series branch."""
    if branch == "auto":
        return tau < TAU_STAR
    if branch == "series":
        return True
    if branch == "closed":
        return False
    raise ValueError(f"unknown branch {branch!r}")


def kappa(tau: float, branch: str = "auto") -> float:
    """exp(-tau); no cancellation, so both branches coincide."""
    _check_tau(tau)
    _pick(branch, tau)  # refuses an unknown branch like every other kernel
    return math.exp(-tau)


def gamma_fn(tau: float, branch: str = "auto") -> float:
    """(1 - exp(-tau))/tau, the running average of kappa; 1 at tau = 0."""
    _check_tau(tau)
    if _pick(branch, tau):
        return float(np.polyval(_GAMMA_SER, tau))
    return (1.0 - math.exp(-tau)) / tau


def beta1(tau: float, branch: str = "auto") -> float:
    """(1 - exp(-tau) - tau exp(-tau))/tau, the n = 1 member of the family
    defined in `beta`: tau^-1 int_0^tau p exp(-p) dp.  Slope 1/2 at zero,
    tail 1/tau."""
    return beta(1, tau, branch)


def beta2(tau: float, branch: str = "auto") -> float:
    """(tau exp(-tau) + 2 exp(-tau) + tau - 2)/tau^2, the n = 2 member of the
    family defined in `beta`: tau^-2 int_0^tau (tau - p) p exp(-p) dp.
    Slope 1/6 at zero, tail 1/tau.  Companion identity (factor n - 1 = 1):
    u^2 beta2(sigma u) = int_0^u s beta1(sigma s) ds."""
    return beta(2, tau, branch)


def beta3(tau: float, branch: str = "auto") -> float:
    """(tau^2 - 4 tau - 2 tau exp(-tau) + 6 - 6 exp(-tau))/tau^3, the n = 3
    member of the family defined in `beta`:
    tau^-3 int_0^tau (tau - p)^2 p exp(-p) dp.  Slope 1/12 at zero, tail
    1/tau.  Companion identity (factor n - 1 = 2):
    u^3 beta3(sigma u) = 2 int_0^u s^2 beta2(sigma s) ds."""
    return beta(3, tau, branch)


def beta(n: int, tau: float, branch: str = "auto") -> float:
    """The exponential-moment kernel of order n in {1, 2, 3}.

    All three share one definition,

        beta_n(tau) = tau^-n int_0^tau (tau - p)^(n-1) p exp(-p) dp,

    from which follow:

    * the companion identity: d/dtau [tau^n beta_n(tau)]
      = (n-1) tau^(n-1) beta_(n-1)(tau), hence
      u^n beta_n(sigma u) = (n-1) int_0^u s^(n-1) beta_(n-1)(sigma s) ds
      for n >= 2 (no extra factor for n = 2, a factor 2 for n = 3);
    * the slope at zero, beta_n(tau)/tau -> 1/(n(n+1)): 1/2, 1/6, 1/12;
    * the tail, beta_n(tau) ~ 1/tau for every n.
    """
    if n not in _BETA_SER:
        raise ValueError(f"beta kernels are defined for n in {{1,2,3}}, got {n}")
    _check_tau(tau)
    if _pick(branch, tau):
        return tau * float(np.polyval(_BETA_SER[n], tau))
    return _BETA_CLOSED[n](tau, math.exp(-tau))


def kernel_functions() -> dict:
    """Name -> callable map of every kernel, for audits and the CLI."""
    return {
        "kappa": kappa,
        "gamma": gamma_fn,
        "beta1": beta1,
        "beta2": beta2,
        "beta3": beta3,
    }


def _require(name: str, value: float, positive: bool):
    """Refuse a value that is not finite and positive (or nonnegative)."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        need = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {need}, got {value}")


def _check_damping(k: int, eps: float, sigma: float, span: float):
    if k < 0:
        raise ValueError("k must be nonnegative")
    _require("eps", eps, True)
    _require("sigma", sigma, False)
    _require("span", span, False)


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


@dataclass(frozen=True)
class BoundTerm:
    name: str
    value: float
    branch: str = ""


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    total: float
    terms: tuple
    notes: str = ""

    def to_text(self) -> str:
        lines = [f"{self.theorem}: total = {self.total:.6e} (constant 1)"]
        for t in self.terms:
            tag = f"  [{t.branch}]" if t.branch else ""
            lines.append(f"  {t.name} = {t.value:.6e}{tag}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


@dataclass(frozen=True)
class BoundInputs:
    """Everything a bound evaluator needs: discretization, scaling, and the
    mixed-seminorm sizes of the data, keyed by (spatial order, angular order).
    Frozen, and the norms are kept as read-only copies, so the checks made
    at construction hold for every evaluator; build a variant with
    dataclasses.replace."""

    s: int
    N: int
    eps: float
    sigma: float
    T: float
    dt: float | None = None
    sigma_a: float = 0.0
    g_norms: Mapping = dc_field(default_factory=dict)
    q_sup_norms: Mapping = dc_field(default_factory=dict)

    def __post_init__(self):
        checks = [("eps", self.eps, True), ("T", self.T, True),
                  ("sigma", self.sigma, False), ("sigma_a", self.sigma_a, False)]
        if self.dt is not None:
            checks.append(("dt", self.dt, True))
        for check in checks:
            _require(*check)
        if self.s < 1:
            raise ValueError(f"the bound needs s >= 1, got s={self.s}")
        if self.N < self.s - 1:
            raise ValueError(f"the bound needs N >= s-1, got N={self.N}, s={self.s}")
        if self.sigma_a > self.sigma:
            raise ValueError(
                f"sigma_a must satisfy 0 <= sigma_a <= sigma_t, got {self.sigma_a}"
            )
        for name in ("g_norms", "q_sup_norms"):
            norms = dict(getattr(self, name))
            for key, value in norms.items():
                _require(f"{name}[{key}]", value, False)
            object.__setattr__(self, name, MappingProxyType(norms))


def _need(norms: Mapping, r: int, s: int, what: str) -> float:
    key = (r, s)
    if key not in norms:
        raise ValueError(f"missing data norm H^({r},{s}) of {what}")
    return float(norms[key])


def _min_branch(a: float, a_name: str, b: float, b_name: str):
    return (a, a_name) if a <= b else (b, b_name)


def _diffusive_branch(eps: float, sigma: float, T: float, s: int) -> float:
    """eps^(s-1) s! T/sigma^s, the diffusive branch of the mixed-regularity
    term of both the P_N and the hybrid bound; inf without scattering."""
    return math.inf if sigma == 0.0 else eps ** (s - 1) * math.factorial(s) * T / sigma**s


def pn_error_bound(bi: BoundInputs) -> BoundReport:
    """Five-term bound on the monolithic solver error at time T in L^2.

    Purely isotropic data (all angular-derivative norms zero) reduces the
    bound to the single mixed-regularity term, reported as the corollary.
    """
    s, N, eps, sigma, T = bi.s, bi.N, bi.eps, bi.sigma, bi.T
    damp = math.exp(-sigma * T / eps**2)
    proj = (N + 1.0) ** (-s)

    g0s = _need(bi.g_norms, 0, s, "g")
    q0s = _need(bi.q_sup_norms, 0, s, "q")
    g_s1 = _need(bi.g_norms, s + 1, 0, "g")
    q_s1 = _need(bi.q_sup_norms, s + 1, 0, "q")
    g_mix = [_need(bi.g_norms, 1 + i, s - i, "g") for i in range(s)]
    q_mix = [_need(bi.q_sup_norms, 1 + i, s - i, "q") for i in range(s)]

    terms = []
    t1 = damp * proj * g0s
    terms.append(BoundTerm("initial-tail", t1))

    v2, b2 = _min_branch(
        math.inf if sigma == 0.0 else eps**2 / sigma, "eps^2/sigma", T, "T"
    )
    terms.append(BoundTerm("source-tail", proj * q0s * v2, b2))

    diff3 = _diffusive_branch(eps, sigma, T, s)
    stream3 = (T / eps) ** (s + 1)
    v3, b3 = _min_branch(diff3, "diffusive", stream3, "streaming")
    terms.append(BoundTerm("mixed-regularity", 2.0 * proj * (g_s1 + T * q_s1) * v3, b3))

    t4 = 0.0
    for i in range(s):
        t4 += g_mix[i] * math.comb(s, i) * T ** (i + 1) / eps ** (i + 1)
    terms.append(BoundTerm("initial-cross", 2.0 * proj * damp * t4))

    for i in range(s):
        diff5 = math.inf if sigma == 0.0 else eps ** (i + 1) * T / sigma ** (i + 1)
        stream5 = T ** (i + 2) / (math.factorial(i + 1) * eps ** (i + 1))
        v5, b5 = _min_branch(diff5, "diffusive", stream5, "streaming")
        coeff = math.factorial(s) / math.factorial(s - i)
        terms.append(
            BoundTerm(f"source-cross[i={i}]", 2.0 * proj * q_mix[i] * coeff * v5, b5)
        )

    iso = (
        g0s == 0.0
        and q0s == 0.0
        and all(v == 0.0 for v in g_mix)
        and all(v == 0.0 for v in q_mix)
    )
    if iso:
        keep = [t for t in terms if t.name == "mixed-regularity"]
        total = sum(t.value for t in keep)
        return BoundReport("pn-isotropic", total, tuple(keep),
                           notes="isotropic data: only the mixed-regularity term survives")
    total = sum(t.value for t in terms)
    return BoundReport("pn", total, tuple(terms))


def hybrid_error_bound(bi: BoundInputs) -> BoundReport:
    """Bound on the hybrid error at the left limit of T."""
    s, N, eps, sigma, T, dt = bi.s, bi.N, bi.eps, bi.sigma, bi.T, bi.dt
    if dt is None:
        raise ValueError("the hybrid bound needs dt")
    g_s1 = _need(bi.g_norms, s + 1, 0, "g")
    q_s1 = _need(bi.q_sup_norms, s + 1, 0, "q")
    proj = (N + 1.0) ** (-s)
    diff = _diffusive_branch(eps, sigma, T, s)
    stream = (dt**s * T / eps ** (s + 1)) * min(1.0, dt * sigma / eps**2)
    v, b = _min_branch(diff, "diffusive", stream, "interval")
    total = 2.0 * proj * (g_s1 + T * q_s1) * v
    return BoundReport(
        "hybrid", total,
        (BoundTerm("mixed-regularity", total, b),),
        notes="zero exactly when sigma = 0" if sigma == 0.0 else "",
    )


def absorbing_bounds(bi: BoundInputs, family: str = "pn") -> BoundReport:
    """Bounds for problems with absorption: the pure-scattering bound at
    sigma = sigma_t with every initial-data term damped by exp(-sigma_a T).

    The change of variables behind this is exact, so source norms enter
    undamped (they are norms of the original source, not the rescaled one).
    """
    damp = math.exp(-bi.sigma_a * bi.T)
    damped = replace(bi, sigma_a=0.0, g_norms={k: damp * v for k, v in bi.g_norms.items()})
    if family == "pn":
        rep = pn_error_bound(damped)
    elif family == "hybrid":
        rep = hybrid_error_bound(damped)
    else:
        raise ValueError(f"unknown bound family {family!r}")
    return BoundReport(
        theorem=rep.theorem + "-absorbing",
        total=rep.total,
        terms=rep.terms,
        notes=f"initial-data terms damped by exp(-sigma_a T) = {damp:.6e}",
    )


def regime_advisor(eps: float, sigma: float, T: float, s: int) -> tuple[str, float]:
    """(label, dt_crossover): the step size at which the hybrid bound's
    interval branch overtakes its diffusive branch, (s!)^(1/s) eps^2/sigma,
    and the problem's class against the range of candidate steps T/64 .. T."""
    if not (math.isfinite(eps) and eps > 0 and math.isfinite(sigma) and sigma >= 0
            and math.isfinite(T) and T > 0 and s >= 1):
        raise ValueError(f"need finite eps > 0, sigma >= 0, T > 0 and s >= 1, got "
                         f"eps={eps}, sigma={sigma}, T={T}, s={s}")
    lo, hi = T / 64.0, T
    if sigma == 0.0:
        return "streaming-exact", math.inf
    dt_star = math.factorial(s) ** (1.0 / s) * eps**2 / sigma
    if dt_star < lo:
        return "diffusive; dt unconstrained by accuracy", dt_star
    if dt_star > hi:
        return "streaming", dt_star
    return "transition", dt_star


@dataclass
class AuditReport:
    checks_run: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_inequalities(s_max: int = 5, l_max: int = 64, n_samples: int = 1000,
                       seed: int = 0) -> AuditReport:
    """Numerical audit of the inequalities the theory leans on: the
    degree-weight difference bound, the norm-equivalence sandwich, and the
    spectral approximation property, on deterministic grids and seeded
    random vectors.  Violations are collected, not raised."""
    rng = np.random.default_rng(seed)
    violations = []
    checks = 0

    for s in range(1, s_max + 1):
        for l in range(s, l_max + 1):
            gamma_sl = 0.0 if l == s else 1.0
            lhs = (l + 0.5) ** (2 * s) - gamma_sl * (l - 0.5) ** (2 * s)
            rhs = 2.0 * math.e * s * (l + 0.5) ** s * (l - 0.5) ** (s - 1)
            checks += 1
            if lhs > rhs * (1.0 + 1e-12):
                violations.append(
                    ("degree-weight-difference", {"s": s, "l": l, "lhs": lhs, "rhs": rhs})
                )

    # Draw in the order of one pass per sample (the vector, then s and N of
    # its approximation check), then judge all samples at once from their
    # per-degree energies, summed by degree as angular_seminorm sums them.
    L = 12
    nm = sh.n_moments(L)
    U = np.empty((n_samples, nm))
    S = np.empty(n_samples, dtype=int)
    Ns = np.empty(n_samples, dtype=int)
    for i in range(n_samples):
        U[i] = rng.standard_normal(nm)
        S[i] = rng.integers(1, 4)
        Ns[i] = rng.integers(max(0, S[i] - 1), L)
    energy = np.stack(
        [np.sum(U[:, sh.degree_slice(l)] ** 2, axis=1) for l in range(L + 1)], axis=1
    )
    degrees = np.arange(L + 1)

    def degree_sum(weights, keep):
        total = np.zeros(n_samples)
        for l in range(L + 1):
            total = total + np.where(keep[..., l], weights[..., l] * energy[:, l], 0.0)
        return total

    found = []  # (sample, position within the sample's checks, violation)
    plain = np.sum(U ** 2, axis=1)
    for pos, s in enumerate((0, 1, 2, 3)):
        c1, c2 = sh.equivalence_constants(s)
        weights = (degrees + 0.5) ** (2 * s)
        full = np.sqrt(s * plain + degree_sum(weights, degrees >= s))
        alldeg = np.sqrt(degree_sum(weights, degrees >= 0))
        checks += n_samples
        bad = (c1 * full > alldeg * (1.0 + 1e-12)) | (alldeg > c2 * full * (1.0 + 1e-12))
        for i in np.flatnonzero(bad):
            found.append((i, pos, ("norm-equivalence", {
                "sample": int(i), "s": s, "c1*full": float(c1 * full[i]),
                "alldeg": float(alldeg[i]), "c2*full": float(c2 * full[i])})))

    # Approximation property: the tail above degree N, of which only
    # degrees l > N >= s - 1 carry energy.
    tail = degrees[None, :] > Ns[:, None]
    lhs = np.sqrt(degree_sum(np.ones(L + 1), tail))
    weights = (degrees[None, :] + 0.5) ** (2 * S[:, None])
    rhs = (Ns + 1.0) ** (-S) * np.sqrt(degree_sum(weights, tail))
    checks += n_samples
    for i in np.flatnonzero(lhs > rhs + 1e-13):
        found.append((i, 4, ("approximation-property", {
            "sample": int(i), "s": int(S[i]), "N": int(Ns[i]),
            "lhs": float(lhs[i]), "rhs": float(rhs[i])})))
    violations += [v for _, _, v in sorted(found, key=lambda f: f[:2])]
    return AuditReport(checks_run=checks, violations=violations)


def required_pairs(s: int, family: str = "pn") -> list:
    """The (r, s) mixed-norm pairs a bound family consumes."""
    if family == "pn":
        pairs = [(0, s), (s + 1, 0)] + [(1 + i, s - i) for i in range(s)]
    elif family == "hybrid":
        pairs = [(s + 1, 0)]
    else:
        raise ValueError(f"unknown bound family {family!r}")
    return pairs


def data_norms(spec: tr.ProblemSpec, pairs, grid=None):
    """Mixed seminorms |.|_{H^(r,s)} of g and of q (sup in time) for each
    requested (r, s) pair.

    The descriptors are finite expansions, so every norm is exact up to the
    time sampling of the sup.  The source is q(t) = sum_i f_i(t) Q_i, one
    time-free moment field Q_i per term, built once and shared by every
    pair; the sup is taken over 33 sample times (_sup_seminorm).
    """
    if grid is None:
        grid = tr.default_grid(spec)
    g_out, qs_out = {}, {}
    T = spec.t_final
    t_sup = np.concatenate(
        [[0.0, T], 0.5 * T * (1.0 + np.cos(np.pi * np.arange(1, 32) / 32.0))]
    )
    gf = gr.moment_field(grid, max(gr.angular_band(spec.g), 1), spec.g) if spec.g else None
    if spec.q:
        Lq = max(gr.angular_band(spec.q), 1)
        fields = np.stack([
            gr.moment_field(grid, Lq, [replace(tm, time_poly=(1.0,), time_exp=0.0)]).coeffs
            for tm in spec.q
        ])
        f = np.array([[tm.time_value(t) for tm in spec.q] for t in t_sup])
    for (r, s) in pairs:
        g_out[(r, s)] = gr.hrs_seminorm(gf, r, s) if gf is not None else 0.0
        qs_out[(r, s)] = _sup_seminorm(grid, fields, f, r, s) if spec.q else 0.0
    return g_out, qs_out


def _sup_seminorm(grid, fields: np.ndarray, f: np.ndarray, r: int, s: int) -> float:
    """max over the rows t of f of |sum_i f[t, i] fields[i]|_{H^(r,s)}.

    Each derivative tuple's seminorm is the square root of the quadratic
    form of the Gram matrix G_ij = measure * sum_l (l+1/2)^(2s) <D Q_i, D Q_j>
    (degrees l >= s) at f(t).  Every row of f is first scaled by its
    largest entry, which multiplies the sum of the roots afterwards, so
    the squares stay within the float range wherever the norm does."""
    n, nm = fields.shape[0], fields.shape[-1]
    degree = sh.moment_degrees(math.isqrt(nm) - 1)
    weight = np.where(degree >= s, (degree + 0.5) ** (2 * s), 0.0)
    size = np.max(np.abs(f), axis=1)
    unit = f / np.where(size > 0.0, size, 1.0)[:, None]
    total = np.zeros(len(f))
    for w in gr.derivative_weights(grid, r):
        x = (fields * w[..., None]).reshape(n, -1, nm)
        gram = grid.measure * np.einsum("ism,jsm->ij", x.conj(), x * weight)
        form = np.einsum("ti,ij,tj->t", unit.conj(), gram, unit).real
        total += np.sqrt(np.maximum(form, 0.0))
    return float(np.max(size * total))


def bound_inputs(spec: tr.ProblemSpec, s: int, N: int, grid=None,
                 family: str = "pn") -> BoundInputs:
    """Assemble BoundInputs for a problem by measuring its data norms; the
    interval length is the problem's dt."""
    pairs = required_pairs(s, family)
    g_norms, q_sup = data_norms(spec, pairs, grid)
    return BoundInputs(
        s=s, N=N, eps=spec.eps, sigma=spec.sigma_t, T=spec.t_final,
        dt=float(spec.dt),
        sigma_a=spec.sigma_a,
        g_norms=g_norms, q_sup_norms=q_sup,
    )

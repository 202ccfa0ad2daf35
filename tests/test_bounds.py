import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from pnhybrid import bounds as bd
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import transport as tr

import oracles


def test_kernel_frozen_values():
    assert bd.kappa(0.0) == 1.0
    assert bd.gamma_fn(1.0) == pytest.approx(0.6321205588285577, abs=1e-16)
    assert bd.beta1(1.0) == pytest.approx(0.26424111765711533, abs=1e-16)
    assert bd.gamma_fn(0.0) == 1.0
    assert bd.beta1(0.0) == 0.0
    assert bd.beta2(0.0) == 0.0
    assert bd.beta3(0.0) == 0.0


def test_kernel_branch_agreement_near_switch():
    # Both evaluation branches agree to 1e-13 relative in a window around
    # the switch point.
    fns = list(bd.kernel_functions().values())
    for tau in np.linspace(0.9 * bd.TAU_STAR, 1.1 * bd.TAU_STAR, 41):
        for fn in fns:
            s = fn(float(tau), "series")
            c = fn(float(tau), "closed")
            assert abs(s - c) <= 1e-13 * abs(c), f"{fn.__name__} at {tau}"


@pytest.mark.parametrize("name", sorted(bd.kernel_functions()))
def test_every_kernel_rejects_an_unknown_branch(name):
    # kappa has one formula for both branches, but refuses a third like the rest.
    fn = bd.kernel_functions()[name]
    with pytest.raises(ValueError, match="^unknown branch 'bogus'$"):
        fn(0.5, "bogus")


def test_kernel_rejects_negative_argument():
    with pytest.raises(ValueError):
        bd.gamma_fn(-0.5)
    with pytest.raises(ValueError):
        bd.beta(2, -1.0)
    with pytest.raises(ValueError):
        bd.beta(4, 1.0)
    # nan once passed the tau < 0 test and came back as a nan kernel value.
    for kernel in (bd.kappa, bd.gamma_fn, lambda tau: bd.beta(2, tau)):
        with pytest.raises(ValueError, match="^kernel argument must be nonnegative, got nan$"):
            kernel(math.nan)


def test_kernel_small_tau_slopes():
    # Leading coefficients of the series: 1/(n(n+1)) = 1/2, 1/6, 1/12.
    assert bd.beta1(1e-4) / 1e-4 == pytest.approx(0.5, rel=1e-3)
    assert bd.beta2(1e-4) / 1e-4 == pytest.approx(1.0 / 6.0, rel=1e-3)
    assert bd.beta3(1e-4) / 1e-4 == pytest.approx(1.0 / 12.0, rel=1e-3)


def test_kernel_large_tau_tails():
    # Every averaged kernel behaves like 1/tau far out.
    for fn in (bd.gamma_fn, bd.beta1, bd.beta2, bd.beta3):
        assert fn(100.0) == pytest.approx(0.01, rel=0.1)


def test_first_beta_identity_by_quadrature():
    # int_{t_m}^{t} (s - t_m) beta1(sigma (s - t_m)) ds
    #   = (t - t_m)^2 beta2(sigma (t - t_m))
    x, w = leggauss(200)
    for sigma, u in ((0.7, 1.3), (2.0, 0.4), (5.0, 3.0), (1.0, 1e-3)):
        ss = 0.5 * u * (x + 1.0)
        ww = 0.5 * u * w
        lhs = sum(wi * si * bd.beta1(sigma * si) for si, wi in zip(ss, ww))
        rhs = u**2 * bd.beta2(sigma * u)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_second_beta_relation_has_half_factor():
    # The integrated square-weighted beta2 equals half of the cubic-weighted
    # beta3: the factor is the n - 1 = 2 of the companion identity
    # u^n beta_n(sigma u) = (n-1) int_0^u s^(n-1) beta_(n-1)(sigma s) ds.
    x, w = leggauss(200)
    for sigma, u in ((0.7, 1.3), (2.0, 0.4), (5.0, 3.0)):
        ss = 0.5 * u * (x + 1.0)
        ww = 0.5 * u * w
        lhs = sum(wi * si * si * bd.beta2(sigma * si) for si, wi in zip(ss, ww))
        rhs = u**3 * bd.beta3(sigma * u)
        assert lhs == pytest.approx(0.5 * rhs, rel=1e-8)


def _a_apply_num(f, t, alpha, eps, sigma, n=64):
    """One application of the damping integral by Gauss-Legendre; t may be
    an array, in which case the node axis is appended internally."""
    t = np.asarray(t, dtype=float)
    x, w = leggauss(n)
    half = 0.5 * (t - alpha)
    tau = alpha + half[..., None] * (x + 1.0)
    wts = half[..., None] * w
    kern = np.exp(-sigma * (t[..., None] - tau) / eps**2)
    return np.sum(kern * f(tau) * wts, axis=-1) / eps


def _a_power_num(k, t, alpha, eps, sigma, base=None, n=64):
    f = base if base is not None else (lambda tau: np.ones_like(tau))
    for _ in range(k):
        captured = f
        f = lambda tau, g=captured: _a_apply_num(g, tau, alpha, eps, sigma, n)
    return f(np.asarray(t, dtype=float))


def test_a_operator_exact_decay_matches_nested_quadrature():
    # A^k applied to the unit decay profile has a closed form; the nested
    # quadrature oracle must reproduce it to 1e-9 relative.
    alpha = 0.3
    for k in (1, 2, 3):
        for eps in (0.4, 1.0):
            for sigma in (0.0, 0.8, 2.0):
                for span in (0.2, 1.0):
                    t = alpha + span
                    base = lambda tau: np.exp(-sigma * (tau - alpha) / eps**2)
                    got = float(_a_power_num(k, t, alpha, eps, sigma, base))
                    want = oracles.a_operator_exact_decay(k, eps, sigma, span)
                    assert got == pytest.approx(want, rel=1e-9)


def test_a_operator_bound_dominates_nested_quadrature():
    alpha = 0.0
    for k in (1, 2, 3):
        for eps in (0.4, 1.0):
            for sigma in (0.0, 0.8, 2.0):
                for span in (0.2, 1.0):
                    val = float(_a_power_num(k, span, alpha, eps, sigma))
                    cap = oracles.a_operator_bound(k, eps, sigma, span)
                    assert val <= cap * (1.0 + 1e-12)


def test_a_operator_k_zero_and_sigma_zero():
    assert oracles.a_operator_bound(0, 0.5, 0.0, 3.0) == 1.0
    assert oracles.a_operator_bound(2, 0.5, 0.0, 2.0) == pytest.approx(8.0, abs=1e-14)
    assert oracles.a_operator_exact_decay(0, 0.5, 1.0, 2.0) == pytest.approx(
        math.exp(-8.0), rel=1e-15
    )


def _inputs_s1():
    return bd.BoundInputs(
        s=1, N=3, eps=0.5, sigma=2.0, T=1.0, dt=0.25,
        g_norms={(0, 1): 2.0, (2, 0): 3.0, (1, 1): 4.0},
        q_sup_norms={(0, 1): 1.0, (2, 0): 5.0, (1, 1): 6.0},
    )


def test_pn_error_bound_terms_frozen():
    bi = _inputs_s1()
    rep = bd.pn_error_bound(bi)
    by_name = {t.name: t for t in rep.terms}
    damp = math.exp(-8.0)
    assert by_name["initial-tail"].value == pytest.approx(damp * 0.25 * 2.0, rel=1e-14)
    # min(eps^2/sigma, T) = min(0.125, 1) = 0.125
    assert by_name["source-tail"].value == pytest.approx(0.25 * 1.0 * 0.125, rel=1e-14)
    assert by_name["source-tail"].branch == "eps^2/sigma"
    # min(T/sigma, (T/eps)^2) = min(0.5, 4)
    assert by_name["mixed-regularity"].value == pytest.approx(
        2.0 * 0.25 * (3.0 + 5.0) * 0.5, rel=1e-14
    )
    assert by_name["mixed-regularity"].branch == "diffusive"
    assert by_name["initial-cross"].value == pytest.approx(
        2.0 * 0.25 * damp * 4.0 * 1.0 * (1.0 / 0.5), rel=1e-14
    )
    # i = 0: (1/1) * min(eps T/sigma, T^2/eps) = min(0.25, 2)
    assert by_name["source-cross[i=0]"].value == pytest.approx(
        2.0 * 0.25 * 6.0 * 0.25, rel=1e-14
    )
    assert rep.total == pytest.approx(sum(t.value for t in rep.terms), rel=1e-15)


def test_pn_error_bound_requires_norms():
    bi = _inputs_s1()
    g = {key: value for key, value in bi.g_norms.items() if key != (2, 0)}
    with pytest.raises(ValueError, match=r"H\^\(2,0\)"):
        bd.pn_error_bound(replace(bi, g_norms=g))


def test_pn_error_bound_validates_orders():
    bi = _inputs_s1()
    with pytest.raises(ValueError, match=r"^the bound needs s >= 1, got s=0$"):
        replace(bi, s=0)
    with pytest.raises(ValueError, match=r"^the bound needs N >= s-1, got N=3, s=5$"):
        replace(bi, s=5, N=3)


def test_pn_error_bound_isotropic_route():
    bi = bd.BoundInputs(
        s=2, N=5, eps=1.0, sigma=1.0, T=1.0,
        g_norms={(0, 2): 0.0, (3, 0): 7.0, (1, 2): 0.0, (2, 1): 0.0},
        q_sup_norms={(0, 2): 0.0, (3, 0): 0.0, (1, 2): 0.0, (2, 1): 0.0},
    )
    rep = bd.pn_error_bound(bi)
    assert rep.theorem == "pn-isotropic"
    assert len(rep.terms) == 1
    # min(eps * 2 T / sigma^2, (T/eps)^3) = min(2, 1) = 1
    assert rep.total == pytest.approx(2.0 * 6.0**-2 * 7.0 * 1.0, rel=1e-14)


def test_pn_error_bound_sigma_zero_picks_streaming():
    rep = bd.pn_error_bound(replace(_inputs_s1(), sigma=0.0))
    by_name = {t.name: t for t in rep.terms}
    assert by_name["source-tail"].branch == "T"
    assert by_name["mixed-regularity"].branch == "streaming"
    assert math.isfinite(rep.total)


@pytest.mark.parametrize("field,value", [
    ("eps", 0.0), ("eps", -1.0), ("eps", math.nan), ("T", 0.0), ("T", math.inf),
    ("sigma", -1.0), ("sigma", math.nan), ("dt", -0.25), ("dt", 0.0), ("dt", math.nan),
    ("sigma_a", -0.5), ("sigma_a", math.inf),
    ("s", 1.5), ("s", True), ("N", 2.5), ("N", True),
])
def test_bound_inputs_reject_bad_values(field, value):
    # Each of these once reached an evaluator: hybrid_error_bound returned
    # -0.0625 for dt = -0.25 or sigma = -1, nan for eps = nan, 0.00765 for
    # N = 2.5, a degree that does not exist, and divided by zero for eps = 0;
    # s = 1.5 failed in math.factorial with a TypeError.
    kwargs = dict(s=2, N=3, eps=1.0, sigma=1.0, T=1.0, dt=0.25,
                  g_norms={(3, 0): 1.0}, q_sup_norms={(3, 0): 2.0})
    kwargs[field] = value
    need = "an integer" if field in ("s", "N") else "finite and"
    with pytest.raises(ValueError, match=f"^{field} must be {need}"):
        bd.BoundInputs(**kwargs)


@pytest.mark.parametrize("name", ["g_norms", "q_sup_norms"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
def test_bound_inputs_reject_bad_norms(name, value):
    # A norm of -1 once made hybrid_error_bound return -0.001953125.
    kwargs = dict(s=2, N=3, eps=1.0, sigma=1.0, T=1.0, dt=0.25,
                  g_norms={(3, 0): 1.0}, q_sup_norms={(3, 0): 0.0})
    kwargs[name] = {(3, 0): value}
    with pytest.raises(ValueError,
                       match=rf"^{name}\[\(3, 0\)\] must be finite and nonnegative"):
        bd.BoundInputs(**kwargs)


@pytest.mark.parametrize("fn,args,field", [
    (oracles.a_operator_bound, (1, -1.0, 1.0, 1.0), "eps"),
    (oracles.a_operator_bound, (1, 0.0, 1.0, 1.0), "eps"),
    (oracles.a_operator_bound, (3, 1.0, -2.0, 1.0), "sigma"),
    (oracles.a_operator_bound, (1, 1.0, math.nan, 1.0), "sigma"),
    (oracles.a_operator_bound, (1, 1.0, 1.0, math.inf), "span"),
    (oracles.a_operator_exact_decay, (1, -1.0, 1.0, 1.0), "eps"),
    (oracles.a_operator_exact_decay, (1, 0.0, 1.0, 1.0), "eps"),
    (oracles.a_operator_exact_decay, (1, 1.0, math.nan, 1.0), "sigma"),
])
def test_plain_number_evaluators_reject_bad_values(fn, args, field):
    # Each of these once returned a number or failed elsewhere:
    # a_operator_bound gave -1.0 for eps = -1 and -0.125 for sigma = -2,
    # nan for a nan input; eps = 0 divided by zero.
    with pytest.raises(ValueError, match=f"^{field} must be "):
        fn(*args)


def test_bound_inputs_are_frozen():
    # Assigning dt = -0.25 to a valid record once made this bound
    # -0.005859375, and assigning a nan norm made it nan; every check now
    # holds for the record's lifetime.
    g = {(3, 0): 1.0}
    bi = bd.BoundInputs(
        s=2, N=3, eps=1.0, sigma=1.0, T=1.0, dt=0.25,
        g_norms=g, q_sup_norms={(3, 0): 2.0},
    )
    with pytest.raises(FrozenInstanceError):
        bi.dt = -0.25
    with pytest.raises(ValueError, match="^dt must be finite and positive"):
        replace(bi, dt=-0.25)
    for norms in (bi.g_norms, bi.q_sup_norms):
        with pytest.raises(TypeError):
            norms[(3, 0)] = math.nan
    g[(3, 0)] = -1.0  # the record holds its own copy
    assert bi.g_norms == {(3, 0): 1.0}
    assert bd.hybrid_error_bound(bi).total > 0.0


def test_hybrid_error_bound_frozen():
    bi = bd.BoundInputs(
        s=2, N=3, eps=1.0, sigma=1.0, T=1.0, dt=0.25,
        g_norms={(3, 0): 1.0}, q_sup_norms={(3, 0): 2.0},
    )
    rep = bd.hybrid_error_bound(bi)
    # D = 2, S = (0.25^2 * 1) * min(1, 0.25) = 0.015625
    assert rep.total == pytest.approx(2.0 / 16.0 * 3.0 * 0.015625, rel=1e-14)
    assert rep.terms[0].branch == "interval"


def test_hybrid_error_bound_monotone_in_dt():
    bi = bd.BoundInputs(
        s=2, N=3, eps=1.0, sigma=0.5, T=1.0, dt=1.0,
        g_norms={(3, 0): 1.0}, q_sup_norms={(3, 0): 0.0},
    )
    vals = []
    for dt in (1.0, 0.5, 0.25, 0.125, 0.0625):
        vals.append(bd.hybrid_error_bound(replace(bi, dt=dt)).total)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_hybrid_error_bound_zero_at_sigma_zero():
    bi = bd.BoundInputs(
        s=2, N=3, eps=1.0, sigma=0.0, T=1.0, dt=0.5,
        g_norms={(3, 0): 1.0}, q_sup_norms={(3, 0): 2.0},
    )
    assert bd.hybrid_error_bound(bi).total == 0.0


def test_absorbing_bounds_damping():
    bi = bd.BoundInputs(
        s=1, N=3, eps=0.5, sigma=2.0, T=1.0, dt=0.25, sigma_a=0.5,
        g_norms={(0, 1): 2.0, (2, 0): 3.0, (1, 1): 4.0},
        q_sup_norms={(0, 1): 1.0, (2, 0): 5.0, (1, 1): 6.0},
    )
    rep = bd.absorbing_bounds(bi, "pn")
    assert rep.theorem == "pn-absorbing"
    # sigma_a = 0 must reproduce the pure bound exactly.
    bi0 = _inputs_s1()
    pure = bd.pn_error_bound(bi0)
    same = bd.absorbing_bounds(replace(bi0, sigma_a=0.0), "pn")
    assert same.total == pytest.approx(pure.total, rel=1e-15)
    # Damping shrinks g-driven terms, leaves q-only terms alone.
    by_name = {t.name: t.value for t in rep.terms}
    pure_by = {t.name: t.value for t in pure.terms}
    damp = math.exp(-0.5)
    assert by_name["initial-tail"] == pytest.approx(damp * pure_by["initial-tail"], rel=1e-14)
    assert by_name["source-tail"] == pytest.approx(pure_by["source-tail"], rel=1e-14)
    assert by_name["source-cross[i=0]"] == pytest.approx(
        pure_by["source-cross[i=0]"], rel=1e-14
    )


def test_absorbing_bounds_gate():
    # The gate is BoundInputs' own, so no evaluator sees sigma_a > sigma.
    with pytest.raises(ValueError,
                       match=r"^sigma_a must satisfy 0 <= sigma_a <= sigma_t, got 3.0$"):
        replace(_inputs_s1(), sigma_a=3.0)  # exceeds sigma_t = 2


def test_absorbing_hybrid_independent_of_sigma_a_when_g_zero():
    base = dict(s=2, N=3, eps=1.0, sigma=1.0, T=1.0, dt=0.25,
                g_norms={(3, 0): 0.0}, q_sup_norms={(3, 0): 2.0})
    r0 = bd.absorbing_bounds(bd.BoundInputs(sigma_a=0.0, **base), "hybrid")
    r1 = bd.absorbing_bounds(bd.BoundInputs(sigma_a=0.9, **base), "hybrid")
    assert r0.total == pytest.approx(r1.total, rel=1e-15)


def test_regime_advisor_crossover_and_labels():
    # Diffusive: small crossover far below any practical step.
    label, dt_star = bd.regime_advisor(eps=0.05, sigma=1.0, T=1.0, s=1)
    assert dt_star == pytest.approx(0.0025, rel=1e-12)
    assert label.startswith("diffusive")
    # Streaming: crossover above the largest candidate.
    label, dt_star = bd.regime_advisor(eps=1.0, sigma=0.1, T=1.0, s=1)
    assert dt_star == pytest.approx(10.0, rel=1e-12)
    assert label == "streaming"
    # Transition inside the bracket.
    label, dt_star = bd.regime_advisor(eps=0.5, sigma=1.0, T=1.0, s=2)
    assert dt_star == pytest.approx(math.sqrt(2.0) * 0.25, rel=1e-12)
    assert label == "transition"
    # No scattering.
    assert bd.regime_advisor(eps=1.0, sigma=0.0, T=1.0, s=1) == ("streaming-exact", math.inf)
    # The crossover is where the hybrid bound itself switches branch.
    for eps, sigma, s in ((0.05, 1.0, 1), (1.0, 0.1, 1), (0.5, 1.0, 2), (0.3, 2.0, 3)):
        _, dt_star = bd.regime_advisor(eps, sigma, 1.0, s)
        for factor, branch in ((1.0 - 1e-9, "interval"), (1.0 + 1e-9, "diffusive")):
            bi = bd.BoundInputs(s=s, N=s, eps=eps, sigma=sigma, T=1.0,
                                dt=dt_star * factor, g_norms={(s + 1, 0): 1.0},
                                q_sup_norms={(s + 1, 0): 0.0})
            assert bd.hybrid_error_bound(bi).terms[0].branch == branch, (eps, sigma, s)


@pytest.mark.parametrize("eps,sigma,T", [
    (0.5, -1.0, 1.0), (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
    (1.0, 1.0, math.inf), (0.0, 1.0, 1.0), (1.0, 1.0, -1.0),
])
def test_regime_advisor_rejects_bad_input(eps, sigma, T):
    with pytest.raises(ValueError, match="^need finite eps > 0, sigma >= 0"):
        bd.regime_advisor(eps, sigma, T, 2)


@pytest.mark.parametrize("s", [1.5, 2.0, True])
def test_regime_advisor_refuses_non_integer_s(s):
    # s = 1.5 once failed in math.factorial with a TypeError, and s = True
    # was taken as s = 1.
    with pytest.raises(ValueError, match="^s must be an integer"):
        bd.regime_advisor(0.5, 1.0, 1.0, s)


def test_audit_inequalities_clean():
    rep = bd.audit_inequalities(s_max=5, l_max=64, n_samples=200, seed=3)
    assert rep.ok, rep.violations[:3]
    assert rep.checks_run > 5 * 60


def _audit_loop_oracle(s_max=5, l_max=64, n_samples=1000, seed=0):
    """The per-sample loop audit_inequalities replaced, kept as its oracle."""
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
    L = 12
    nm = sh.n_moments(L)
    for i in range(n_samples):
        u = rng.standard_normal(nm)
        for s in (0, 1, 2, 3):
            c1, c2 = sh.equivalence_constants(s)
            full = oracles.angular_norm(u, s)
            alldeg = oracles.angular_norm_all_degrees(u, s)
            checks += 1
            if c1 * full > alldeg * (1.0 + 1e-12) or alldeg > c2 * full * (1.0 + 1e-12):
                violations.append(
                    ("norm-equivalence", {"sample": i, "s": s,
                                          "c1*full": c1 * full, "alldeg": alldeg,
                                          "c2*full": c2 * full})
                )
        s = int(rng.integers(1, 4))
        N = int(rng.integers(max(0, s - 1), L))
        tail = oracles.tail_moments(u, N)
        lhs = float(np.linalg.norm(tail))
        rhs = (N + 1.0) ** (-s) * oracles.angular_seminorm(tail, s)
        checks += 1
        if lhs > rhs + 1e-13:
            violations.append(
                ("approximation-property", {"sample": i, "s": s, "N": N,
                                            "lhs": lhs, "rhs": rhs})
            )
    return bd.AuditReport(checks_run=checks, violations=violations)


def _assert_same_audit(got, want):
    assert got.checks_run == want.checks_run
    assert len(got.violations) == len(want.violations)
    for (kind_g, g), (kind_w, w) in zip(got.violations, want.violations):
        assert kind_g == kind_w and g.keys() == w.keys()
        for key, value in w.items():
            if isinstance(value, int):
                assert g[key] == value and type(g[key]) is int, (kind_w, key)
            else:
                # Summation order differs from the loop's: rounding only.
                assert g[key] == pytest.approx(value, rel=1e-13, abs=0.0), (kind_w, key)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audit_inequalities_matches_loop_oracle(seed):
    got = bd.audit_inequalities(seed=seed)
    assert got.checks_run == 5310
    _assert_same_audit(got, _audit_loop_oracle(seed=seed))


def test_audit_inequalities_matches_loop_oracle_on_violations(monkeypatch):
    # c2 near the median of alldeg/full over these samples, so about half of
    # them violate the upper bound at each s >= 1.
    tight = {1: 0.9941, 2: 0.9999, 3: 1.0000016}
    real = sh.equivalence_constants
    monkeypatch.setattr(sh, "equivalence_constants",
                        lambda s: (real(s)[0], tight[s]) if s else real(s))
    got = bd.audit_inequalities(n_samples=300, seed=5)
    want = _audit_loop_oracle(n_samples=300, seed=5)
    assert {kind for kind, _ in want.violations} == {"norm-equivalence"}
    assert {v["s"] for _, v in want.violations} == {1, 2, 3}
    assert 300 < len(want.violations) < 3 * 300
    _assert_same_audit(got, want)


def test_bound_report_serialization():
    bi = _inputs_s1()
    rep = bd.pn_error_bound(bi)
    txt = rep.to_text()
    assert txt.startswith("pn: total = ")
    assert "mixed-regularity" in txt


def test_data_norms_for_cosine_problem():
    spec = tr.problem(
        "iso", eps=1.0, sigma_t=1.0,
        g=[gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})],
        q=[gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, time_poly=(1.0, 1.0))],
        T=1, dt="0.5",
    )
    pairs = [(0, 1), (2, 0), (1, 1)]
    g_n, q_sup = bd.data_norms(spec, pairs)
    # g = cos(x1) isotropic: every pure-spatial seminorm is 2 pi, every
    # angular-weighted one vanishes.
    assert g_n[(0, 1)] == 0.0
    assert g_n[(2, 0)] == pytest.approx(2.0 * math.pi, rel=1e-13)
    assert g_n[(1, 1)] == 0.0
    # q(t) = (1 + t) cos(x1): sup at t = T.
    assert q_sup[(2, 0)] == pytest.approx(4.0 * math.pi, rel=1e-13)


def test_data_norms_samples_the_source_once_for_all_pairs(monkeypatch):
    spec = tr.problem(
        "iso", eps=1.0, sigma_t=1.0,
        g=[gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})],
        q=[gr.term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, (0.3, 0.0, 0.2, 0.0),
                   time_poly=(1.0, 0.5), time_exp=-1.0)],
        T=1, dt="0.5",
    )
    pairs = bd.required_pairs(2, "pn")
    grid = tr.default_grid(spec)
    want = _sampled_q_sup(spec, pairs, grid)
    built = []
    real = gr.moment_field

    def moment_field(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gr, "moment_field", moment_field)
    _, q_sup = bd.data_norms(spec, pairs, grid)
    assert q_sup.keys() == want.keys()
    for key, value in want.items():
        assert q_sup[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
    # One g field and one time-free q field per term, however many pairs
    # and sample times.
    assert len(pairs) == 4 and len(built) == 1 + len(spec.q)


def _sampled_q_sup(spec, pairs, grid):
    """The sup of q's seminorms over data_norms' 33 sample times, from a
    fresh sampled q field per (pair, time)."""
    T = spec.t_final
    t_sup = np.concatenate(
        [[0.0, T], 0.5 * T * (1.0 + np.cos(np.pi * np.arange(1, 32) / 32.0))]
    )
    L = max(gr.angular_band(spec.q), 1)
    return {(r, s): max(gr.hrs_seminorm(gr.moment_field(grid, L, spec.q, t), r, s)
                        for t in t_sup) for r, s in pairs}


@pytest.mark.parametrize("support", ["shared", "disjoint"])
def test_data_norms_of_two_time_factors_match_sampled_fields(support):
    # q(t) = f_1(t) Q_1 + f_2(t) Q_2 with f_1 = (1 - t) e^(0.4 t) and
    # f_2 = (0.2 + t^2) e^(-0.7 t): the sup of their sum's seminorm is
    # reached at no single term's own maximum.
    second = {(1, 2, 0): 0.3 - 0.1j, (-1, -2, 0): 0.3 + 0.1j}
    if support == "shared":
        second.update({(1, 0, 0): -0.4, (-1, 0, 0): -0.4})
    q = [gr.term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5, (0, 1, 0): 0.25j,
                  (0, -1, 0): -0.25j}, (1.0, 0.3, -0.2, 0.4),
                 time_poly=(1.0, -1.0), time_exp=0.4),
         gr.term(second, (0.5, 0.0, 0.0, 0.6, 0.1, 0.0, -0.3, 0.2, 0.0),
                 time_poly=(0.2, 0.0, 1.0), time_exp=-0.7)]
    spec = tr.problem("two", eps=0.5, sigma_t=1.0,
                      g=[gr.isotropic_term({(0, 0, 0): 1.0})], q=q, T=2)
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 1), (3, 0)]
    grid = tr.default_grid(spec)
    _, q_sup = bd.data_norms(spec, pairs, grid)
    want = _sampled_q_sup(spec, pairs, grid)
    assert all(v > 0.0 for v in want.values())
    for key, value in want.items():
        assert q_sup[key] == pytest.approx(value, rel=1e-13, abs=0.0), key


def test_data_norms_keep_a_fast_growing_source_finite():
    # q(t) = e^(400 t) Q on [0, 1]: its H^(3,0) norm, about 3.3e173, is
    # finite although its square is not (sampled fields gave inf, which
    # bound_inputs refused), and the sup is max|f| times Q's time-free
    # seminorm.
    q = [gr.term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, (0.3, 0.0, 0.2, 0.0),
                 time_exp=400.0)]
    spec = tr.problem("grow", eps=1.0, sigma_t=1.0, g=[], q=q, T=1)
    grid = tr.default_grid(spec)
    pairs = bd.required_pairs(2, "pn")
    _, q_sup = bd.data_norms(spec, pairs, grid)
    free = gr.moment_field(grid, 1, [replace(q[0], time_exp=0.0)])
    for r, s in pairs:
        want = math.exp(400.0) * gr.hrs_seminorm(free, r, s)
        assert math.isfinite(q_sup[(r, s)])
        assert q_sup[(r, s)] == pytest.approx(want, rel=1e-13, abs=0.0), (r, s)
    assert q_sup[(3, 0)] == pytest.approx(3.3e173, rel=0.02)
    bi = bd.bound_inputs(spec, 2, 3)
    assert math.isfinite(bd.pn_error_bound(bi).total)


def test_bound_inputs_assembly():
    spec = tr.problem(
        "iso", eps=0.5, sigma_t=1.0,
        g=[gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})],
        T=1, dt="0.25",
    )
    bi = bd.bound_inputs(spec, s=2, N=5)
    rep = bd.pn_error_bound(bi)
    assert rep.theorem == "pn-isotropic"
    assert rep.total > 0.0
    bih = bd.bound_inputs(spec, s=2, N=5, family="hybrid")
    assert bd.hybrid_error_bound(bih).total > 0.0

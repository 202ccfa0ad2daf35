"""Acceptance gate: thirteen numbered end-to-end criteria, each with pinned
tolerances and a runtime budget, printing one pass/fail line apiece.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; under
plain pytest the lines surface for failing criteria only.  The sweep-based
criteria (8, 9, 10) run once through session fixtures and criterion 11
re-checks those same rows for bound conformance.
"""

import math
import os
import time

import numpy as np
import pytest

from pnhybrid import bounds as bd
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import harness as hn
from pnhybrid import transport as tr

import oracles
from test_bounds import _a_power_num

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _line(num, label, ok, elapsed, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {tag} in {elapsed:.2f}s{extra}")


def _sweep(config_name):
    rs = hn.parse_config(os.path.join(CONFIG_DIR, config_name))
    t0 = time.perf_counter()
    rows = hn.run_sweep(rs)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sobolev_rows():
    return _sweep("sobolev-n-sweep.cfg")


@pytest.fixture(scope="session")
def diffusion_rows():
    return _sweep("diffusion-eps-sweep.cfg")


@pytest.fixture(scope="session")
def hybrid_diffusive_rows():
    return _sweep("hybrid-dt-diffusive.cfg")


@pytest.fixture(scope="session")
def hybrid_streaming_rows():
    return _sweep("hybrid-dt-streaming.cfg")


def test_criterion_01_coupling_tables():
    t0 = time.perf_counter()
    worst = 0.0
    norm_max = 0.0
    for n in range(1, 10):
        cs = sh.assemble_coupling(n)
        oracle = sh.coupling_oracle(n, sh.build_sphere_quadrature(n + 1))
        for axis in (1, 2, 3):
            diff = cs.full_matrix(axis) - oracle.full_matrix(axis)
            worst = max(worst, float(np.max(np.abs(diff))))
        norm_max = max(norm_max, cs.max_spectral_norm())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and norm_max <= 4.0
    _line(1, "coupling-tables", ok, elapsed,
          f"worst diff {worst:.3e}, max norm {norm_max:.4f}")
    assert ok, f"worst diff {worst:.3e}, max spectral norm {norm_max:.4f}"
    assert elapsed < 10.0


def test_criterion_02_approximation_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    L = 15
    nm = sh.n_moments(L)
    degs = np.arange(L + 1, dtype=float)
    violations = 0
    checks = 0
    for trial in range(1000):
        u = rng.standard_normal(nm)
        d = np.array([float(np.sum(u[sh.degree_slice(l)] ** 2))
                      for l in range(L + 1)])
        for s in (1, 2, 3):
            w = (degs + 0.5) ** (2 * s) * d
            # tail over degrees > N for every N in {s-1, ..., 15} at once
            tail2 = np.concatenate((np.cumsum(d[::-1])[::-1], [0.0]))
            wtail2 = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
            Ns = np.arange(s - 1, L + 1)
            lhs = np.sqrt(tail2[Ns + 1])
            rhs = (Ns + 1.0) ** (-s) * np.sqrt(wtail2[Ns + 1])
            violations += int(np.sum(lhs > rhs + 1e-13))
            checks += len(Ns)
        if trial % 211 == 0:
            # spot-check the vectorized sums against the reference routines
            N = int(rng.integers(2, 12))
            tail = oracles.tail_moments(u, N)
            assert float(np.linalg.norm(tail)) == pytest.approx(
                math.sqrt(tail2[N + 1]), rel=1e-12)
            assert oracles.angular_seminorm(tail, 3) == pytest.approx(
                math.sqrt(wtail2[N + 1]), rel=1e-12)
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _line(2, "approximation-property", ok, elapsed,
          f"{checks} checks, {violations} violations")
    assert ok, f"{violations} of {checks} tail inequalities violated"
    assert elapsed < 5.0


def test_criterion_03_norm_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    L = 12
    nm = sh.n_moments(L)
    violations = 0
    checks = 0
    for trial in range(1000):
        u = rng.standard_normal(nm)
        for s in (0, 1, 2, 3):
            c1, c2 = sh.equivalence_constants(s)
            full = oracles.angular_norm(u, s)
            alldeg = oracles.angular_norm_all_degrees(u, s)
            if c1 * full > alldeg * (1.0 + 1e-12):
                violations += 1
            if alldeg > c2 * full * (1.0 + 1e-12):
                violations += 1
            checks += 2
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _line(3, "norm-sandwich", ok, elapsed,
          f"{checks} checks, {violations} violations")
    assert ok, f"{violations} sandwich violations"
    assert elapsed < 5.0


def test_criterion_04_damping_integral_formulas():
    t0 = time.perf_counter()
    eps_grid = (0.3, 0.5, 0.8, 1.2, 2.0)
    sigma_grid = (0.0, 0.4, 0.9, 1.7, 3.0)
    span_grid = (0.1, 0.3, 0.5, 0.8, 1.2)
    worst_rel = 0.0
    bound_ok = True
    for eps in eps_grid:
        for sigma in sigma_grid:
            for span in span_grid:
                decay = lambda tau, s=sigma, e=eps: np.exp(-s * tau / e**2)
                for k in (1, 2, 3):
                    num = float(_a_power_num(k, span, 0.0, eps, sigma,
                                             base=decay))
                    exact = oracles.a_operator_exact_decay(k, eps, sigma, span)
                    worst_rel = max(worst_rel, abs(num - exact) / exact)
                    ones = float(_a_power_num(k, span, 0.0, eps, sigma))
                    cap = oracles.a_operator_bound(k, eps, sigma, span)
                    if ones > cap * (1.0 + 1e-12):
                        bound_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-9 and bound_ok
    _line(4, "damping-integral-formulas", ok, elapsed,
          f"worst rel {worst_rel:.3e}, bound respected: {bound_ok}")
    assert ok, f"worst relative error {worst_rel:.3e}, bound ok {bound_ok}"
    assert elapsed < 30.0


def test_criterion_05_kernel_identities():
    # The kernels share one definition,
    #   beta_n(tau) = tau^-n int_0^tau (tau - p)^(n-1) p exp(-p) dp,
    # and every target below follows from it: differentiating tau^n beta_n
    # gives the companion identity
    #   u^n beta_n(sigma u) = (n-1) int_0^u s^(n-1) beta_(n-1)(sigma s) ds,
    # the slope at zero is 1/(n(n+1)), and the tail is 1/tau.
    t0 = time.perf_counter()
    problems = []

    # companion integral identities, checked by Gauss-Legendre quadrature
    x, w = np.polynomial.legendre.leggauss(200)
    for sigma, u in ((0.7, 0.9), (2.0, 1.3)):
        nodes = 0.5 * u * (x + 1.0)
        wts = 0.5 * u * w
        lhs1 = float(np.sum(wts * nodes * [bd.beta1(sigma * s) for s in nodes]))
        rhs1 = u**2 * bd.beta2(sigma * u)
        if abs(lhs1 - rhs1) > 1e-8:
            problems.append(
                f"first identity off at sigma={sigma}: {lhs1:.12g} vs {rhs1:.12g}")
        # n = 3 carries the factor n - 1 = 2 of the companion identity
        lhs2 = float(np.sum(wts * nodes**2 * [bd.beta2(sigma * s) for s in nodes]))
        rhs2 = u**3 * bd.beta3(sigma * u) / 2.0
        if abs(lhs2 - rhs2) > 1e-8:
            problems.append(
                f"second identity off at sigma={sigma}: integral {lhs2:.12g} vs "
                f"{rhs2:.12g} (ratio {lhs2 / rhs2:.9f})")

    # the defining integral itself, on the default branch, on both sides of
    # the series/closed-form switch
    for tau in (0.3, 0.7, 0.95, 1.05, 3.0, 10.0):
        p = 0.5 * tau * (x + 1.0)
        pw = 0.5 * tau * w
        for n in (1, 2, 3):
            want = float(np.sum(pw * (tau - p) ** (n - 1) * p * np.exp(-p))) / tau**n
            got = bd.beta(n, tau)
            if abs(got - want) > 1e-8 * want:
                problems.append(
                    f"beta{n}({tau}) = {got:.15g}, definition gives {want:.15g}")

    # small-argument slopes beta_n(tau)/tau -> 1/(n(n+1))
    tau = 1e-4
    for n in (1, 2, 3):
        slope = bd.beta(n, tau) / tau
        want = 1.0 / (n * (n + 1))
        if abs(slope - want) > 1e-3 * want:
            problems.append(
                f"beta{n} small-tau slope {slope:.9g}, expected "
                f"1/{n * (n + 1)} = {want:.9g}")

    # large-argument asymptote beta_n(tau) ~ 1/tau
    for n in (1, 2, 3):
        val = bd.beta(n, 100.0) * 100.0
        if not 0.9 <= val <= 1.1:
            problems.append(f"beta{n}(100)*100 = {val:.6f} outside [0.9, 1.1]")

    elapsed = time.perf_counter() - t0
    ok = not problems
    _line(5, "kernel-identities", ok, elapsed, "; ".join(problems))
    assert ok, "; ".join(problems)
    assert elapsed < 5.0


def test_criterion_06_energy_decay_and_mass():
    t0 = time.perf_counter()
    steps = [k / 16.0 for k in range(1, 17)]
    problems = []
    for name in ("iso-smooth", "aniso-decay"):
        mf = hn.manufactured(name)
        spec = mf.spec
        grid = tr.default_grid(spec)
        sourced = tr.SourcedModes(
            tr.PnOperator(grid, 5, spec.eps, spec.sigma_t, spec.sigma_a), spec.q)
        times = [0.0] + steps
        fields = [tr.initial_field(spec, grid, 5)]
        for a, b in zip(times, steps):
            fields.append(gr.MomentField(grid, 5, sourced.step(fields[-1].coeffs, b - a, a)))
        norms = [gr.l2_norm(f) for f in fields]
        for a, b in zip(norms, norms[1:]):
            if b > a + 1e-10:
                problems.append(f"{name}: norm increased {a:.15g} -> {b:.15g}")
        idx0 = grid.index_of((0, 0, 0))
        y00 = 1.0 / math.sqrt(4.0 * math.pi)
        mean0 = fields[0].coeffs[idx0 + (0,)] * y00
        for t, f in zip(times, fields):
            drift = abs(f.coeffs[idx0 + (0,)] * y00 - mean0)
            if drift > 1e-12:
                problems.append(f"{name}: mean flux drifted {drift:.3e} at t={t}")
        if name == "aniso-decay":
            rate = spec.sigma_t / spec.eps**2
            for t, f in zip(times, fields):
                got = f.coeffs[idx0 + (2,)].real
                want = math.exp(-rate * t)
                if abs(got - want) > 1e-10 * want:
                    problems.append(
                        f"decay off at t={t}: {got:.15g} vs {want:.15g}")
    elapsed = time.perf_counter() - t0
    ok = not problems
    _line(6, "energy-decay-and-mass", ok, elapsed, "; ".join(problems[:3]))
    assert ok, "; ".join(problems[:5])
    assert elapsed < 30.0


def test_criterion_07_streaming_hybrid_exactness():
    t0 = time.perf_counter()
    mf = hn.manufactured("streaming")
    errs = [hn.run_single(mf, "hybrid", 3, dt=dt).error for dt in ("1", "0.25")]
    elapsed = time.perf_counter() - t0
    ok = all(e < 1e-8 for e in errs)
    _line(7, "streaming-hybrid-exactness", ok, elapsed,
          "errors " + ", ".join(f"{e:.3e}" for e in errs))
    assert ok, f"errors {errs}"
    assert elapsed < 60.0


def test_criterion_08_spectral_rate(sobolev_rows):
    rows, elapsed = sobolev_rows
    errs = [r.error for r in rows]
    rep = hn.fit_and_check(rows)
    slope = rep.slopes[("sobolev-s", "pn", "N")]
    ok = slope <= -1.5
    _line(8, "spectral-rate", ok, elapsed, f"slope {slope:+.3f} vs (N+1)")
    assert ok, f"fitted slope {slope:+.4f} exceeds -1.5; errors {errs}"
    assert elapsed < 600.0


def test_criterion_09_diffusion_limit(diffusion_rows):
    rows, elapsed = diffusion_rows
    rows = sorted(rows, key=lambda r: -r.eps)
    errs = [r.error for r in rows]
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    _line(9, "diffusion-limit", ok, elapsed,
          "errors " + ", ".join(f"{e:.3e}" for e in errs))
    assert ok, f"flux error not strictly decreasing in eps: {errs}"
    assert elapsed < 600.0


def test_criterion_10_hybrid_dt_both_regimes(hybrid_diffusive_rows,
                                             hybrid_streaming_rows):
    rows_d, wall_d = hybrid_diffusive_rows
    rows_s, wall_s = hybrid_streaming_rows
    errs_d = [r.error for r in rows_d]
    ratio = max(errs_d) / min(errs_d)
    rows_s = sorted(rows_s, key=lambda r: r.dt)
    errs_s = [r.error for r in rows_s]
    nonincreasing = all(a <= b * (1.0 + 1e-12)
                        for a, b in zip(errs_s, errs_s[1:]))
    slope = hn.fit_and_check(rows_s).slopes[("iso-smooth", "hybrid", "dt")]
    elapsed = wall_d + wall_s
    ok = ratio < 2.0 and nonincreasing and slope >= 1.0
    _line(10, "hybrid-dt-both-regimes", ok, elapsed,
          f"diffusive ratio {ratio:.6f}, streaming slope {slope:+.3f}")
    assert ratio < 2.0, f"diffusive errors vary by {ratio:.4f} over dt: {errs_d}"
    assert nonincreasing, f"streaming errors not monotone in dt: {errs_s}"
    assert slope >= 1.0, f"streaming dt slope {slope:+.4f} below 1"
    assert elapsed < 900.0


def test_criterion_11_bound_conformance(sobolev_rows, diffusion_rows,
                                        hybrid_diffusive_rows,
                                        hybrid_streaming_rows):
    t0 = time.perf_counter()
    rows = (sobolev_rows[0] + diffusion_rows[0] + hybrid_diffusive_rows[0]
            + hybrid_streaming_rows[0])
    rep = hn.fit_and_check(rows)
    elapsed = time.perf_counter() - t0
    families = sorted(rep.fits)
    ok = rep.ok and not rep.flagged and len(families) >= 2
    detail = ", ".join(f"C[{p}/{s}]={rep.fits[(p, s)]:.3e}"
                       for p, s in families)
    _line(11, "bound-conformance", ok, elapsed, detail)
    assert rep.ok, f"violations: {rep.violations}"
    assert not rep.flagged, f"flagged oracle rows used: {rep.flagged}"
    assert len(families) >= 2, f"expected fits for both solvers, got {families}"


def test_criterion_12_absorption_transform():
    t0 = time.perf_counter()
    mf = hn.manufactured("iso-smooth", sigma_t=1.0, sigma_a=0.5)
    spec = mf.spec
    grid = tr.default_grid(spec)
    direct = tr.solve_pn(spec, 5, grid=grid).final
    pure, scale = oracles.absorption_wrap(spec)
    trans = tr.solve_pn(pure, 5, grid=grid).final
    scaled = gr.MomentField(grid, 5, trans.coeffs * scale(spec.t_final))
    dist = hn.distance(direct, scaled)
    elapsed = time.perf_counter() - t0
    ok = dist < 1e-10
    _line(12, "absorption-transform", ok, elapsed, f"distance {dist:.3e}")
    assert ok, f"direct vs damped transformed solve differ by {dist:.3e}"
    assert elapsed < 60.0


def test_criterion_13_degree_weight_audit():
    t0 = time.perf_counter()
    rep = bd.audit_inequalities(s_max=5, l_max=64)
    elapsed = time.perf_counter() - t0
    ok = rep.ok
    _line(13, "degree-weight-audit", ok, elapsed,
          f"{rep.checks_run} checks, {len(rep.violations)} violations")
    assert ok, f"violations: {rep.violations[:5]}"
    assert elapsed < 1.0

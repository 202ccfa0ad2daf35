import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pnhybrid import blas
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import harness as hn
from pnhybrid import hybrid as hy
from pnhybrid import transport as tr

import oracles


def _iso_cosine(mean=1.0):
    return gr.isotropic_term({(0, 0, 0): mean, (1, 0, 0): 0.5, (-1, 0, 0): 0.5})


def _aniso_cosine():
    return gr.term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, (0.0, 0.0, 1.0, 0.0))


def _flow(u, op, q_terms=()):
    """hybrid_step's uncollided flow for state u under op and q_terms."""
    return tr.uncollided_flow(u.grid, u.quad, op.eps, op.sigma, op.sigma_a, q_terms)


def test_remap_zero_collided_is_identity():
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(6)
    u = gr.nodal_field(grid, quad, spec.g)
    c = gr.zero_moment_field(grid, 3)
    merged, zeroed, resid = hy.remap(u, c)
    assert np.array_equal(merged.values, u.values)
    assert np.all(zeroed.coeffs == 0.0)
    assert resid < 1e-15


def test_remap_unit_mean_moment():
    grid = gr.SpatialGrid(1, 1)
    quad = sh.build_sphere_quadrature(6)
    u = gr.NodalField(grid, quad, np.zeros((1, 1, 1, len(quad)), dtype=complex))
    c = gr.zero_moment_field(grid, 3)
    coeffs = c.coeffs.copy()
    coeffs[0, 0, 0, 0] = 1.0
    c = gr.MomentField(grid, 3, coeffs)
    merged, _, resid = hy.remap(u, c)
    # The mean basis function is the constant 1/sqrt(4 pi).
    want = 1.0 / math.sqrt(4.0 * math.pi)
    assert np.max(np.abs(merged.values - want)) < 1e-15
    assert resid < 1e-14


def test_remap_mass_linearity():
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(8)
    u = gr.nodal_field(grid, quad, spec.g)
    rng = np.random.default_rng(11)
    coeffs = oracles.hermitian(rng.standard_normal((3, 1, 1, 16)) + 0j)
    c = gr.MomentField(grid, 3, coeffs)
    merged, _, resid = hy.remap(u, c)
    mass_merged = gr.scalar_flux(gr.project_field(merged, 3))
    mass_u = gr.scalar_flux(gr.project_field(u, 3))
    mass_c = gr.scalar_flux(c)
    assert np.max(np.abs(mass_merged - mass_u - mass_c)) < 1e-12
    assert resid < 1e-12


def test_remap_requires_exact_quadrature():
    grid = gr.SpatialGrid(1, 1)
    quad = sh.build_sphere_quadrature(3)  # exactness 5
    u = gr.NodalField(grid, quad, np.zeros((1, 1, 1, len(quad)), dtype=complex))
    c = gr.zero_moment_field(grid, 3)     # needs exactness >= 6
    with pytest.raises(ValueError, match="exactness"):
        hy.remap(u, c)


def test_hybrid_step_requires_exact_quadrature():
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(3)
    u = gr.nodal_field(grid, quad, spec.g)
    op = tr.PnOperator(grid, 3, 1.0, 1.0)
    with pytest.raises(ValueError, match="exactness"):
        hy.hybrid_step(u, 0.0, 0.5, op, _flow(u, op))
    with pytest.raises(ValueError, match="exactness"):
        hy.run_hybrid(spec, N=3, quad=quad)


def test_streaming_hybrid_is_exact_and_collided_stays_zero():
    spec = tr.problem("free", eps=0.7, sigma_t=0.0, g=[_iso_cosine()], T=1, dt="1/4")
    quad = sh.build_sphere_quadrature(8)
    res = hy.run_hybrid(spec, N=3, quad=quad)
    exact = tr.characteristics_solution(spec, quad, 1.0)
    assert np.max(np.abs(res.total.values - exact.values)) < 1e-13
    for rec in res.records:
        assert rec.norm_c == 0.0
        assert rec.remap_residual < 1e-13


def test_streaming_error_independent_of_dt():
    spec = tr.problem("free", eps=1.0, sigma_t=0.0, g=[_iso_cosine()], T=1)
    quad = sh.build_sphere_quadrature(8)
    exact = tr.characteristics_solution(spec, quad, 1.0)
    for dt in ("1", "1/4"):
        res = hy.run_hybrid(spec, N=3, dt=dt, quad=quad)
        assert np.max(np.abs(res.total.values - exact.values)) < 1e-13


def test_single_interval_matches_direct_step():
    spec = tr.problem("one", eps=0.5, sigma_t=1.0, g=[_iso_cosine()], T="0.5", dt="0.5")
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(8)
    res = hy.run_hybrid(spec, N=3, quad=quad)
    op = tr.PnOperator(grid, 3, spec.eps, spec.sigma_t)
    u0 = gr.nodal_field(grid, quad, spec.g)
    u1, c1 = hy.hybrid_step(u0, 0.0, 0.5, op, _flow(u0, op))
    want = u1 + gr.evaluate_field(c1, quad)
    assert np.max(np.abs(res.total.values - want.values)) < 1e-12
    assert len(res.records) == 1
    assert res.records[0].t_end == 0.5


def test_interinterval_decay_invariant():
    # With no external source the uncollided carrier decays uniformly at
    # sigma/eps^2, so each pre-remap norm equals the previous post-remap
    # norm times exp(-sigma dt / eps^2), exactly.
    spec = tr.problem("iso", eps=0.6, sigma_t=1.1, g=[_iso_cosine()], T=1, dt="1/4")
    res = hy.run_hybrid(spec, N=3)
    factor = math.exp(-1.1 * 0.25 / 0.36)
    for prev, nxt in zip(res.records, res.records[1:]):
        assert nxt.norm_u == pytest.approx(prev.norm_merged * factor, rel=1e-12)


def test_hybrid_beats_monolithic_in_degree():
    g = [_iso_cosine(), _aniso_cosine()]
    spec = tr.problem("mix", eps=0.3, sigma_t=1.0, g=g, T="0.5", dt="1/8")
    grid = tr.default_grid(spec)
    n_ref = 11
    quad = sh.build_sphere_quadrature(n_ref + 2)
    ref = tr.solve_pn(spec, n_ref).final
    prev_h = prev_m = None
    for N in (1, 3, 5):
        res = hy.run_hybrid(spec, N, quad=quad)
        err_h = hn.distance(res.total, ref)
        mono = tr.solve_pn(spec, N).final
        err_m = hn.distance(gr.evaluate_field(mono, quad), ref)
        assert err_h < err_m
        if prev_h is not None:
            assert err_h < prev_h
            assert err_m < prev_m
        prev_h, prev_m = err_h, err_m


def test_hybrid_total_near_degree_9_reference():
    spec = tr.problem("iso", eps=0.5, sigma_t=1.0, g=[_iso_cosine()], T="0.5", dt="1/4")
    ref = tr.solve_pn(spec, 9).final
    quad = sh.build_sphere_quadrature(12)
    res = hy.run_hybrid(spec, N=5, quad=quad)
    assert hn.distance(res.total, ref) < 1e-3


def test_quadrature_refinement_stability():
    # Doubling the quadrature beyond exactness changes the answer only at
    # roundoff scale: the splitting never relies on unresolved content.
    spec = tr.problem("iso", eps=0.5, sigma_t=1.0, g=[_iso_cosine()], T="0.5", dt="1/4")
    r1 = hy.run_hybrid(spec, N=3, quad=sh.build_sphere_quadrature(8))
    r2 = hy.run_hybrid(spec, N=3, quad=sh.build_sphere_quadrature(16))
    p1 = gr.project_field(r1.total, 3)
    p2 = gr.project_field(r2.total, 3)
    assert np.max(np.abs(p1.coeffs - p2.coeffs)) < 1e-9


def test_dt_gate_message():
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    with pytest.raises(ValueError, match="M\\*dt != T"):
        hy.run_hybrid(spec, N=3, dt="0.3")


@pytest.mark.parametrize("N, message", [(2.5, "N must be an integer, got 2.5"),
                                        (-1, "N must be nonnegative, got -1")])
def test_run_hybrid_refuses_bad_degree_before_quadrature(monkeypatch, N, message):
    def quadrature(order):
        raise AssertionError(f"quadrature of order {order} built")

    monkeypatch.setattr(sh, "build_sphere_quadrature", quadrature)
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        hy.run_hybrid(spec, N)


@pytest.mark.parametrize("dt", [-0.25, 0, "0"], ids=["negative", "zero", "zero-text"])
def test_nonpositive_dt_rejected(dt):
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    with pytest.raises(ValueError, match="dt must be positive"):
        hy.run_hybrid(spec, N=3, dt=dt)


@pytest.mark.parametrize("dt", ["1e-9", 5e-324], ids=["1e-9", "subnormal"])
def test_too_many_intervals_rejected(monkeypatch, dt):
    def edges(self):
        raise AssertionError("interval edges built")

    monkeypatch.setattr(tr.ProblemSpec, "interval_edges", edges)
    with pytest.raises(ValueError, match="dt must leave at most 1000000 intervals"):
        tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1, dt=dt)
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    with pytest.raises(ValueError, match="dt must leave at most 1000000 intervals"):
        hy.run_hybrid(spec, N=3, dt=dt)
    most = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1,
                      dt=Fraction(1, tr.MAX_INTERVALS))
    assert most.M == tr.MAX_INTERVALS


def test_absorbing_hybrid_matches_transformed():
    spec = tr.problem("abs", eps=0.6, sigma_t=1.0, sigma_a=0.4,
                      g=[_iso_cosine(), _aniso_cosine()], T="0.5", dt="1/4")
    quad = sh.build_sphere_quadrature(8)
    direct = hy.run_hybrid(spec, N=3, quad=quad)
    pure, scale = tr.absorption_wrap(spec)
    transformed = hy.run_hybrid(pure, N=3, quad=quad)
    want = transformed.total.values * scale(spec.t_final)
    assert np.max(np.abs(direct.total.values - want)) < 1e-10


def _sourced_spec():
    g = [gr.term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, (math.sqrt(4.0 * math.pi), 0.0, 0.3, 0.0))]
    q = [gr.term({(0, 0, 0): 1.0, (1, 0, 0): 0.5, (-1, 0, 0): 0.5},
                 (math.sqrt(4.0 * math.pi), 0.0, 0.4, 0.0),
                 time_poly=(1.0, 0.5), time_exp=-1.0)]
    return tr.problem("sourced", eps=1.0, sigma_t=1.0, g=g, q=q, T=1, dt="1/4")


def test_sourced_hybrid_approaches_high_degree_pn():
    spec = _sourced_spec()
    quad = sh.build_sphere_quadrature(14)
    ref = tr.solve_pn(spec, 12).final
    unforced = tr.solve_pn(tr.problem("bare", 1.0, 1.0, spec.g, T=1), 12).final
    errs = [hn.distance(hy.run_hybrid(spec, N, quad=quad).total, ref)
            for N in (1, 3, 5)]
    assert errs[0] > 100.0 * errs[1] > 1e4 * errs[2]
    # Far below the source's own contribution to the solution.
    assert errs[2] < 1e-6 * gr.l2_norm(ref - unforced)


def test_hybrid_step_samples_source_in_closed_form(monkeypatch):
    spec = _sourced_spec()
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(6)
    op = tr.PnOperator(grid, 3, spec.eps, spec.sigma_t)
    psi_u = gr.nodal_field(grid, quad, spec.g)
    flow = _flow(psi_u, op, spec.q)
    calls = {"advance": 0, "nodal_field": 0}
    for owner, name in ((tr.UncollidedFlow, "advance"), (gr, "nodal_field")):
        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    hy.hybrid_step(psi_u, 0.0, 0.25, op, flow)
    # One closed-form sample of the uncollided field per Duhamel node of
    # every substep, one closed-form advance of the carrier, and no nodal
    # field built inside the step: the source profiles come with the flow.
    nsub = op.substeps_for(0.25, extra_rate=op.max_rate)
    assert calls == {"advance": 12 * nsub + 1, "nodal_field": 0}


def test_run_hybrid_builds_rates_and_source_profiles_once(monkeypatch):
    spec = replace(_sourced_spec(), dt=Fraction(1, 8))
    calls = {"uncollided_flow": 0, "nodal_field": 0}
    for owner, name in ((tr, "uncollided_flow"), (gr, "nodal_field")):
        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    res = hy.run_hybrid(spec, 3, quad=sh.build_sphere_quadrature(8))
    assert len(res.records) == 8
    # One flow per run, whatever the interval count; it builds the one
    # source term's nodal profile, and the run the initial state.
    assert calls == {"uncollided_flow": 1, "nodal_field": 1 + len(spec.q)}


def test_run_hybrid_equals_hand_written_loop():
    # Four intervals of hybrid_step + remap, with a source and absorption,
    # reported the way the method defines them: norms and the sum of the
    # pair at t_end^-, then the remap.
    spec = replace(_sourced_spec(), sigma_a=0.3)
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(8)
    edges = spec.interval_edges()
    res = hy.run_hybrid(spec, 3, grid=grid, quad=quad)

    want = []
    with blas.single_thread():
        op = tr.PnOperator(grid, 3, spec.eps, spec.sigma_t, spec.sigma_a)
        u = gr.nodal_field(grid, quad, spec.g)
        flow = _flow(u, op, spec.q)
        for m, (a, b) in enumerate(zip(edges, edges[1:]), start=1):
            u, c = hy.hybrid_step(u, a, b, op, flow)
            total = u + gr.evaluate_field(c, quad)
            norm_u, norm_c = gr.l2_norm(u), gr.l2_norm(c)
            u, _, resid = hy.remap(u, c)
            want.append(hy.IntervalRecord(m, b, norm_u, norm_c, resid, gr.l2_norm(u)))
    assert len(want) == 4
    assert np.array_equal(res.total.values, total.values)
    assert res.records == want


def test_collided_field_evaluated_once_per_interval(monkeypatch):
    spec = replace(_sourced_spec(), sigma_a=0.3)
    N = 3
    evaluated, projected = [], []
    real_evaluate, real_project = gr.evaluate_field, gr.project_field

    def evaluate(field, quad):
        evaluated.append(field.N)
        return real_evaluate(field, quad)

    def project(field, degree):
        projected.append(degree)
        return real_project(field, degree)

    monkeypatch.setattr(gr, "evaluate_field", evaluate)
    monkeypatch.setattr(gr, "project_field", project)
    res = hy.run_hybrid(spec, N, quad=sh.build_sphere_quadrature(8))
    assert len(res.records) == spec.M == 4
    assert evaluated == [N] * spec.M
    assert projected and max(projected) <= N

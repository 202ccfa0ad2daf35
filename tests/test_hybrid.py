import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("eps,T,intervals", [(1e-4, 1, 1), (1.25e-3, 4, 4)])
def test_too_many_substeps_rejected_before_the_first_step(monkeypatch, eps, T, intervals):
    # The substeps of every interval count: at eps = 1.25e-3 each of four
    # unit intervals takes about 2 (640,000 + 800) / 3 = 427,200, under the
    # limit alone and over it in all.
    def step(*args):
        raise AssertionError("a hybrid step started")

    monkeypatch.setattr(hy, "hybrid_step", step)
    spec = tr.problem("stiff", eps=eps, sigma_t=1.0, g=[_iso_cosine()], T=T, dt=1)
    with pytest.raises(ValueError, match=r"^the run must take at most 1000000 Duhamel "
                                         r"substeps, got \d+ for sigma/eps\^2 = ") as info:
        hy.run_hybrid(spec, N=1)
    need = int(str(info.value).split("got ")[1].split()[0])
    assert need % intervals == 0 and need > tr.MAX_INTERVALS
    assert need // intervals == math.ceil(2 * (1 / eps**2 + 1 / eps) / 3)


def test_absorbing_hybrid_matches_transformed():
    spec = tr.problem("abs", eps=0.6, sigma_t=1.0, sigma_a=0.4,
                      g=[_iso_cosine(), _aniso_cosine()], T="0.5", dt="1/4")
    quad = sh.build_sphere_quadrature(8)
    direct = hy.run_hybrid(spec, N=3, quad=quad)
    pure, scale = oracles.absorption_wrap(spec)
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
    # One closed-form advance of the uncollided field to the 12 Duhamel node
    # times of every substep, one closed-form advance of the carrier, and no
    # nodal field built inside the step: the source profiles come with the flow.
    nsub = op.substeps_for(0.25, extra_rate=op.max_rate + abs(spec.q[0].time_exp))
    assert calls == {"advance": nsub + 1, "nodal_field": 0}


def test_hybrid_step_refuses_a_state_that_is_not_hermitian():
    # With the k = -1 row multiplied by i, hybrid_step once returned a
    # Hermitian carrier built from the half-space H alone, where
    # solve_uncollided refused the same state.
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(6)
    values = gr.nodal_field(grid, quad, spec.g).values.copy()
    values[grid.index_of((-1, 0, 0))] *= 1j
    bad = gr.NodalField(grid, quad, values)
    op = tr.PnOperator(grid, 3, 1.0, 1.0)
    message = r"^state values must satisfy c\(-k\) = conj c\(k\), got a deviation of 0\.707$"
    with pytest.raises(ValueError, match=message):
        hy.hybrid_step(bad, 0.0, 0.5, op, _flow(bad, op))
    with pytest.raises(ValueError, match=message):
        tr.solve_uncollided(bad, 0.0, 0.5, 1.0, 1.0)


# The drive hybrid_step hands PnOperator.step advances the uncollided flow
# to a substep's 12 node times in one call.  Every time's values, and the
# drive's node averages, must keep the bits of the flow advanced to that
# time alone (oracles.advance_at), with a source term or without, on every
# grid dimension; the rates of every such flow include conjugate pairs.
# mu = -(sigma/eps^2 + sigma_a) makes z = 0 on k = 0, so the source response
# takes its series and its recurrence branch at one time.
@given(dim=st.sampled_from([1, 2, 3]), sourced=st.booleans(), eps=st.floats(0.3, 1.5),
       sigma=st.floats(0.2, 3.0), absorb=st.floats(0.0, 1.0),
       mu=st.sampled_from([0.0, -0.5, None]), a=st.floats(0.0, 1.0),
       h=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
@example(dim=1, sourced=False, eps=0.05, sigma=1.0, absorb=0.0, mu=0.0, a=0.25, h=0.25,
         seed=1)
@example(dim=3, sourced=True, eps=0.7, sigma=1.2, absorb=0.3, mu=None, a=0.5, h=1.0,
         seed=2)
@settings(max_examples=30)
def test_batched_drive_matches_per_time_oracle_bytes(dim, sourced, eps, sigma, absorb, mu,
                                                     a, h, seed):
    grid = gr.SpatialGrid(dim, 3)
    quad = sh.build_sphere_quadrature(3)
    sigma_a = absorb * sigma
    q = []
    if sourced:
        mu = -(sigma / eps**2 + sigma_a) if mu is None else mu
        q = [gr.term({(0, 0, 0): 0.7, (1, 0, 0): 0.5 - 0.25j, (-1, 0, 0): 0.5 + 0.25j},
                     (1.0, 0.0, 0.6, 0.2), time_poly=(0.3, -1.0, 0.5), time_exp=mu)]
    op = tr.PnOperator(grid, 2, eps, sigma, sigma_a)
    rng = np.random.default_rng(seed)
    shape = grid.shape + (len(quad),)
    psi_u = gr.NodalField(grid, quad, oracles.hermitian(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    flow = _flow(psi_u, op, q)
    assert flow.pairs > 0
    steps = []
    real = tr.PnOperator.step

    def recording(self, coeffs, length, source=None, t0=0.0, substeps=None, envelope=None):
        steps.append((source, length, t0, substeps))
        return real(self, coeffs, length, source=source, t0=t0, substeps=substeps,
                    envelope=envelope)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr.PnOperator, "step", recording)
        carrier, _ = hy.hybrid_step(psi_u, a, a + h, op, flow)
    assert gr.half_space(carrier.values.reshape(-1, len(quad))).tobytes() == \
        oracles.advance_at(flow, psi_u.values, a, a + h).tobytes()
    [(drive, length, t0, nsub)] = steps
    emit = sigma / eps**2 * math.sqrt(4.0 * math.pi)
    x, _ = tr._duhamel_rule()
    hs = length / nsub
    for j in range(nsub):
        times = t0 + j * hs + 0.5 * hs * (x + 1.0)
        at = [oracles.advance_at(flow, psi_u.values, a, t) for t in times]
        assert flow.advance(psi_u.values, a, times).tobytes() == np.stack(at).tobytes()
        want = [emit * ((v[:, None, :] @ quad.weights) / (4.0 * math.pi))[:, 0] for v in at]
        assert drive(times).tobytes() == np.stack(want).tobytes()


def _step_with_and_without_skip(psi_u, a, b, op, flow):
    """hybrid_step's (carrier, collided) with the re-emission envelope, the
    same step with the envelope withheld, and the first step's (substeps,
    drive calls)."""
    real = op.step
    seen = []

    def counting(coeffs, h, source=None, t0=0.0, substeps=None, envelope=None):
        calls = []

        def sample(times):
            calls.append(times)
            return source(times)

        out = real(coeffs, h, sample, t0, substeps, envelope=envelope)
        seen.append((substeps, len(calls)))
        return out

    try:
        op.step = counting
        skipping = hy.hybrid_step(psi_u, a, b, op, flow)
        op.step = lambda coeffs, h, source=None, t0=0.0, substeps=None, envelope=None: \
            real(coeffs, h, source, t0, substeps)
        sampling = hy.hybrid_step(psi_u, a, b, op, flow)
    finally:
        del op.step
    [counts] = seen
    return skipping, sampling, counts


# Without a source every uncollided characteristic decays at sigma/eps^2 +
# sigma_a, and step skips the drive of a substep once its node terms cannot
# change a bit of the propagated collided state.  The skip must keep every
# byte of the carrier and the collided moments, on every grid dimension and
# degree, diffusive (eps = 0.02) to streaming (eps = 1).  A sourced flow has
# no envelope and samples every substep.  A state with a nonzero mean samples
# every substep too (the k = 0 moments' imaginary parts are +0 and face a
# positive bound), so mean_free zeroes the k = 0 mode; and so does a 2D or 3D
# state at N >= 2, whose moments that the drive cannot reach hold -0 entries.
# The examples' least_skipped counts skipped substeps, so the property is not
# vacuous.
@given(dim=st.sampled_from([1, 2, 3]), N=st.integers(1, 5),
       eps=st.sampled_from([0.02, 0.05, 0.1, 0.5, 1.0]), sigma=st.floats(0.2, 1.0),
       absorb=st.sampled_from([0.0, 0.1]), sourced=st.booleans(), a=st.floats(0.0, 1.0),
       h=st.floats(0.02, 0.25), mean_free=st.booleans(), seed=st.integers(0, 2**32 - 1),
       least_skipped=st.just(0))
@example(dim=1, N=3, eps=0.05, sigma=1.0, absorb=0.0, sourced=False, a=0.0, h=0.25,
         mean_free=True, seed=1, least_skipped=10)
@example(dim=2, N=1, eps=0.02, sigma=1.0, absorb=0.1, sourced=False, a=0.5, h=0.1,
         mean_free=True, seed=2, least_skipped=100)
@example(dim=3, N=1, eps=0.05, sigma=0.8, absorb=0.1, sourced=False, a=0.25, h=0.25,
         mean_free=True, seed=3, least_skipped=10)
@example(dim=1, N=3, eps=0.05, sigma=1.0, absorb=0.0, sourced=True, a=0.0, h=0.25,
         mean_free=True, seed=1, least_skipped=0)
@settings(max_examples=20, deadline=None)
def test_skipped_drive_keeps_hybrid_step_bytes(dim, N, eps, sigma, absorb, sourced, a, h,
                                               mean_free, seed, least_skipped):
    grid = gr.SpatialGrid(dim, 3)
    quad = sh.build_sphere_quadrature(N + 1)
    q = [gr.term({(0, 0, 0): 0.7, (1, 0, 0): 0.5, (-1, 0, 0): 0.5},
                 (1.0, 0.0, 0.6, 0.2), time_poly=(0.3, -1.0), time_exp=-0.5)] if sourced else []
    op = tr.PnOperator(grid, N, eps, sigma, absorb * sigma)
    rng = np.random.default_rng(seed)
    shape = grid.shape + (len(quad),)
    values = oracles.hermitian(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if mean_free:
        values[grid.index_of((0, 0, 0))] = 0.0
    psi_u = gr.NodalField(grid, quad, values)
    flow = _flow(psi_u, op, q)
    skipping, sampling, (nsub, drives) = _step_with_and_without_skip(
        psi_u, a, a + h, op, flow)
    assert skipping[0].values.tobytes() == sampling[0].values.tobytes()
    assert skipping[1].coeffs.tobytes() == sampling[1].coeffs.tobytes()
    if sourced:
        assert drives == nsub
    assert nsub - drives >= least_skipped


_REACH = np.array([1.0, 0.5])  # one row's reach over two moments


def _below(state, bound, reach=_REACH):
    return tr._drive_below_last_bit(np.array([state], dtype=complex), np.array([bound]),
                                    reach)


def test_drive_skip_rule_at_a_power_of_two():
    # Below a power of two the floats are twice as dense, so half their
    # spacing is 2^-54 |x|: a term of 1.01 * 2^-54 moves x = 1, and the rule
    # asks B < |x| 2^-55.  Here B = bound * reach, largest on moment 0.
    x = np.array([1.0, 0.75])
    assert x[0] - 1.01 * 2.0**-54 != x[0]
    edge = 2.0**-55
    assert not _below(x + 1j * x, edge)
    below = np.nextafter(edge, 0.0)
    assert _below(x + 1j * x, below)
    assert x[0] - below == x[0] and x[0] + below == x[0]
    # The second moment's reach is half, so it passes too.
    assert x[1] - 0.5 * below == x[1]


def test_drive_skip_rule_keeps_the_drive_at_a_negative_zero():
    # -0 + +0 is +0: a -0 component keeps the drive even where every term
    # is an exact zero, a zero bound (a mode whose state is 0) or a zero
    # column; +0 there skips.
    assert np.float64(-0.0) + np.float64(0.0) == 0.0
    assert not np.signbit(np.float64(-0.0) + np.float64(0.0))
    assert not _below([complex(-0.0, 1.0), 1.0 + 1.0j], 0.0)
    assert not _below([1.0 + 1.0j, complex(1.0, -0.0)], 1e-30, np.array([1.0, 0.0]))
    assert _below([0.0, 1.0 + 1.0j], 0.0)
    assert _below([1.0 + 1.0j, 0.0], 1e-30, np.array([1.0, 0.0]))


def test_drive_skip_rule_keeps_the_drive_at_a_positive_zero_it_reaches():
    # A +0 component whose e_0 column is not zero would take the drive's
    # terms, however small the bound.
    assert not _below([1.0 + 1.0j, 0.0], 1e-300)
    assert not _below([0.0, 1.0 + 1.0j], 5e-324)
    # B = 5e-324 * 0.5 underflows to 0, but the reach is not 0.
    assert not _below([1.0 + 1.0j, 0.0], 5e-324)


@pytest.mark.parametrize("mu", [-300.0, -30.0])
def test_hybrid_substeps_follow_the_source_time_rate(monkeypatch, mu):
    # The re-emission drive varies at the uncollided rates, at most
    # op.max_rate = 1.5 here, and at the source's rate |mu|.  With the
    # substep count blind to mu, one substep integrated the drive of
    # -mu e^(mu t) cos(x) to 4.5e-4 relative (mu = -300) or 1.5e-9 (mu = -30)
    # of a run on ten times as many substeps.
    q = [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, time_poly=(-mu,), time_exp=mu)]
    spec = tr.problem("fast", eps=1.0, sigma_t=0.5, g=[_iso_cosine()], q=q, T=1)
    got = hy.run_hybrid(spec, 3).total.values
    real = tr.PnOperator.substeps_for
    monkeypatch.setattr(tr.PnOperator, "substeps_for",
                        lambda self, h, extra_rate=0.0: 10 * real(self, h, extra_rate))
    want = hy.run_hybrid(spec, 3).total.values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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

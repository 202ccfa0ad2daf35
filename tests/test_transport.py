import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pnhybrid import bounds as bd
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import harness as hs
from pnhybrid import hybrid as hy
from pnhybrid import transport as tr

import oracles


def _iso_cosine(mean=1.0):
    return gr.isotropic_term({(0, 0, 0): mean, (1, 0, 0): 0.5, (-1, 0, 0): 0.5})


def _aniso_constant():
    # Spatially constant, pure degree-1 angular profile m_{1,0}.
    return gr.term({(0, 0, 0): 1.0}, (0.0, 0.0, 1.0, 0.0))


def test_problem_validation():
    g = [_iso_cosine()]
    with pytest.raises(ValueError):
        tr.problem("p", eps=0.0, sigma_t=1.0, g=g)
    with pytest.raises(ValueError):
        tr.problem("p", eps=1.0, sigma_t=-1.0, g=g)
    with pytest.raises(ValueError):
        tr.problem("p", eps=1.0, sigma_t=1.0, g=g, sigma_a=2.0)
    with pytest.raises(ValueError, match="M\\*dt != T"):
        tr.problem("p", eps=1.0, sigma_t=1.0, g=g, T=1, dt="0.3")


@pytest.mark.parametrize("field", ["eps", "sigma_t", "sigma_a", "T", "dt"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problem_rejects_non_finite(field, bad):
    kwargs = dict(eps=1.0, sigma_t=1.0, sigma_a=0.0, T=1, dt=None)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=f"^{field} must be"):
        tr.problem("p", g=[_iso_cosine()], **kwargs)


@pytest.mark.parametrize("field", ["eps", "sigma_t", "sigma_a", "T", "dt"])
def test_problem_spec_rejects_nan_fields(field):
    # Direct construction skips problem(); the spec itself must still refuse.
    kwargs = dict(name="p", eps=1.0, sigma_t=1.0, sigma_a=0.0, g=(), q=(),
                  T=Fraction(1), dt=Fraction(1))
    kwargs[field] = math.nan
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        tr.ProblemSpec(**kwargs)


@pytest.mark.parametrize("T", ["1e400", "-1e400", "1e-400"])
def test_problem_rejects_times_past_float_range(T):
    # Read as a float, 1e400 is inf and 1e-400 is 0, though neither is.
    with pytest.raises(ValueError, match="^T must be within the float range"):
        tr.problem("p", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=T)


@pytest.mark.parametrize("time", [Fraction(10**400), Fraction(1, 10**400)])
def test_problem_spec_rejects_exact_times_past_float_range(time):
    # Built directly: T = dt would read as inf, or as 0 though it is not.
    with pytest.raises(ValueError) as info:
        tr.ProblemSpec(name="p", eps=1.0, sigma_t=1.0, sigma_a=0.0, g=(), q=(),
                       T=time, dt=time)
    message = str(info.value)
    assert message.startswith("T must be within the float range")
    assert "\n" not in message and len(message) < 100  # not the 400-digit numeral


def _growing_source(mu):
    return [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, time_exp=mu)]


@pytest.mark.parametrize("mu,T", [(710.0, 1), (800.0, 1), (71.0, 10), (1e308, "0.5")])
def test_problem_refuses_a_source_growing_past_float_range(mu, T):
    # At time_exp = 710 and T = 1, run_hybrid and data_norms raised
    # OverflowError; at 800, solve_pn returned nan moments without an error.
    with pytest.raises(ValueError, match="^q time_exp .* must keep exp"):
        tr.problem("grow", 0.5, 1.0, [_iso_cosine()], q=_growing_source(mu), T=T)


def test_problem_keeps_a_source_growing_within_float_range_finite():
    spec = tr.problem("grow", 0.5, 1.0, [_iso_cosine()], q=_growing_source(700.0), T=1)
    assert np.all(np.isfinite(tr.solve_pn(spec, 3).final.coeffs))
    res = hy.run_hybrid(spec, 3)
    assert np.all(np.isfinite(res.total.values))
    # The record norms square entries near e^700: they once overflowed.
    for rec in res.records:
        assert all(math.isfinite(v) for v in (rec.norm_u, rec.norm_c, rec.norm_merged))
    g_norms, q_sup = bd.data_norms(spec, bd.required_pairs(2, "pn"))
    assert all(math.isfinite(v) for v in (*g_norms.values(), *q_sup.values()))
    assert q_sup[(3, 0)] > 1e304
    # A decaying source of any rate stays within range.  At time_exp = -800
    # the phi-functions' e^z overflowed over the one interval and run_hybrid
    # returned nan; the response now runs on e^(mu b) phi_j.
    tr.problem("decay", 0.5, 1.0, [_iso_cosine()], q=_growing_source(-1e308), T=1)
    spec = tr.problem("decay", 0.5, 1.0, [_iso_cosine()], q=_growing_source(-800.0), T=1)
    assert np.all(np.isfinite(tr.solve_pn(spec, 3).final.coeffs))
    assert np.all(np.isfinite(hy.run_hybrid(spec, 3).total.values))


def test_problem_fraction_schedule():
    spec = tr.problem("p", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1, dt="1/3")
    assert spec.M == 3
    assert spec.dt == Fraction(1, 3)
    assert spec.interval_edges() == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])
    # Decimal-looking floats are taken at face value, not at their binary
    # neighbors, so 0.1 divides 1 exactly.
    spec = tr.problem("p", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1, dt=0.1)
    assert spec.M == 10
    assert spec.dt == Fraction(1, 10)


def test_initial_field_truncates_degree():
    g = [gr.term({(0, 0, 0): 1.0}, tuple([0.0] * 8 + [1.0]))]  # pure degree 2
    spec = tr.problem("p", eps=1.0, sigma_t=1.0, g=g)
    grid = tr.default_grid(spec)
    f = tr.initial_field(spec, grid, N=1)
    assert f.N == 1
    assert np.all(f.coeffs == 0.0)
    f2 = tr.initial_field(spec, grid, N=4)
    assert f2.coeffs[0, 0, 0, sh.ordinal(2, 2)] == pytest.approx(1.0)


def test_anisotropic_mode_decays_exactly():
    # A spatially constant degree-1 profile only feels the scattering
    # penalty: every moment with l >= 1 decays by exp(-sigma t / eps^2).
    spec = tr.problem("aniso", eps=0.8, sigma_t=1.3, g=[_aniso_constant()], T="0.7")
    res = tr.solve_pn(spec, N=3)
    f = res.final
    want = math.exp(-1.3 * 0.7 / 0.64)
    got = f.coeffs[0, 0, 0, sh.ordinal(1, 0)]
    assert got.real == pytest.approx(want, abs=1e-12)
    assert abs(got.imag) < 1e-14
    others = np.delete(f.coeffs[0, 0, 0], sh.ordinal(1, 0))
    assert np.max(np.abs(others)) < 1e-13


def test_mass_conserved_and_norm_nonincreasing():
    spec = tr.problem("iso", eps=0.5, sigma_t=1.0, g=[_iso_cosine()], T="0.5", dt="1/16")
    res = tr.solve_pn(spec, N=5, record_times=spec.interval_edges())
    grid = res.final.grid
    mass0 = gr.scalar_flux(res.fields[0])[grid.index_of((0, 0, 0))]
    norms = [gr.l2_norm(f) for f in res.fields]
    for f in res.fields[1:]:
        mass = gr.scalar_flux(f)[grid.index_of((0, 0, 0))]
        assert abs(mass - mass0) < 1e-12
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-10


def test_energy_identity_without_source():
    spec = tr.problem("iso", eps=0.5, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    state = tr.initial_field(spec, grid, N=5)
    resid = tr.audit_energy_identity(state, 0.25, spec.eps, spec.sigma_t)
    assert resid < 1e-12


def test_energy_identity_with_source():
    q = [gr.isotropic_term({(1, 0, 0): 0.25, (-1, 0, 0): 0.25}, time_exp=-0.4)]
    spec = tr.problem("iso-q", eps=0.7, sigma_t=1.0, g=[_iso_cosine()], q=q, T=1)
    grid = tr.default_grid(spec)
    state = tr.initial_field(spec, grid, N=3)
    sampler = tr.source_sampler(spec, grid, N=3)
    resid = tr.audit_energy_identity(state, 0.5, spec.eps, spec.sigma_t, source=sampler)
    assert resid < 1e-10


def test_pn_duhamel_matches_linear_growth():
    # Isotropic spatially constant source feeds the mean moment at unit
    # rate and nothing else; the quadrature must reproduce u0 + q0 t.
    q = [gr.isotropic_term({(0, 0, 0): 1.0})]
    spec = tr.problem("flat", eps=1.0, sigma_t=1.0, g=[_aniso_constant()], q=q, T="0.8")
    res = tr.solve_pn(spec, N=3)
    f = res.final
    mean = f.coeffs[0, 0, 0, 0]
    assert mean.real == pytest.approx(math.sqrt(4.0 * math.pi) * 0.8, rel=1e-13)
    assert abs(mean.imag) < 1e-15


def test_absorption_direct_equals_transformed():
    q = [gr.isotropic_term({(1, 0, 0): 0.25, (-1, 0, 0): 0.25}, time_exp=-0.3)]
    g = [_iso_cosine(), _aniso_constant()]
    spec = tr.problem("abs", eps=0.9, sigma_t=1.0, sigma_a=0.5, g=g, q=q, T=1)
    direct = tr.solve_pn(spec, N=5).final
    pure, scale = tr.absorption_wrap(spec)
    assert pure.sigma_a == 0.0
    assert pure.q[0].time_exp == pytest.approx(-0.3 + 0.5)
    transformed = tr.solve_pn(pure, N=5).final.scale(scale(spec.t_final))
    diff = np.max(np.abs(direct.coeffs - transformed.coeffs))
    assert diff < 1e-10


def test_absorption_wrap_identity_when_pure():
    spec = tr.problem("pure", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    same, scale = tr.absorption_wrap(spec)
    assert same is spec
    assert scale(17.0) == 1.0


def _full_rates(grid, quad, eps, sigma, sigma_a):
    """lambda[k, node] = sigma/eps^2 + sigma_a + i k.Omega/eps as one full
    array, the way the uncollided rates were built before each distinct
    rate was kept once."""
    k1, k2, k3 = grid.k_grids()
    om = quad.nodes
    kdot = (
        k1[..., None] * om[:, 0]
        + k2[..., None] * om[:, 1]
        + k3[..., None] * om[:, 2]
    )
    return (sigma / eps**2 + sigma_a) + 1j * kdot / eps


def _full_uncollided_values(values, lam, a, b, profiles):
    """UncollidedFlow.advance with every exponential and phi-function taken
    per (mode, node) on the full rate array lam."""
    out = values * np.exp(-lam * (b - a))
    if profiles:
        resp = np.zeros(lam.shape, dtype=complex)
        for tm, profile in profiles:
            resp += oracles.source_response(lam, tm, a, b) * profile
        out = out + resp
    return out


def test_uncollided_decay_against_rates():
    spec = tr.problem("s", eps=0.5, sigma_t=0.8, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(6)
    state = gr.nodal_field(grid, quad, spec.g)
    out = tr.solve_uncollided(state, 0.2, 0.9, spec.eps, spec.sigma_t, 0.1)
    lam = _full_rates(grid, quad, spec.eps, spec.sigma_t, 0.1)
    want = state.values * np.exp(-lam * 0.7)
    assert np.max(np.abs(out.values - want)) < 1e-15


def test_uncollided_exponential_source_closed_form():
    # Spatially constant isotropic pieces evolve by the scalar ODE
    # v' = -lam v + A exp(mu t) whose solution is explicit.
    lam_sigma, eps, mu, A = 0.9, 1.0, -0.35, 0.7
    g = [gr.isotropic_term({(0, 0, 0): 1.0})]
    q = [gr.isotropic_term({(0, 0, 0): A}, time_exp=mu)]
    spec = tr.problem("u", eps=eps, sigma_t=lam_sigma, g=g, q=q, T=1)
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(4)
    state = gr.nodal_field(grid, quad, spec.g)
    a, b = 0.3, 1.1
    out = tr.solve_uncollided(state, a, b, eps, lam_sigma, 0.0, spec.q)
    lam = lam_sigma / eps**2
    hom = math.exp(-lam * (b - a))
    part = A * (math.exp(mu * b) - hom * math.exp(mu * a)) / (lam + mu)
    want = hom + part
    assert np.max(np.abs(out.values - want)) < 1e-13


def test_uncollided_polynomial_source_closed_form():
    # v' = -lam v + t has particular integral (b/lam - 1/lam^2)
    #   - exp(-lam (b-a)) (a/lam - 1/lam^2).
    lam_sigma = 1.4
    g = [gr.isotropic_term({(0, 0, 0): 1.0})]
    q = [gr.isotropic_term({(0, 0, 0): 1.0}, time_poly=(0.0, 1.0))]
    spec = tr.problem("u", eps=1.0, sigma_t=lam_sigma, g=g, q=q, T=2)
    grid = tr.default_grid(spec)
    quad = sh.build_sphere_quadrature(4)
    state = gr.nodal_field(grid, quad, spec.g)
    a, b = 0.25, 1.75
    out = tr.solve_uncollided(state, a, b, 1.0, lam_sigma, 0.0, spec.q)
    lam = lam_sigma
    hom = math.exp(-lam * (b - a))
    part = (b / lam - 1.0 / lam**2) - hom * (a / lam - 1.0 / lam**2)
    want = hom + part
    assert np.max(np.abs(out.values - want)) < 1e-13


def test_characteristics_phase_shift():
    spec = tr.problem("free", eps=0.5, sigma_t=0.0, g=[_iso_cosine(0.0)], T=1)
    quad = sh.build_sphere_quadrature(8)
    sol = tr.characteristics_solution(spec, quad, 0.6)
    grid = sol.grid
    state0 = gr.nodal_field(grid, quad, spec.g)
    kdot = quad.nodes[:, 0]  # k = (+-1, 0, 0) modes only
    i_p = grid.index_of((1, 0, 0))
    i_m = grid.index_of((-1, 0, 0))
    phase = np.exp(-1j * kdot * 0.6 / 0.5)
    assert np.max(np.abs(sol.values[i_p] - state0.values[i_p] * phase)) < 1e-14
    assert np.max(np.abs(sol.values[i_m] - state0.values[i_m] * np.conj(phase))) < 1e-14
    with_scatter = tr.problem("s", eps=0.5, sigma_t=0.1, g=[_iso_cosine()], T=1)
    with pytest.raises(ValueError):
        tr.characteristics_solution(with_scatter, quad, 0.5)


def test_solve_diffusion_values_and_gates():
    spec = tr.problem("d", eps=0.25, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    flux = tr.solve_diffusion(spec, 0.9, grid)
    phi0 = gr.scalar_flux(gr.moment_field(grid, 1, spec.g))
    want = phi0 * np.exp(-0.9 * grid.k_norm2() / 3.0)
    assert np.max(np.abs(flux - want)) < 1e-14
    with pytest.raises(ValueError):
        tr.solve_diffusion(tr.problem("d0", eps=1.0, sigma_t=0.0, g=[_iso_cosine()], T=1), 0.5)
    specq = tr.problem("dq", eps=1.0, sigma_t=1.0, g=[_iso_cosine()],
                       q=[gr.isotropic_term({(0, 0, 0): 1.0})], T=1)
    with pytest.raises(ValueError):
        tr.solve_diffusion(specq, 0.5)


def test_record_times_filter_and_gate():
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    res = tr.solve_pn(spec, N=1, record_times=(0.0, 0.5, 1.0))
    assert res.times == [0.0, 0.5, 1.0]
    assert len(res.fields) == 3
    with pytest.raises(ValueError):
        tr.solve_pn(spec, N=1, record_times=(1.5,))
    with pytest.raises(ValueError):
        tr.solve_pn(spec, N=1, record_times=(math.nan,))


def test_record_time_within_the_slack_is_recorded_at_T():
    spec = tr.problem("iso", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    res = tr.solve_pn(spec, N=3, record_times=(1 + 4e-16,))
    assert res.times == [0.0, 1.0]
    assert np.array_equal(res.final.coeffs, tr.solve_pn(spec, N=3).final.coeffs)


def test_substep_count_follows_stiffness():
    spec = tr.problem("stiff", eps=0.1, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    op = tr.PnOperator(grid, 1, spec.eps, spec.sigma_t)
    # Fastest mode: sigma/eps^2 + |k|/eps = 100 + 10 = 110.
    assert op.substeps_for(1.0) == math.ceil(110.0 / 3.0)
    assert op.substeps_for(1.0, extra_rate=10.0) == 40
    assert op.substeps_for(1e-6) == 1


def test_mode_operator_dissipative_spectrum():
    cs = sh.assemble_coupling(5)
    A = tr.assemble_mode_operator((2, 0, -1), 5, 0.5, 1.0, cs, sigma_a=0.25)
    ev = np.linalg.eigvals(A)
    # Streaming is skew, scattering and absorption push left: no eigenvalue
    # may sit right of -sigma_a.
    assert np.max(ev.real) <= -0.25 + 1e-12
    assert np.min(ev.real) >= -1.0 / 0.25 - 0.25 - 1e-12
    # A coupling set of higher degree gives the same generator.
    wide = tr.assemble_mode_operator((2, 0, -1), 5, 0.5, 1.0, sh.assemble_coupling(7),
                                     sigma_a=0.25)
    assert np.array_equal(wide, A)


def test_solver_reality_preserved():
    spec = tr.problem("iso", eps=0.5, sigma_t=1.0, g=[_iso_cosine()], T="0.5")
    res = tr.solve_pn(spec, N=3)
    assert gr.reality_residual(res.final) < 1e-13


def _group():
    """The 16 lattice symmetries as (flips, swap, orthogonal matrix g)."""
    for flips in itertools.product((False, True), repeat=3):
        for swap in (False, True):
            W = np.eye(3)[[1, 0, 2]] if swap else np.eye(3)
            g = np.diag([-1.0 if f else 1.0 for f in flips]) @ W
            yield flips, swap, g


def test_lattice_symmetry_matches_basis_at_moved_nodes():
    N = 6
    nodes = sh.build_sphere_quadrature(5).nodes
    B = sh.basis_matrix(N, nodes)
    elements = list(_group())
    assert len(elements) == 16
    for flips, swap, g in elements:
        perm, sign = sh.lattice_symmetry(N, flips, swap)
        S = np.zeros((sh.n_moments(N), sh.n_moments(N)))
        S[np.arange(S.shape[0]), perm] = sign
        moved = sh.basis_matrix(N, nodes @ g.T)
        assert np.max(np.abs(moved - B @ S.T)) < 1e-13, (flips, swap)


_GRID7 = gr.SpatialGrid(3, 7)


def _dense_oracle(k, N, eps, sigma_t, sigma_a, h):
    """expm(h L_k) from the dense generator."""
    L = tr.assemble_mode_operator(k, N, eps, sigma_t, sh.assemble_coupling(N), sigma_a)
    return expm(h * L)


def _one_hot(op, idx, v):
    """A coefficient box in which only mode idx carries a vector, v."""
    box = np.zeros(op.grid.shape + (op.nm,), dtype=complex)
    box[idx] = v
    return box


@given(
    k=st.tuples(*[st.integers(-3, 3)] * 3),
    N=st.integers(1, 8),
    eps=st.floats(0.1, 2.0),
    sigma_t=st.floats(0.0, 5.0),
    absorb=st.floats(0.0, 1.0),
    h=st.floats(0.01, 1.0),
)
@settings(max_examples=40)
def test_orbit_propagator_matches_dense_oracle(k, N, eps, sigma_t, absorb, h):
    # Column j of mode k's propagator is step on the box holding e_j at k.
    sigma_a = absorb * sigma_t
    op = tr.PnOperator(_GRID7, N, eps, sigma_t, sigma_a)
    idx = _GRID7.index_of(k)
    P = np.stack([op.step(_one_hot(op, idx, e), h)[idx] for e in np.eye(op.nm)], axis=1)
    Q = _dense_oracle(k, N, eps, sigma_t, sigma_a, h)
    assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q))
    if abs(k[0]) >= abs(k[1]):
        # Reached from its representative by reflections alone: a pure sign
        # change, which expm reproduces exactly.
        assert np.array_equal(P, Q)


def test_operator_stores_one_propagator_per_orbit_and_step(monkeypatch):
    calls = []
    real = tr.expm

    def counting(A):
        calls.append(A.shape[0])
        return real(A)

    monkeypatch.setattr(tr, "expm", counting)
    op = tr.PnOperator(gr.SpatialGrid(3, 5), 5, 0.5, 1.0)
    u = np.ones(op.grid.shape + (op.nm,), dtype=complex)
    matrix_bytes = op.nm**2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for h in (0.125, 0.25):
            op.step(u, h)
        retained, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # 125 modes in 18 orbits, two step lengths.
    assert len(calls) == 2 * 18
    for h in (0.125, 0.25):
        op.step(u, h)
    assert len(calls) == 2 * 18
    # What the operator keeps is the 2 x 18 representatives' propagators;
    # 2 x 125 per-mode copies never exist, not even during a step.
    assert 2 * 18 <= retained / matrix_bytes < 2 * 18 + 2
    assert peak / matrix_bytes < 2 * 18 + 20


def test_step_takes_no_expm_for_orbits_holding_zeros(monkeypatch):
    calls = []
    real = tr.expm
    monkeypatch.setattr(tr, "expm", lambda A: calls.append(A.shape[0]) or real(A))
    op = tr.PnOperator(_GRID7, 8, 0.5, 1.0, 0.25)
    idx = _GRID7.index_of((2, -1, 3))
    out = op.step(_one_hot(op, idx, np.ones(op.nm)), 0.5)
    # One of the grid's 40 orbits holds data; the others stay exactly zero.
    assert calls == [op.nm]
    assert np.count_nonzero(np.abs(out).sum(axis=-1)) == 1
    assert np.abs(out[idx]).max() > 0.0
    assert not op.step(np.zeros_like(out), 0.5).any() and len(calls) == 1


@given(
    k=st.tuples(*[st.integers(-3, 3)] * 3),
    N=st.integers(1, 8),
    eps=st.floats(0.1, 2.0),
    sigma_t=st.floats(0.0, 5.0),
    absorb=st.floats(0.0, 1.0),
    h=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40)
def test_step_matches_dense_oracle(k, N, eps, sigma_t, absorb, h, seed):
    sigma_a = absorb * sigma_t
    op = tr.PnOperator(_GRID7, N, eps, sigma_t, sigma_a)
    idx = _GRID7.index_of(k)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.nm) + 1j * rng.standard_normal(op.nm)
    got = op.step(_one_hot(op, idx, v), h)[idx]
    want = _dense_oracle(k, N, eps, sigma_t, sigma_a, h) @ v
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if abs(k[0]) >= abs(k[1]):
        # Sign flips only: the dense propagator is the representative's with
        # rows and columns negated, and the product sums in the same order.
        assert np.array_equal(got, want)


@pytest.mark.parametrize("field,value", [
    ("eps", math.nan), ("eps", math.inf), ("eps", 0.0), ("eps", -0.5),
    ("sigma", math.nan), ("sigma", math.inf), ("sigma", -0.5),
    ("sigma_a", math.nan), ("sigma_a", -0.1), ("sigma_a", 1.5),
    ("N", -1), ("N", 2.5), ("N", True), ("N", "3"),
])
def test_operator_rejects_bad_input(field, value):
    kwargs = dict(N=3, eps=1.0, sigma=1.0, sigma_a=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must"):
        tr.PnOperator(gr.SpatialGrid(1, 3), **kwargs)


# ---------------------------------------------------------------------------
# Wide operators (more than DENSE_EXPM_MAX_MOMENTS moments) take each
# representative's exponential block by block, over the connected blocks of
# its generator; narrow ones take one dense expm.

# Axis, coordinate-plane, diagonal, generic and zero wavevectors.
_BLOCK_KS = [(1, 0, 0), (0, 2, 0), (0, 0, 1), (0, 0, -3), (1, 1, 0), (1, 2, 0),
             (0, 1, 2), (-2, 0, 1), (1, 1, 1), (2, -2, 2), (1, 2, 3), (-3, 1, 2),
             (0, 0, 0)]


def _wide_operator(N, eps, sigma, sigma_a):
    """A PnOperator that splits its exponentials, whatever N is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "DENSE_EXPM_MAX_MOMENTS", 0)
        return tr.PnOperator(gr.SpatialGrid(1, 3), N, eps, sigma, sigma_a)


@given(
    k=st.one_of(st.sampled_from(_BLOCK_KS), st.tuples(*[st.integers(-3, 3)] * 3)),
    N=st.integers(1, 12),
    eps=st.floats(0.1, 2.0),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    absorb=st.floats(0.0, 1.0),
    h=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=40)
def test_block_split_exponential_matches_dense_oracle(k, N, eps, sigma, absorb, h):
    sigma_a = absorb * sigma
    op = _wide_operator(N, eps, sigma, sigma_a)
    P = op._exp(k, h * op._generator(k))
    Q = _dense_oracle(k, N, eps, sigma, sigma_a, h)
    assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q))
    if k == (0, 0, 0):
        # A diagonal generator: 1-wide blocks take np.exp, as scipy's dense
        # diagonal path does.
        assert P.tobytes() == Q.tobytes()


def _block_stacks(k, N):
    L = tr.assemble_mode_operator(k, N, 0.5, 1.0, sh.assemble_coupling(N), 0.25)
    return tr.connected_blocks(L)


@pytest.mark.parametrize("N", [3, 8])
def test_connected_blocks_follow_the_lattice_symmetries(N):
    nm = sh.n_moments(N)
    counts = {(1, 0, 0): 4, (1, 1, 0): 2, (1, 2, 0): 2, (0, 0, 1): 2 * N + 1,
              (1, 1, 1): 1, (1, 2, 3): 1, (0, 0, 0): nm}
    for k, count in counts.items():
        stacks = _block_stacks(k, N)
        assert all(np.all(np.diff(idx, axis=1) > 0) for idx in stacks)
        blocks = [frozenset(b) for idx in stacks for b in idx.tolist()]
        assert len(blocks) == count, k
        assert sorted(i for b in blocks for i in b) == list(range(nm))
        classes = {}
        for flips, swap, g in _group():
            if not np.array_equal(g @ k, k):
                continue
            perm, sign = sh.lattice_symmetry(N, flips, swap)
            # A symmetry fixing k commutes with L_k, so it permutes the
            # blocks; on the z axis and at k = 0 the swap exchanges the
            # cos(m phi) and sin(m phi) blocks of odd m.
            assert {frozenset(perm[list(b)].tolist()) for b in blocks} == set(blocks)
            if not swap:
                # A reflection has one sign on each block.
                assert all(len({sign[i] for i in b}) == 1 for b in blocks), (k, flips)
                for i in range(nm):
                    classes.setdefault(i, []).append(sign[i])
        if k not in ((0, 0, 1), (0, 0, 0)):
            # Off the z axis the blocks are exactly the reflections' joint
            # sign classes; on it, rotations about z split them further.
            joint = {}
            for i, signs in classes.items():
                joint.setdefault(tuple(signs), set()).add(i)
            assert set(blocks) == {frozenset(c) for c in joint.values()}, k


def test_wide_operators_take_one_expm_per_block_width(monkeypatch):
    calls = []
    real = tr.expm

    def counting(A):
        calls.append(A.shape)
        return real(A)

    monkeypatch.setattr(tr, "expm", counting)
    h = 0.375
    # At N = 20 (441 moments, narrow) one dense expm per orbit, byte for byte.
    op = tr.PnOperator(gr.SpatialGrid(1, 3), 20, 0.5, 1.0, 0.25)
    for c in ((1, 0, 0), (0, 0, 0)):
        calls.clear()
        P = op._rep(c, h)
        assert calls == [(op.nm, op.nm)]
        assert P.tobytes() == real(h * op._generator(c)).tobytes()
    # At N = 21 (484 moments, wide) one stacked expm per block width.
    op = tr.PnOperator(gr.SpatialGrid(1, 3), 21, 0.5, 1.0, 0.25)
    assert not tr.is_narrow(21) and tr.is_narrow(20)
    calls.clear()
    P = op._rep((1, 0, 0), h)
    widths = [idx.shape[1] for idx in _block_stacks((1, 0, 0), 21)]
    assert [s[1] for s in calls] == widths and all(s[1] == s[2] for s in calls)
    assert sum(s[0] for s in calls) == 4
    Q = real(h * op._generator((1, 0, 0)))
    assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q))
    op._rep((1, 0, 0), h)
    assert len(calls) == len(widths)
    # k = 0 is diagonal: one stack of 1-wide blocks, also for each Duhamel
    # node of a substep.
    calls.clear()
    taus = np.array([0.0, 0.125, 0.25])
    op._substep((0, 0, 0), h, taus)
    assert calls == [(op.nm, 1, 1)] * (1 + len(taus))


def test_wide_solve_matches_dense_expm_loop():
    N, grid = 21, gr.SpatialGrid(1, 3)
    spec = tr.problem("cos", 0.5, 1.0, [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})],
                      sigma_a=0.25, T="0.5")
    assert not tr.is_narrow(N)
    got = tr.solve_pn(spec, N, grid=grid).final.coeffs
    want = tr.initial_field(spec, grid, N).coeffs.copy()
    coupling = sh.assemble_coupling(N)
    for idx, k in tr.PnOperator(grid, N, spec.eps, spec.sigma_t, spec.sigma_a).modes():
        L = tr.assemble_mode_operator(k, N, spec.eps, spec.sigma_t, coupling, spec.sigma_a)
        want[idx] = expm(spec.t_final * L) @ want[idx]
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -0.25])
def test_operator_rejects_bad_step_length(h):
    op = tr.PnOperator(gr.SpatialGrid(1, 3), 2, 1.0, 1.0)
    u = np.ones(op.grid.shape + (op.nm,), dtype=complex)
    with pytest.raises(ValueError, match="^h must"):
        op.step(u, h)
    with pytest.raises(ValueError, match="^h must"):
        op.step(u, h, source=lambda t: u)


# ---------------------------------------------------------------------------
# Exact-in-time sources, against the Gauss-Legendre Duhamel quadrature kept
# in PnOperator.step(source=...) and the loop solve_uncollided used to run.

_GRID3 = gr.SpatialGrid(3, 3)
# Along an axis, genuinely 3D, and reached from their orbit representative
# through the x <-> y swap (|k1| < |k2|).
_SOURCE_KS = [(1, 0, 0), (0, 0, 1), (1, -1, 1), (0, 1, 0), (0, -1, 1), (-1, 1, 0)]


@st.composite
def _source_terms(draw, sigma, sigma_a, eps):
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        ks = draw(st.lists(st.sampled_from(_SOURCE_KS), min_size=1, max_size=2,
                           unique=True))
        deg = draw(st.integers(0, 2))
        poly = draw(st.lists(st.floats(-1.0, 1.0), min_size=deg + 1, max_size=deg + 1))
        mu = draw(st.sampled_from([0.0, -sigma_a, -(sigma / eps**2 + sigma_a), None]))
        if mu is None:
            mu = draw(st.floats(-2.0, 1.0))
        ang = draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
        amps = {k: complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
                for k in ks}
        terms.append(gr.term(amps, ang, time_poly=poly, time_exp=mu))
    return terms


@given(data=st.data(), N=st.integers(1, 5), eps=st.floats(0.5, 2.0),
       sigma=st.floats(0.0, 2.0), absorb=st.floats(0.0, 1.0),
       T=st.floats(0.05, 1.0))
@settings(max_examples=25)
def test_exact_source_matches_quadrature_oracle(data, N, eps, sigma, absorb, T):
    sigma_a = absorb * sigma
    q = data.draw(_source_terms(sigma, sigma_a, eps))
    g = [gr.term({(0, 0, 0): 1.0, (0, 1, 1): 0.5j}, (1.0, 0.2, -0.3, 0.1))]
    spec = tr.problem("q", eps, sigma, g, q=q, sigma_a=sigma_a, T=T)
    t_mid = T / 3.0  # a second step starting at t0 > 0
    res = tr.solve_pn(spec, N, grid=_GRID3, record_times=(t_mid,))

    op = tr.PnOperator(_GRID3, N, eps, sigma, sigma_a)
    sampler = tr.source_sampler(spec, _GRID3, N)
    fastest = max(abs(tm.time_exp) for tm in q)
    u = tr.initial_field(spec, _GRID3, N).coeffs
    for t0, t1, got in ((0.0, t_mid, res.fields[1]), (t_mid, T, res.final)):
        h = t1 - t0
        u = op.step(u, h, source=sampler, t0=t0,
                    substeps=4 * op.substeps_for(h, fastest))
        assert np.max(np.abs(got.coeffs - u)) <= 1e-12 * np.max(np.abs(u))


def test_solve_pn_integrates_source_without_quadrature(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_pn must not sample the source")

    monkeypatch.setattr(tr, "source_sampler", forbidden)
    monkeypatch.setattr(tr.PnOperator, "substeps_for", forbidden)
    q = [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, time_poly=(1.0, 2.0),
                           time_exp=-0.5)]
    spec = tr.problem("q", 0.5, 1.0, [_iso_cosine()], q=q, T=1)
    assert np.all(np.isfinite(tr.solve_pn(spec, 3).final.coeffs))


def test_modes_without_source_are_unchanged():
    g = [gr.term({(0, 0, 0): 1.0, (1, 2, 0): 0.5, (-1, -2, 0): 0.5,
                  (2, 1, 0): 0.25}, (1.0, 0.3, -0.2, 0.1))]
    q = [gr.term({(1, 0, 0): 1.0}, (1.0, 0.0, 0.5, 0.0), time_poly=(0.5, 1.0))]
    grid = gr.SpatialGrid(2, 5)
    bare = tr.problem("bare", 0.7, 1.2, g, sigma_a=0.3, T=1)
    forced = tr.problem("forced", 0.7, 1.2, g, q=q, sigma_a=0.3, T=1)
    a = tr.solve_pn(bare, 4, grid=grid).final.coeffs
    b = tr.solve_pn(forced, 4, grid=grid).final.coeffs
    reached = grid.index_of((1, 0, 0))
    assert not np.array_equal(a[reached], b[reached])
    b[reached] = a[reached]
    assert np.array_equal(a, b)


def test_phi_functions_match_long_series_around_switch():
    # phi_j(z) = sum_m z^m/(m+j)!, summed to 60 terms: accurate for |z| <= 2.
    for radius in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 2.0):
        z = radius * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 37))
        got = oracles.phi_functions(z, 4)
        for j in range(5):
            want = sum(z**m / math.factorial(m + j) for m in range(60))
            assert np.max(np.abs(got[j] - want) / np.abs(want)) < 1e-13, (radius, j)
    at_zero = oracles.phi_functions(np.zeros(1), 4)
    assert [complex(p[0]) for p in at_zero] == [1.0 / math.factorial(j) for j in range(5)]


def _uncollided_loop_oracle(state, a, b, eps, sigma, sigma_a, q_terms, refine):
    """The Gauss-Legendre substep loop solve_uncollided ran before its source
    integral had a closed form, with `refine` times its substeps."""
    lam = _full_rates(state.grid, state.quad, eps, sigma, sigma_a)
    span = b - a
    vals = state.values * np.exp(-lam * span)
    rho = float(np.max(np.abs(lam))) + max(abs(tm.time_exp) for tm in q_terms)
    nsub = refine * max(1, math.ceil(rho * span / 3.0))
    hs = span / nsub
    x, w = np.polynomial.legendre.leggauss(12)
    for j in range(nsub):
        for xi, wi in zip(x, w):
            tau = a + j * hs + 0.5 * hs * (xi + 1.0)
            qv = gr.nodal_field(state.grid, state.quad, q_terms, tau).values
            vals = vals + (0.5 * hs * wi) * np.exp(-lam * (b - tau)) * qv
    return vals


@pytest.mark.parametrize("eps,sigma,sigma_a,mu,branches", [
    (1.0, 0.0, 0.0, 0.0, "both"),           # z = 0 exactly on the k = 0 mode
    (0.5, 1.0, 0.25, -4.25, "both"),        # mu = -(sigma/eps^2 + sigma_a)
    (0.5, 1.0, 0.25, -0.25, "recurrence"),  # mu = -sigma_a
    (0.8, 2.0, 0.0, 0.7, "recurrence"),
    (4.0, 0.2, 0.0, -0.3, "series"),
])
def test_uncollided_source_matches_loop_oracle(eps, sigma, sigma_a, mu, branches):
    q = [gr.term({(0, 0, 0): 1.0, (1, 0, 0): 0.5 - 0.25j, (-1, 0, 0): 0.5 + 0.25j},
                 (1.0, 0.0, 0.6, 0.2), time_poly=(0.3, -1.0, 0.5), time_exp=mu),
         gr.isotropic_term({(1, 0, 0): 0.2, (-1, 0, 0): 0.2}, time_exp=mu)]
    g = [_iso_cosine()]
    grid = gr.grid_for(g, q)
    quad = sh.build_sphere_quadrature(6)
    state = gr.nodal_field(grid, quad, g)
    a, b = 0.3, 2.3
    lam = _full_rates(grid, quad, eps, sigma, sigma_a)
    z = np.abs((lam + mu) * (b - a))
    series = z < tr.PHI_SERIES_BELOW
    assert {"both": series.any() and not series.all(),
            "series": series.all(), "recurrence": not series.any()}[branches]
    if sigma == 0.0 and mu == 0.0:
        assert np.any(z == 0.0)
    got = tr.solve_uncollided(state, a, b, eps, sigma, sigma_a, q).values
    want = _uncollided_loop_oracle(state, a, b, eps, sigma, sigma_a, q, refine=4)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # A zero-length interval adds nothing.
    same = tr.solve_uncollided(state, a, a, eps, sigma, sigma_a, q).values
    assert np.array_equal(same, state.values)


# One source term on a 2D grid whose rates k.Omega/eps repeat and vanish
# (k = 0), for the property below.
_RESPONSE_GRID = gr.SpatialGrid(2, 3)
_RESPONSE_QUAD = sh.build_sphere_quadrature(4)
_RESPONSE_TERM = gr.term({(0, 0, 0): 0.7, (1, 0, 0): 0.5 - 0.25j, (-1, 0, 0): 0.5 + 0.25j,
                          (1, 1, 0): 0.3j, (-1, -1, 0): -0.3j}, (1.0, 0.2, 0.6, -0.1))
_COEFF = st.integers(-200, 200).map(lambda n: n / 100)


# The explicit examples make sure of z = 0 (mu = -(sigma/eps^2 + sigma_a)
# on k = 0, and h = 0), of |z| on both sides of PHI_SERIES_BELOW in one
# call, and of sigma = 0.
@example(poly=[0.3, -1.0, 0.5, 2.0], mu=0.0, eps=0.5, sigma=1.0, absorb=0.25, a=0.3,
         h=1.0, cancel=True)
@example(poly=[1.0, 0.5], mu=-0.4, eps=0.8, sigma=0.0, absorb=0.0, a=1.0, h=1.5,
         cancel=False)
@example(poly=[0.0, 0.0, 1.0], mu=0.0, eps=1.0, sigma=0.0, absorb=0.0, a=0.0, h=0.7,
         cancel=True)
@example(poly=[1.5], mu=2.0, eps=1.0, sigma=0.5, absorb=0.5, a=0.2, h=0.0, cancel=False)
@settings(max_examples=80)
@given(poly=st.lists(_COEFF, min_size=1, max_size=4), mu=st.floats(-3.0, 3.0),
       eps=st.floats(0.2, 2.0), sigma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       absorb=st.floats(0.0, 1.0), a=st.floats(0.0, 2.0),
       h=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), cancel=st.booleans())
def test_source_response_matches_phi_function_oracle(poly, mu, eps, sigma, absorb, a, h,
                                                     cancel):
    # advance from zero values is the source response alone: one pass over
    # the distinct rates against every phi-function on the full rate array.
    sigma_a = absorb * sigma
    if cancel:
        mu = -(sigma / eps**2 + sigma_a)
    tm = replace(_RESPONSE_TERM, time_poly=tuple(poly), time_exp=mu)
    grid, quad = _RESPONSE_GRID, _RESPONSE_QUAD
    flow = tr.uncollided_flow(grid, quad, eps, sigma, sigma_a, [tm])
    lam = _full_rates(grid, quad, eps, sigma, sigma_a)
    got = flow.advance(np.zeros(lam.shape, dtype=complex), a, a + h)
    want = oracles.source_response(lam, tm, a, a + h) * flow.profiles[0][1]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("field, value", [
    ("a", math.nan), ("a", -math.inf), ("b", math.nan), ("b", math.inf),
    ("eps", math.nan), ("eps", math.inf), ("eps", 0.0), ("eps", -1.0),
    ("sigma", math.nan), ("sigma", math.inf), ("sigma", -0.5),
    ("sigma_a", math.nan), ("sigma_a", math.inf), ("sigma_a", -0.1), ("sigma_a", 1.5),
])
def test_uncollided_rejects_bad_input(field, value):
    quad = sh.build_sphere_quadrature(2)
    state = gr.nodal_field(gr.SpatialGrid(1, 3), quad, [_iso_cosine()])
    kwargs = dict(a=0.0, b=0.5, eps=1.0, sigma=1.0, sigma_a=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must"):
        tr.solve_uncollided(state, **kwargs)
    if field not in ("a", "b"):
        # The rate builder is where these are checked: with eps = nan it
        # once returned nan rates with only a RuntimeWarning.
        del kwargs["a"], kwargs["b"]
        with pytest.raises(ValueError, match=f"^{field} must"):
            tr.uncollided_flow(state.grid, state.quad, **kwargs)


# The distinct-rate evaluation against the full-array formula: byte for
# byte for a flow without a source (np.array_equal would let +0 and -0 pass
# as equal), and to 1e-12 relative for one with a source, whose one-pass
# response sums the phi-functions in another order.  Each grid's source has
# mu = -(sigma/eps^2 + sigma_a), so z = -(lambda + mu) h is -i k.Omega h/eps:
# exactly 0 on k = 0 (series branch) and large on the streaming modes
# (recurrence branch).
_BYTES_CASES = {
    "1d": ({(1, 0, 0): 0.5 - 0.25j, (-1, 0, 0): 0.5 + 0.25j}, 0.5, 1.0, 0.25),
    "2d": ({(1, 2, 0): 0.3j, (-1, -2, 0): -0.3j, (0, 1, 0): 0.4}, 0.8, 2.0, 0.0),
    "3d": ({(1, -1, 1): 0.5, (-1, 1, -1): 0.5, (0, 0, 1): 0.2 + 0.1j}, 0.7, 1.2, 0.3),
    "sigma0": ({(1, 0, 0): 0.5, (-1, 0, 1): 0.25j}, 1.0, 0.0, 0.0),
}


@pytest.mark.parametrize("case", sorted(_BYTES_CASES))
def test_uncollided_values_match_full_array_formula_bytes(case):
    amps, eps, sigma, sigma_a = _BYTES_CASES[case]
    mu = -(sigma / eps**2 + sigma_a)
    g = [gr.term({(0, 0, 0): 1.0, **amps}, (1.0, 0.2, -0.3, 0.1))]
    q = [gr.term({(0, 0, 0): 0.7, **amps}, (1.0, 0.0, 0.6, 0.2),
                 time_poly=(0.3, -1.0, 0.5), time_exp=mu),
         gr.isotropic_term({(0, 0, 0): 0.2, **amps}, time_exp=-0.4)]
    grid = gr.grid_for(g, q)
    quad = sh.build_sphere_quadrature(7)
    a, b = 0.3, 2.3
    lam = _full_rates(grid, quad, eps, sigma, sigma_a)
    flow = tr.uncollided_flow(grid, quad, eps, sigma, sigma_a, q)
    assert flow.index.shape == lam.shape and flow.index.dtype == np.intp
    assert flow.distinct[flow.index].tobytes() == lam.tobytes()
    assert flow.distinct.size < lam.size
    with pytest.raises(ValueError):
        flow.distinct[0] = 0.0
    with pytest.raises(ValueError):
        flow.index[(0,) * flow.index.ndim] = 0
    assert all(tm is term for (tm, _), term in zip(flow.profiles, q, strict=True))
    with pytest.raises(ValueError):
        flow.profiles[0][1][(0,) * lam.ndim] = 0.0
    z = np.abs((lam + mu) * (b - a))
    assert np.any(z == 0.0) and np.any(z >= tr.PHI_SERIES_BELOW)
    if sigma == 0.0:
        assert np.any(lam == 0.0)

    bare = tr.uncollided_flow(grid, quad, eps, sigma, sigma_a)
    assert bare.profiles == ()
    rng = np.random.default_rng(7)
    values = rng.standard_normal(lam.shape) + 1j * rng.standard_normal(lam.shape)
    state = gr.nodal_field(grid, quad, g)
    for fl, q_terms in ((flow, q), (bare, ())):
        for start, got in ((values, fl.advance(values, a, b)),
                           (state.values, tr.solve_uncollided(
                               state, a, b, eps, sigma, sigma_a, q_terms).values)):
            want = _full_uncollided_values(start, lam, a, b, fl.profiles)
            if fl.profiles:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            else:
                assert got.tobytes() == want.tobytes()


def test_diffusive_hybrid_sweep_takes_each_distinct_rate_once():
    # The hybrid-dt-diffusive config: iso-smooth, N = 3, eps = 0.05,
    # sigma_t = 1, measured on the quadrature of its degree-12 reference.
    mf = hs.manufactured("iso-smooth", eps=0.05, sigma_t=1.0)
    grid = tr.default_grid(mf.spec)
    quad = hs.measurement_quadrature(mf, hs.reference_degree(3), 1.0)
    flow = tr.uncollided_flow(grid, quad, 0.05, 1.0)
    assert flow.index.shape == (3, 1, 1, 968)
    assert flow.distinct.size == 755


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_solve_diffusion_rejects_bad_time(t):
    # t = nan once returned nan, and t = -1 values growing in time.
    spec = tr.problem("d", eps=0.25, sigma_t=1.0, g=[_iso_cosine()], T=1)
    with pytest.raises(ValueError, match="^t must be finite and nonnegative"):
        tr.solve_diffusion(spec, t)

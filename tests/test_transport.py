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

from pnhybrid import blas
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


@pytest.mark.parametrize("field", ["g", "q"])
@pytest.mark.parametrize("spatial, message", [
    ({(1, 0, 0): 0.5}, r"got a\(1, 0, 0\) = \(0.5\+0j\) and a\(-1, 0, 0\) missing"),
    ({(0, 1, 1): 0.5j, (0, -1, -1): 0.5j},
     r"got a\(0, -1, -1\) = 0.5j and a\(0, 1, 1\) = 0.5j"),
], ids=["missing", "not-conjugate"])
def test_problem_refuses_data_not_real_in_physical_space(field, spatial, message):
    # The solvers advance half the modes and take the rest as conjugates,
    # which needs a(-k) = conj a(k) in every g and q term.
    data = {"g": [_iso_cosine()], "q": []}
    data[field] = data[field] + [gr.isotropic_term(spatial)]
    with pytest.raises(ValueError, match=rf"^{field} amplitudes must satisfy "
                                         rf"a\(-k\) = conj a\(k\), {message}$"):
        tr.problem("p", eps=1.0, sigma_t=1.0, T=1, **data)


def test_uncollided_refuses_a_state_or_source_not_real_in_physical_space():
    quad = sh.build_sphere_quadrature(2)
    state = gr.nodal_field(gr.SpatialGrid(1, 3), quad, [_iso_cosine()])
    values = state.values.copy()
    values[2, 0, 0, 1] += 1e-12j
    with pytest.raises(ValueError, match=r"^state values must satisfy c\(-k\) = conj c\(k\)"):
        tr.solve_uncollided(gr.NodalField(state.grid, quad, values), 0.0, 0.5, 1.0, 1.0)
    one_sided = [gr.isotropic_term({(1, 0, 0): 0.5})]
    with pytest.raises(ValueError, match=r"^q amplitudes must satisfy a\(-k\) = conj a\(k\)"):
        tr.solve_uncollided(state, 0.0, 0.5, 1.0, 1.0, 0.0, one_sided)
    with pytest.raises(ValueError, match=r"^q amplitudes must satisfy a\(-k\) = conj a\(k\)"):
        tr.uncollided_flow(state.grid, quad, 1.0, 1.0, 0.0, one_sided)


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
    grid = tr.default_grid(spec)
    sourced = tr.SourcedModes(tr.PnOperator(grid, 5, spec.eps, spec.sigma_t), spec.q)
    edges = spec.interval_edges()
    fields = [tr.initial_field(spec, grid, 5)]
    for a, b in zip(edges, edges[1:]):
        fields.append(gr.MomentField(grid, 5, sourced.step(fields[-1].coeffs, b - a, a)))
    mass0 = gr.scalar_flux(fields[0])[grid.index_of((0, 0, 0))]
    norms = [gr.l2_norm(f) for f in fields]
    for f in fields[1:]:
        mass = gr.scalar_flux(f)[grid.index_of((0, 0, 0))]
        assert abs(mass - mass0) < 1e-12
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-10


def test_energy_identity_without_source():
    spec = tr.problem("iso", eps=0.5, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    state = tr.initial_field(spec, grid, N=5)
    resid = oracles.audit_energy_identity(state, 0.25, spec.eps, spec.sigma_t)
    assert resid < 1e-12


def test_energy_identity_with_source():
    # The source is isotropic, so its moments are its e_0 drive on H: the
    # steps take that drive, as hybrid_step's re-emission, and its box does
    # the work.
    q = [gr.isotropic_term({(1, 0, 0): 0.25, (-1, 0, 0): 0.25}, time_exp=-0.4)]
    spec = tr.problem("iso-q", eps=0.7, sigma_t=1.0, g=[_iso_cosine()], q=q, T=1)
    grid = tr.default_grid(spec)
    state = tr.initial_field(spec, grid, N=3)
    sampler = oracles.source_sampler(spec, grid, N=3)
    nm = sh.n_moments(3)
    assert not np.any(sampler(0.3)[..., 1:])

    def drive(times):
        return np.stack([gr.half_space(sampler(t).reshape(-1, nm))[:, 0] for t in times])

    resid = oracles.audit_energy_identity(state, 0.5, spec.eps, spec.sigma_t, drive=drive)
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
    pure, scale = oracles.absorption_wrap(spec)
    assert pure.sigma_a == 0.0
    assert pure.q[0].time_exp == pytest.approx(-0.3 + 0.5)
    transformed = tr.solve_pn(pure, N=5).final.scale(scale(spec.t_final))
    diff = np.max(np.abs(direct.coeffs - transformed.coeffs))
    assert diff < 1e-10


def test_absorption_wrap_identity_when_pure():
    spec = tr.problem("pure", eps=1.0, sigma_t=1.0, g=[_iso_cosine()], T=1)
    same, scale = oracles.absorption_wrap(spec)
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


def _half(a):
    """The half-space H of a box-shaped array (k1, k2, k3, n), (H modes, n)."""
    return gr.half_space(a.reshape(-1, a.shape[-1]))


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


def test_substep_count_follows_stiffness():
    spec = tr.problem("stiff", eps=0.1, sigma_t=1.0, g=[_iso_cosine()], T=1)
    grid = tr.default_grid(spec)
    op = tr.PnOperator(grid, 1, spec.eps, spec.sigma_t)
    # Fastest mode: sigma/eps^2 + |k|/eps = 100 + 10 = 110.
    assert tr.duhamel_substeps(op.max_rate, 1.0) == math.ceil(110.0 / 3.0)
    assert tr.duhamel_substeps(op.max_rate + 10.0, 1.0) == 40
    assert tr.duhamel_substeps(op.max_rate, 1e-6) == 1


@given(
    k=st.tuples(*[st.integers(-3, 3)] * 3),
    N=st.integers(0, 12),
    extra=st.integers(0, 3),
    eps=st.one_of(st.just(1.0), st.floats(0.05, 2.0)),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    absorb=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@example(k=(3, -1, 3), N=17, extra=0, eps=0.3, sigma=1.0, absorb=0.25)
@example(k=(1, 0, 0), N=28, extra=2, eps=0.5, sigma=0.0, absorb=0.0)
@settings(max_examples=60)
def test_generator_bytes_match_dense_oracle(k, N, extra, eps, sigma, absorb):
    # Written degree block by degree block, the generator keeps every bit of
    # the sum of dense streaming matrices, from a coupling set of degree N
    # or above.
    coupling = sh.assemble_coupling(max(N, 1) + extra)
    got = tr.assemble_mode_operator(k, N, eps, sigma, coupling, absorb * sigma)
    want = oracles.dense_mode_operator(k, N, eps, sigma, coupling, absorb * sigma)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


def _one_hot(op, k, v):
    """A Hermitian coefficient box in which only modes k and -k carry
    vectors, v and conj v (v real at k = 0)."""
    box = np.zeros(op.grid.shape + (op.nm,), dtype=complex)
    box[op.grid.index_of(tuple(-x for x in k))] = np.conj(v)
    box[op.grid.index_of(k)] = v
    return box


@given(
    k=st.one_of(st.sampled_from([(1, 1, 1), (2, 1, 0), (0, 0, 3), (1, 0, 2), (-1, 3, 2)]),
                st.tuples(*[st.integers(-3, 3)] * 3)),
    N=st.integers(1, 8),
    eps=st.floats(0.1, 2.0),
    sigma_t=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    absorb=st.floats(0.0, 1.0),
    h=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@example(k=(0, 0, 3), N=8, eps=0.1, sigma_t=0.0, absorb=0.0, h=1.0)
@example(k=(1, 2, -3), N=8, eps=0.5, sigma_t=5.0, absorb=1.0, h=0.0)
@settings(max_examples=40)
def test_orbit_propagator_matches_dense_oracle(k, N, eps, sigma_t, absorb, h):
    # Column j of mode k's propagator is step on the box holding e_j at k
    # and at -k: k is in the half-space H, or -k is and k is its conjugate.
    sigma_a = absorb * sigma_t
    op = tr.PnOperator(_GRID7, N, eps, sigma_t, sigma_a)
    idx = _GRID7.index_of(k)
    P = np.stack([op.step(_one_hot(op, k, e), h)[idx] for e in np.eye(op.nm)], axis=1)
    Q = _dense_oracle(k, N, eps, sigma_t, sigma_a, h)
    assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q))
    # The e_0 columns of the Duhamel nodes of the mode's cubic
    # representative, from expm calls.
    star = tuple(sorted((abs(x) for x in k), reverse=True))
    x, w = np.polynomial.legendre.leggauss(tr._DUHAMEL_NODES)
    taus = 0.5 * h * (x + 1.0)
    _, cols, _ = op._substep(star, h, taus, 0.5 * h * w)
    assert cols.shape == (tr._DUHAMEL_NODES, op.nm)
    for m, tau in enumerate(taus):
        Q = _dense_oracle(star, N, eps, sigma_t, sigma_a, float(h - tau))[:, 0]
        assert np.max(np.abs(cols[m] - Q)) <= 1e-12 * np.max(np.abs(Q))


def _count_exps(monkeypatch) -> list:
    """The representative of every PnOperator._exp call, in call order: one
    entry per class exponential, however many scipy calls it takes."""
    calls = []
    real = tr.PnOperator._exp

    def counting(self, c, *args):
        calls.append(c)
        return real(self, c, *args)

    monkeypatch.setattr(tr.PnOperator, "_exp", counting)
    return calls


def test_operator_stores_one_propagator_per_orbit_and_step(monkeypatch):
    calls = _count_exps(monkeypatch)
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
    # The 63 modes of the half-space H of 125 in 10 cubic classes; two step
    # lengths, one exponential per class and length.
    classes = sorted(c for c, _ in op._stack.classes)
    assert len(classes) == 10
    assert sorted(calls) == sorted(classes * 2)
    for h in (0.125, 0.25):
        op.step(u, h)
    assert len(calls) == 2 * 10
    # What the operator keeps is the 2 x 10 representatives' propagators;
    # no turned propagator and none of 2 x 125 per-mode copies ever exists,
    # not even during a step.
    assert 2 * 10 <= retained / matrix_bytes < 2 * 10 + 2
    assert peak / matrix_bytes < 2 * 10 + 20


def test_step_takes_no_expm_for_orbits_holding_zeros(monkeypatch):
    calls = _count_exps(monkeypatch)
    op = tr.PnOperator(_GRID7, 8, 0.5, 1.0, 0.25)
    idx = _GRID7.index_of((2, -1, 3))
    out = op.step(_one_hot(op, (2, -1, 3), np.ones(op.nm)), 0.5)
    # One of the grid's 20 classes holds data, at (2, -1, 3) and its -k,
    # and takes the one exponential, at its representative; the others
    # stay exactly zero.
    assert calls == [(3, 2, 1)]
    assert np.count_nonzero(np.abs(out).sum(axis=-1)) == 2
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
    v = rng.standard_normal(op.nm) + 1j * rng.standard_normal(op.nm) * any(k)
    got = op.step(_one_hot(op, k, v), h)[idx]
    want = _dense_oracle(k, N, eps, sigma_t, sigma_a, h) @ v
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Cubic classes: only a cubic representative c* (|k| sorted in descending
# order) takes an expm; a mode reached from it through an axis permutation
# turns its vector by the permutation's real-harmonic blocks, R^T v into
# the frame and R y out of it.


def _duhamel_oracle(k, N, eps, sigma, sigma_a, h, v, q, substeps):
    """A sourced step of one mode from dense expm calls: per substep the
    propagated state plus the Gauss-Legendre sum of propagated samples."""
    L = tr.assemble_mode_operator(k, N, eps, sigma, sh.assemble_coupling(N), sigma_a)
    hs = h / substeps
    x, w = np.polynomial.legendre.leggauss(tr._DUHAMEL_NODES)
    taus = 0.5 * hs * (x + 1.0)
    u = v
    for j in range(substeps):
        u = expm(hs * L) @ u + sum(0.5 * hs * wm * (expm((hs - tau) * L) @ q(j * hs + tau))
                                   for tau, wm in zip(taus, w))
    return u


def test_cubic_orbit_sourced_step_matches_dense_oracle():
    # One sourced step of the whole 7x7x7 box, every mode carrying data and
    # a re-emission drive, against the dense Duhamel loop on modes of every
    # kind: cubic representatives, reflected, x <-> y swapped and
    # axis-permuted ones, and modes outside H, whose drive is the conjugate.
    N, eps, sigma, sigma_a, h = 5, 0.5, 1.5, 0.25, 0.375
    op = tr.PnOperator(_GRID7, N, eps, sigma, sigma_a)
    rng = np.random.default_rng(5)
    shape = op.grid.shape + (op.nm,)
    u = oracles.hermitian(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a, b = oracles.half_space_vectors(rng, op, 2)

    def drive(times):
        t = times[:, None]
        return a + np.cos(2.0 * (t - 0.25)) * b

    got = op.step(u, h, source=drive, t0=0.25, substeps=2)
    box = oracles.drive_source(op, drive)
    for k in [(1, 1, 1), (2, 1, 0), (0, 0, 3), (1, 0, 2), (-1, 3, 2), (3, -3, 0), (0, -2, 1),
              (2, 2, 3), (0, 0, 0)]:
        idx = _GRID7.index_of(k)
        want = _duhamel_oracle(k, N, eps, sigma, sigma_a, h, u[idx],
                               lambda t: box(0.25 + t)[idx], 2)
        assert np.max(np.abs(got[idx] - want)) <= 1e-12 * np.max(np.abs(want)), k


def test_half_space_drive_matches_dense_oracle_and_nothing_else_is_read():
    # The source of a Duhamel step is the re-emission drive on H at a
    # substep's 12 node times, one row per time and one value per mode of H
    # in box order; the dense oracle reads it as the e_0 moment of a box.  A
    # sample shaped otherwise, a coefficient box or one time's drive above
    # all, is refused rather than read in part.
    op = tr.PnOperator(_GRID3, 3, 0.7, 1.2, 0.3)
    rng = np.random.default_rng(8)
    shape = op.grid.shape + (op.nm,)
    u = oracles.hermitian(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a, b = oracles.half_space_vectors(rng, op, 2)

    def drive(times):
        t = times[:, None]
        return a * np.exp(-t) + t * b

    got = op.step(u, 0.4, source=drive, t0=0.1, substeps=2)
    want = oracles.dense_step(op, u, 0.4, source=oracles.drive_source(op, drive), t0=0.1,
                              substeps=2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert a.shape == (14,)
    for bad in (np.zeros(shape), np.zeros(14), np.zeros((12, 27)), np.zeros((12, 15)),
                np.zeros((11, 14)), np.zeros((12, 14, 1)), np.zeros((12, 14, op.nm))):
        with pytest.raises(ValueError, match=r"^source samples must be shaped \(12, 14\)"):
            op.step(u, 0.4, source=lambda t, bad=bad: bad, substeps=2)


def test_cubic_orbits_take_one_expm_each(monkeypatch):
    calls = _count_exps(monkeypatch)
    op = tr.PnOperator(_GRID7, 3, 0.5, 1.0, 0.25)
    u = np.ones(op.grid.shape + (op.nm,), dtype=complex)
    op.step(u, 0.5)
    # The 172 modes of the half-space H of 343 in 20 classes under the cubic
    # group: one expm per class, each at its representative.
    classes = op._stack.classes
    assert len(classes) == 20 and sum(rows.stop - rows.start for _, rows in classes) == 172
    assert all(tr.cubic_representative(c) == (c, None) for c, _ in classes)
    assert calls == [c for c, _ in classes]
    # A lattice orbit's c = (c1 >= c2, c3) is sorted but for c3, so two axis
    # permutations turn vectors: c3 between c1 and c2, and c3 above both.
    assert [tr.cubic_representative(c)[1] for c in ((1, 0, 1), (1, 1, 2))] == [
        (0, 2, 1), (1, 2, 0)]
    assert len(op._stack.turned) == 2
    # A sourced step of the same length adds one expm per (class, Duhamel
    # node); the substep's propagator is the cached one.
    calls.clear()
    op.step(u, 0.5, source=lambda t: np.ones((t.size, 172)), substeps=1)
    assert calls == [c for c, _ in classes for _ in range(tr._DUHAMEL_NODES)]


def test_sourced_step_assembles_each_class_generator_once(monkeypatch):
    # A class's step propagator and its Duhamel node propagators come from
    # one assembly of its generator, over every substep of the step.
    calls = []
    real = tr.assemble_mode_operator
    monkeypatch.setattr(tr, "assemble_mode_operator",
                        lambda k, *args: calls.append(k) or real(k, *args))
    op = tr.PnOperator(_GRID7, 3, 0.5, 1.0, 0.25)
    u = np.ones(op.grid.shape + (op.nm,), dtype=complex)
    op.step(u, 0.5, source=lambda t: np.ones((t.size, 172)), substeps=2)
    assert sorted(calls) == sorted(c for c, _ in op._stack.classes)


def test_cubic_representative_sorts_and_permutes():
    # c* is c sorted in descending order, and R L_(c*) R^T = L_c.
    assert tr.cubic_representative((2, 1, 0)) == ((2, 1, 0), None)
    assert tr.cubic_representative((1, 1, 1)) == ((1, 1, 1), None)
    N = 6
    coupling = sh.assemble_coupling(N)
    for c in [(0, 0, 3), (1, 0, 2), (3, 1, 2), (2, 1, 2), (2, 2, 3)]:
        star, perm = tr.cubic_representative(c)
        assert list(star) == sorted(c, reverse=True)
        assert tuple(star[p] for p in perm) == c
        R = np.zeros((sh.n_moments(N), sh.n_moments(N)))
        for l, block in enumerate(sh.axis_permutation(N, perm)):
            R[sh.degree_slice(l), sh.degree_slice(l)] = block
        L = tr.assemble_mode_operator(c, N, 0.5, 1.5, coupling, 0.25)
        turned = R @ tr.assemble_mode_operator(star, N, 0.5, 1.5, coupling, 0.25) @ R.T
        assert np.max(np.abs(turned - L)) <= 1e-13 * np.max(np.abs(L)), c


@pytest.mark.parametrize("dim", [1, 2])
def test_flat_grids_take_no_rotation(monkeypatch, dim):
    # Every wavevector with k3 = 0 is its own cubic representative, so 1D
    # and 2D operators turn no vector.  At N = 3 every class, on the axis
    # and off it, keeps expm(h L_c) byte for byte; at N = 4 every class
    # takes the real-frame blocks and agrees to 1e-12, and k = 0, a stack of
    # 1-wide complex blocks, keeps its bytes.
    monkeypatch.setattr(sh, "axis_permutation", lambda *a: pytest.fail("rotation taken"))
    for N in (3, 4):
        op = tr.PnOperator(gr.SpatialGrid(dim, 5), N, 0.5, 1.0, 0.25)
        u = np.ones(op.grid.shape + (op.nm,), dtype=complex)
        op.step(u, 0.375)
        op.step(u, 0.375, source=lambda t: np.ones((t.size, len(op.modes()) // 2 + 1)),
                substeps=1)
        assert op._stack.turned == []
        assert len([c for c, _ in op._stack.classes if np.count_nonzero(c) > 1]) == (
            0 if dim == 1 else 3)
        for c, _ in op._stack.classes:
            want = expm(0.375 * op._generator(c))
            got = op._rep(c, 0.375)
            if tr.is_narrow(N) or not any(c):
                assert got.tobytes() == want.tobytes(), (N, c)
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (N, c)


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
# its generator, each block wider than 1 in the real frame D^-1 A D with
# D = diag(i^l); narrow ones take one dense expm.

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
    P = op._exp(k, h, op._generator(k))
    Q = _dense_oracle(k, N, eps, sigma, sigma_a, h)
    assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q))
    if k == (0, 0, 0):
        # A diagonal generator: 1-wide blocks take np.exp, as scipy's dense
        # diagonal path does.
        assert P.tobytes() == Q.tobytes()


@given(
    k=st.one_of(st.sampled_from(_BLOCK_KS), st.tuples(*[st.integers(-3, 3)] * 3)),
    N=st.integers(1, 12),
    eps=st.floats(0.1, 2.0),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    absorb=st.floats(0.0, 1.0),
    h=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
)
@example(k=(1, 0, 0), N=12, eps=0.5, sigma=0.0, absorb=0.0, h=1.0)
@example(k=(2, -1, 3), N=7, eps=1.0, sigma=1.0, absorb=0.2, h=0.375)
@settings(max_examples=40)
def test_real_frame_generator_is_real(k, N, eps, sigma, absorb, h):
    # Streaming couples degree l only to l +- 1 through -i times a real
    # matrix and the diagonal is real, so D^-1 (h L_k) D, D = diag(i^l), has
    # imaginary part exactly 0: taking its real part, as PnOperator._exp
    # does, drops nothing.
    A = h * tr.assemble_mode_operator(k, N, eps, sigma, sh.assemble_coupling(N),
                                      absorb * sigma)
    d = np.array([1, 1j, -1, -1j])[sh.moment_degrees(N) % 4]
    assert np.all((d.conj()[:, None] * A * d[None, :]).imag == 0.0)


def _block_stacks(k, N):
    L = tr.assemble_mode_operator(k, N, 0.5, 1.0, sh.assemble_coupling(max(N, 1)), 0.25)
    return oracles.connected_blocks(L)


@pytest.mark.parametrize("N", list(range(17)) + [20, 28])
def test_symmetry_blocks_match_connected_blocks_oracle(N):
    # The blocks PnOperator._exp takes come from the symmetries of k's
    # pattern of zeros, with no search: index stacks equal to the connected
    # components of the generator's nonzeros, for every pattern, a
    # representative's four (k = 0, (a,0,0), (a,b,0), (a,b,c)) included.
    for nonzero in itertools.product((False, True), repeat=3):
        got = tr._generator_blocks(N, nonzero)
        assert not any(idx.flags.writeable for idx in got)
        for scale in ((1, 2, 3), (-3, 1, -1), (2, 2, 2)):
            k = tuple(x if f else 0 for x, f in zip(scale, nonzero))
            want = _block_stacks(k, N)
            assert len(got) == len(want), k
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), k


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
        calls.append((A.shape, A.dtype.kind))
        return real(A)

    monkeypatch.setattr(tr, "expm", counting)
    h = 0.375
    # At N = 3 (16 moments, narrow) one dense expm per orbit, byte for byte,
    # on the axis and off it.
    op = tr.PnOperator(gr.SpatialGrid(1, 3), 3, 0.5, 1.0, 0.25)
    for c in ((1, 0, 0), (0, 0, 0), (1, 1, 0), (2, 1, 1)):
        calls.clear()
        P = op._rep(c, h)
        assert calls == [((op.nm, op.nm), "c")]
        assert P.tobytes() == real(h * op._generator(c)).tobytes()
    # At N = 4 (25 moments, wide) one stacked real expm per block width.
    op = tr.PnOperator(gr.SpatialGrid(1, 3), 4, 0.5, 1.0, 0.25)
    assert not tr.is_narrow(4) and tr.is_narrow(3)
    calls.clear()
    P = op._rep((1, 0, 0), h)
    widths = [idx.shape[1] for idx in _block_stacks((1, 0, 0), 4)]
    assert [s[1] for s, _ in calls] == widths and all(s[1] == s[2] for s, _ in calls)
    assert sum(s[0] for s, _ in calls) == 4 and {kind for _, kind in calls} == {"f"}
    Q = real(h * op._generator((1, 0, 0)))
    assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q))
    op._rep((1, 0, 0), h)
    assert len(calls) == len(widths)
    # On the z axis the |m| = 4 blocks are 1 wide and stay complex.
    calls.clear()
    op._exp((0, 0, 1), h, op._generator((0, 0, 1)))
    assert [(s[1], kind) for s, kind in calls] == [(1, "c")] + [(w, "f") for w in range(2, 6)]
    # The z axis is not a cubic representative: a step of its modes takes
    # the propagator of (1, 0, 0) alone and turns their vectors.
    op = tr.PnOperator(gr.SpatialGrid(3, 3), 4, 0.5, 1.0, 0.25)
    e = np.zeros(op.nm)
    e[sh.ordinal(1, 0)] = 1.0
    calls.clear()
    P = op.step(_one_hot(op, (0, 0, 1), e), h)[op.grid.index_of((0, 0, 1))]
    assert [s[1] for s, _ in calls] == widths
    Q = real(h * op._generator((0, 0, 1)))[:, sh.ordinal(1, 0)]
    assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q))
    # k = 0 is diagonal: one complex stack of 1-wide blocks, also for each
    # Duhamel node of a substep.
    calls.clear()
    taus = np.array([0.0, 0.125, 0.25])
    op._substep((0, 0, 0), h, taus, np.full(len(taus), h / len(taus)))
    assert calls == [((op.nm, 1, 1), "c")] * (1 + len(taus))


@pytest.mark.parametrize("N", [3, 5, 11])
def test_classes_take_dense_or_real_frame_exponentials_by_width(monkeypatch, N):
    # Up to N = 3 (tr.is_narrow) every representative, off the axis too,
    # takes one dense complex expm, byte for byte expm(h L_c).  Above it
    # every representative, k = 0 and the axis included, takes one stacked
    # expm per block width of its connected blocks, real for blocks wider
    # than 1 and complex for the 1-wide ones of k = 0, within 1e-12 of the
    # dense expm.  Both for a step's propagator and for each Duhamel node of
    # a substep, of which the e_0 column is kept.
    calls = []
    real = tr.expm

    def counting(A):
        calls.append((A.shape, A.dtype.kind))
        return real(A)

    monkeypatch.setattr(tr, "expm", counting)
    eps, sigma, sigma_a, h = 0.5, 1.0, 0.25, 0.375
    x, w = tr._duhamel_rule()
    taus, wts = 0.5 * h * (x + 1.0), 0.5 * h * w
    op = tr.PnOperator(gr.SpatialGrid(3, 5), N, eps, sigma, sigma_a)
    classes = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1), (2, 2, 1)]
    assert {c for c, _ in op._stack.classes} >= set(classes)

    def groups(c):
        """(scipy calls, [(propagator or e_0 column, length)]) of c's step
        propagator, then of a substep's propagator and its Duhamel nodes."""
        calls.clear()
        step = [(op._rep(c, h), h)]
        taken = list(calls)
        calls.clear()
        P, cols, _ = op._substep(c, 2 * h, taus, wts)
        substep = [(P, 2 * h)] + [(col, float(2 * h - tau)) for col, tau in zip(cols, taus)]
        return [(taken, step), (list(calls), substep)]

    def cut(Q, P):
        """Q, or its e_0 column where P is a node's column."""
        return Q if P.ndim == 2 else Q[:, 0]

    for c in classes:
        if tr.is_narrow(N):
            for taken, props in groups(c):
                assert taken == [((op.nm, op.nm), "c")] * len(props), c
                for P, t in props:
                    assert P.tobytes() == cut(real(t * op._generator(c)), P).tobytes(), c
            continue
        stacks = _block_stacks(c, N)
        blocks = {0: op.nm, 1: 4, 2: 2, 3: 1}[np.count_nonzero(c)]
        assert sum(idx.shape[0] for idx in stacks) == blocks, c
        per_width = [((idx.shape[1],) * 2, "c" if idx.shape[1] == 1 else "f") for idx in stacks]
        for taken, props in groups(c):
            assert [(shape[1:], kind) for shape, kind in taken] == per_width * len(props), c
            for P, t in props:
                Q = cut(_dense_oracle(c, N, eps, sigma, sigma_a, t), P)
                assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q)), c


# (eps, sigma, sigma_a, h): a mild step, then the stiff ones of
# hybrid-dt-diffusive, its references' one step to T = 1 and a Duhamel
# substep of its hybrid, h = 1/280.
_FRAME_SETTINGS = [(1.0, 1.0, 0.2, 0.5), (0.05, 1.0, 0.0, 1.0), (0.05, 1.0, 0.0, 1 / 280)]


@pytest.mark.parametrize("N,k", [(17, (1, 0, 0)), (17, (1, 1, 0)), (17, (0, 0, 1)),
                                 (17, (2, 1, 1)), (20, (1, 0, 0)), (24, (1, 0, 0)),
                                 (28, (1, 0, 0))]
                         + list(itertools.product((4, 5, 8, 12, 13, 16),
                                                  [(1, 0, 0), (2, 0, 0)])))
def test_real_frame_exponential_matches_dense_oracle(N, k):
    # The widths the P_N references reach: every split propagator against
    # the dense complex expm of the whole generator.  The on-axis classes of
    # N = 4 to 16, every class of the 1D references, also in the stiff
    # settings; above that the mild one alone, which keeps the 324- to
    # 841-wide dense oracles to one each.
    assert not tr.is_narrow(N)
    for eps, sigma, sigma_a, h in _FRAME_SETTINGS if N <= 16 else _FRAME_SETTINGS[:1]:
        op = tr.PnOperator(gr.SpatialGrid(3, 5), N, eps, sigma, sigma_a)
        with blas.single_thread():
            P = op._rep(k, h)
            Q = _dense_oracle(k, N, eps, sigma, sigma_a, h)
        assert np.max(np.abs(P - Q)) <= 1e-12 * np.max(np.abs(Q)), (eps, h)


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
        op.step(u, h, source=lambda t: np.zeros((t.size, 2)))


@pytest.mark.parametrize("field,value,message", [
    ("substeps", None, "must be given with a source"),
    ("substeps", 0, "must be positive"), ("substeps", -1, "must be positive"),
    ("substeps", 2.5, "must be an integer"), ("substeps", True, "must be an integer"),
    ("t0", math.nan, "must be finite"), ("t0", math.inf, "must be finite"),
    ("t0", -math.inf, "must be finite"),
])
def test_sourced_step_rejects_bad_substeps_and_start(field, value, message):
    # Unchecked, substeps = 0 would divide by zero, 2.5 fail inside range(),
    # -1 return the input unchanged, and a non-finite t0 make every moment
    # the source reaches non-finite.  None once took a count from the
    # operator's fastest rate alone, too few substeps for the hybrid's drive.
    op = tr.PnOperator(gr.SpatialGrid(1, 3), 2, 1.0, 1.0)
    u = np.ones(op.grid.shape + (op.nm,), dtype=complex)
    with pytest.raises(ValueError, match=f"^{field} {message}"):
        op.step(u, 0.5, source=lambda t: np.zeros((t.size, 2)), **{field: value})
    if field == "t0":
        q = gr.term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, (1.0,), time_poly=(1.0, 0.5),
                    time_exp=-1.0)
        with pytest.raises(ValueError, match=f"^t0 {message}"):
            tr.SourcedModes(op, [q]).step(u, 0.5, value)


# ---------------------------------------------------------------------------
# Exact-in-time sources, against the Gauss-Legendre Duhamel quadrature of
# any source's moments kept in oracles.dense_step, and the loop
# solve_uncollided used to run.

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
        amps = {}
        for k in ks:  # no two of _SOURCE_KS are each other's -k
            amps[k] = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
            amps[tuple(-x for x in k)] = amps[k].conjugate()
        terms.append(gr.term(amps, ang, time_poly=poly, time_exp=mu))
    return terms


@given(data=st.data(), N=st.integers(1, 5), eps=st.floats(0.5, 2.0),
       sigma=st.floats(0.0, 2.0), absorb=st.floats(0.0, 1.0),
       T=st.floats(0.05, 1.0))
@settings(max_examples=25)
def test_exact_source_matches_quadrature_oracle(data, N, eps, sigma, absorb, T):
    sigma_a = absorb * sigma
    q = data.draw(_source_terms(sigma, sigma_a, eps))
    g = [gr.term({(0, 0, 0): 1.0, (0, 1, 1): 0.5j, (0, -1, -1): -0.5j}, (1.0, 0.2, -0.3, 0.1))]
    spec = tr.problem("q", eps, sigma, g, q=q, sigma_a=sigma_a, T=T)
    t_mid = T / 3.0  # a second step starting at t0 > 0
    sourced = tr.SourcedModes(tr.PnOperator(_GRID3, N, eps, sigma, sigma_a), q)

    op = tr.PnOperator(_GRID3, N, eps, sigma, sigma_a)
    sampler = oracles.source_sampler(spec, _GRID3, N)
    fastest = max(abs(tm.time_exp) for tm in q)
    got = u = tr.initial_field(spec, _GRID3, N).coeffs
    for t0, t1 in ((0.0, t_mid), (t_mid, spec.t_final)):
        h = t1 - t0
        got = sourced.step(got, h, t0)
        u = oracles.dense_step(op, u, h, source=sampler, t0=t0,
                               substeps=4 * tr.duhamel_substeps(op.max_rate + fastest, h))
        assert np.max(np.abs(got - u)) <= 1e-12 * np.max(np.abs(u))


def test_solve_pn_integrates_source_without_quadrature(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_pn must not run the Duhamel quadrature")

    monkeypatch.setattr(tr, "duhamel_substeps", forbidden)
    monkeypatch.setattr(tr, "_duhamel_rule", forbidden)
    q = [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, time_poly=(1.0, 2.0),
                           time_exp=-0.5)]
    spec = tr.problem("q", 0.5, 1.0, [_iso_cosine()], q=q, T=1)
    assert np.all(np.isfinite(tr.solve_pn(spec, 3).final.coeffs))


def test_modes_without_source_are_unchanged():
    g = [gr.term({(0, 0, 0): 1.0, (1, 2, 0): 0.5, (-1, -2, 0): 0.5,
                  (2, 1, 0): 0.25, (-2, -1, 0): 0.25}, (1.0, 0.3, -0.2, 0.1))]
    q = [gr.term({(1, 0, 0): 1.0, (-1, 0, 0): 1.0}, (1.0, 0.0, 0.5, 0.0),
                 time_poly=(0.5, 1.0))]
    grid = gr.SpatialGrid(2, 5)
    bare = tr.problem("bare", 0.7, 1.2, g, sigma_a=0.3, T=1)
    forced = tr.problem("forced", 0.7, 1.2, g, q=q, sigma_a=0.3, T=1)
    a = tr.solve_pn(bare, 4, grid=grid).final.coeffs
    b = tr.solve_pn(forced, 4, grid=grid).final.coeffs
    for k in ((1, 0, 0), (-1, 0, 0)):
        reached = grid.index_of(k)
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
    want = oracles.source_response(_half(lam), tm, a, a + h) * flow.profiles[0][1]
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
    "2d": ({(1, 2, 0): 0.3j, (-1, -2, 0): -0.3j, (0, 1, 0): 0.4, (0, -1, 0): 0.4}, 0.8, 2.0,
           0.0),
    "3d": ({(1, -1, 1): 0.5, (-1, 1, -1): 0.5, (0, 0, 1): 0.2 + 0.1j, (0, 0, -1): 0.2 - 0.1j},
           0.7, 1.2, 0.3),
    "sigma0": ({(1, 0, 0): 0.5, (-1, 0, 0): 0.5, (-1, 0, 1): 0.25j, (1, 0, -1): -0.25j}, 1.0,
               0.0, 0.0),
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
    assert flow.index.shape == _half(lam).shape and flow.index.dtype == np.intp
    assert flow.distinct[flow.index].tobytes() == _half(lam).tobytes()
    assert flow.distinct.size < _half(lam).size
    with pytest.raises(ValueError):
        flow.distinct[0] = 0.0
    with pytest.raises(ValueError):
        flow.index[0, 0] = 0
    assert all(tm is term for (tm, _), term in zip(flow.profiles, q, strict=True))
    with pytest.raises(ValueError):
        flow.profiles[0][1][0, 0] = 0.0
    z = np.abs((lam + mu) * (b - a))
    assert np.any(z == 0.0) and np.any(z >= tr.PHI_SERIES_BELOW)
    if sigma == 0.0:
        assert np.any(lam == 0.0)

    bare = tr.uncollided_flow(grid, quad, eps, sigma, sigma_a)
    assert bare.profiles == ()
    # The full box's nodal profiles, for the full-array formula.
    q_full = [(tm, gr.nodal_field(grid, quad, [replace(tm, time_poly=(1.0,), time_exp=0.0)]).values)
              for tm in q]
    rng = np.random.default_rng(7)
    values = rng.standard_normal(lam.shape) + 1j * rng.standard_normal(lam.shape)
    state = gr.nodal_field(grid, quad, g)
    for fl, q_terms in ((flow, q), (bare, ())):
        for start, got in ((values, fl.advance(values, a, b)),
                           (state.values, tr.solve_uncollided(
                               state, a, b, eps, sigma, sigma_a, q_terms).values)):
            want = _full_uncollided_values(start, lam, a, b, q_full if fl.profiles else ())
            on_half = got.ndim == 2  # advance returns H alone
            if on_half:
                want = _half(want)
            if fl.profiles:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            else:
                # H keeps the formula's bytes; outside it the conjugates equal
                # the formula's values, the sign of a zero imaginary part aside.
                half = (lambda x: x) if on_half else _half
                assert half(got).tobytes() == half(want).tobytes()
                assert np.array_equal(got, want)


@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_conjugate_pair_decay_matches_full_array_formula_bytes(sigma):
    # A 3D grid whose rates include imaginary part 0 (k = 0, and k
    # orthogonal to a node) and, at sigma = 0, real part 0, so that -lam h
    # of a pair differ in the sign of a zero.  advance takes one exp per
    # conjugate pair and fills the partner with conj: byte for byte the
    # full-array exp at every time.
    grid, quad, eps = gr.SpatialGrid(3, 5), sh.build_sphere_quadrature(6), 0.7
    lam = _half(_full_rates(grid, quad, eps, sigma, 0.1 * sigma))
    flow = tr.uncollided_flow(grid, quad, eps, sigma, 0.1 * sigma)
    n, pairs = flow.distinct.size, flow.pairs
    assert pairs > 0
    lead, partner = flow.distinct[n - 2 * pairs:n - pairs], flow.distinct[n - pairs:]
    assert np.all(lead.imag > 0.0) and partner.tobytes() == np.conj(lead).tobytes()
    assert np.any(lam.imag == 0.0) and np.any(flow.distinct[:n - 2 * pairs].imag == 0.0)
    assert flow.distinct[flow.index].tobytes() == lam.tobytes()
    rng = np.random.default_rng(3)
    shape = grid.shape + (len(quad),)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for a, b in [(0.0, 0.0), (0.3, 2.3)] + [(0.0, t) for t in np.linspace(0.05, 40.0, 96)]:
        want = _half(values) * np.exp(-lam * (b - a))
        assert flow.advance(values, a, b).tobytes() == want.tobytes(), (a, b)


def test_diffusive_hybrid_sweep_takes_each_distinct_rate_once():
    # The hybrid-dt-diffusive config: iso-smooth, N = 3, eps = 0.05,
    # sigma_t = 1, measured on the quadrature of its degree-12 reference.
    mf = hs.manufactured("iso-smooth", eps=0.05, sigma_t=1.0)
    grid = tr.default_grid(mf.spec)
    quad = hs.measurement_quadrature(mf, hs.reference_degree(3), 1.0)
    flow = tr.uncollided_flow(grid, quad, 0.05, 1.0)
    # The half-space H, k = 0 and k = (1, 0, 0), has 433 distinct rates,
    # the real rate of k = 0 and 55 conjugate pairs among them: 378
    # complex exps per advance.
    assert flow.index.shape == (2, 968)
    assert flow.distinct.size == 433
    assert flow.pairs == 55


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_solve_diffusion_rejects_bad_time(t):
    # t = nan once returned nan, and t = -1 values growing in time.
    spec = tr.problem("d", eps=0.25, sigma_t=1.0, g=[_iso_cosine()], T=1)
    with pytest.raises(ValueError, match="^t must be finite and nonnegative"):
        tr.solve_diffusion(spec, t)

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnhybrid import grid as gr
from pnhybrid import harmonics as sh

import oracles


def test_grid_shape_and_wavenumbers():
    g = gr.SpatialGrid(dim=2, modes=5)
    assert g.shape == (5, 5, 1)
    assert g.shape is g.shape  # computed once, not rebuilt per read
    assert g.kmax == 2
    assert list(g.wavenumbers(0)) == [-2, -1, 0, 1, 2]
    assert list(g.wavenumbers(2)) == [0]
    assert g.index_of((1, -2, 0)) == (3, 0, 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        gr.SpatialGrid(dim=0, modes=3)
    with pytest.raises(ValueError):
        gr.SpatialGrid(dim=1, modes=4)
    g = gr.SpatialGrid(dim=1, modes=3)
    with pytest.raises(ValueError):
        g.index_of((2, 0, 0))  # beyond the band
    with pytest.raises(ValueError):
        g.index_of((0, 1, 0))  # inactive axis


@pytest.mark.parametrize("dim,modes,name", [
    (True, 3, "dim"), (1, True, "modes"), (1, 3.0, "modes"), (2.0, 3, "dim"), ("1", 3, "dim"),
])
def test_grid_rejects_non_integer_sizes(dim, modes, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        gr.SpatialGrid(dim, modes)


def test_term_validation_and_time_factor():
    tm = gr.term({(1, 0, 0): 0.5}, [1.0, 0.0, 0.0, 2.0], time_poly=(1.0, 3.0), time_exp=-2.0)
    assert tm.angular_degree == 1
    assert tm.time_value(0.0) == pytest.approx(1.0)
    assert tm.time_value(0.5) == pytest.approx((1.0 + 1.5) * math.exp(-1.0), rel=1e-15)
    with pytest.raises(ValueError):
        gr.term({(0, 0, 0): 1.0}, [1.0, 2.0])  # length 2 is not a square


@pytest.mark.parametrize("field,kwargs", [
    ("spatial amplitude", dict(spatial={(1, 0, 0): math.nan})),
    ("spatial amplitude", dict(spatial={(1, 0, 0): complex(1.0, math.inf)})),
    ("angular", dict(angular=(1.0, 0.0, math.nan, 0.0))),
    ("time_poly", dict(time_poly=(1.0, math.inf))),
    ("time_exp", dict(time_exp=math.inf)),
    ("time_exp", dict(time_exp=math.nan)),
])
def test_term_rejects_non_finite(field, kwargs):
    args = dict(spatial={(1, 0, 0): 0.5}, angular=(1.0, 0.0, 0.0, 0.0))
    args.update(kwargs)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        gr.term(**args)


@pytest.mark.parametrize("field,kwargs", [
    ("angular", dict(angular=(1j,))),
    ("angular", dict(angular=(1.0, 0.0, 0.5 + 0j, 0.0))),
    ("time_poly", dict(time_poly=(1.0, 2j))),
    ("time_exp", dict(time_exp=1j)),
])
def test_term_refuses_non_real_values(field, kwargs):
    # time_exp = 1j was accepted and raised TypeError inside transport.problem;
    # only the spatial amplitudes may be complex.
    args = dict(spatial=(((1, 0, 0), 0.5 + 0.5j),), angular=(1.0,))
    args.update(kwargs)
    with pytest.raises(ValueError, match=f"^{field} must be real, got "):
        gr.FieldTerm(**args)


def test_term_refuses_an_empty_time_polynomial():
    # An empty polynomial once read as zero in solve_pn and data_norms but
    # raised TypeError inside run_hybrid's uncollided advance.
    with pytest.raises(ValueError, match=r"^time_poly must have a coefficient, got \(\)$"):
        gr.term({(1, 0, 0): 0.5}, (1.0,), time_poly=())
    with pytest.raises(ValueError, match="^time_poly must have a coefficient"):
        gr.FieldTerm(spatial=(((1, 0, 0), 0.5),), angular=(1.0,), time_poly=())


def test_term_time_derivatives_by_horner():
    tm = gr.term({(1, 0, 0): 0.5}, (1.0,), time_poly=(0.3, -1.0, 0.5, 2.0), time_exp=0.7)
    assert tm.time_derivative_polys == ((0.3, -1.0, 0.5, 2.0), (-1.0, 1.0, 6.0),
                                        (1.0, 12.0), (12.0,))
    t = 0.45
    assert tm.time_derivatives(t) == pytest.approx(
        [0.3 - t + 0.5 * t**2 + 2.0 * t**3, -1.0 + t + 6.0 * t**2, 1.0 + 12.0 * t, 12.0],
        rel=1e-15)
    assert tm.time_value(t) == pytest.approx(tm.time_derivatives(t)[0] * math.exp(0.7 * t),
                                             rel=1e-15)
    assert gr.term({(1, 0, 0): 0.5}, (1.0,)).time_derivatives(2.0) == [1.0]


def test_grid_for_terms():
    tms = [gr.term({(2, 0, 0): 1.0}, [1.0]), gr.term({(0, -1, 0): 1.0}, [1.0])]
    g = gr.grid_for(tms)
    assert g.dim == 2
    assert g.modes == 5


def test_moment_field_from_terms_and_norm():
    # cos(x1) as half-amplitude modes at k = +-1, isotropic in angle.
    g = gr.SpatialGrid(dim=1, modes=3)
    tms = [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})]
    f = gr.moment_field(g, 3, tms)
    # ||cos(x1)||^2 over [0,2pi) is pi; the angular factor 1 contributes 4pi.
    expect = math.sqrt(math.pi * 4.0 * math.pi)
    assert gr.l2_norm(f) == pytest.approx(expect, rel=1e-14)
    assert gr.reality_residual(f) == 0.0
    # Entries whose squares overflow, in a norm that does not: scaled sums.
    big = f.scale(1e300)
    assert gr.l2_norm(big) == pytest.approx(1e300 * expect, rel=1e-14)
    quad = sh.build_sphere_quadrature(4)
    nodal = gr.evaluate_field(big, quad)
    assert gr.l2_norm(nodal) == pytest.approx(1e300 * expect, rel=1e-13)
    # A norm past the float range is inf.
    huge = gr.MomentField(g, 3, np.full(f.coeffs.shape, 1.5e308, dtype=complex))
    assert gr.l2_norm(huge) == math.inf


def test_moment_field_band_rejection():
    g = gr.SpatialGrid(dim=1, modes=3)
    with pytest.raises(ValueError):
        gr.moment_field(g, 1, [gr.isotropic_term({(2, 0, 0): 1.0})])
    with pytest.raises(ValueError):
        # angular degree 2 does not fit N = 1
        gr.moment_field(g, 1, [gr.term({(0, 0, 0): 1.0}, [0.0] * 9)])


def test_l2_norm_nodal_matches_moment():
    rng = np.random.default_rng(2)
    g = gr.SpatialGrid(dim=1, modes=3)
    N = 4
    quad = sh.build_sphere_quadrature(N + 1)
    shape = g.shape + (sh.n_moments(N),)
    coeffs = oracles.hermitian(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f = gr.MomentField(g, N, coeffs)
    nodal = gr.evaluate_field(f, quad)
    assert gr.l2_norm(nodal) == pytest.approx(gr.l2_norm(f), rel=1e-13)
    back = gr.project_field(nodal, N)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


def test_hs_seminorm_weights():
    g = gr.SpatialGrid(dim=1, modes=1)
    N = 3
    coeffs = np.zeros(g.shape + (sh.n_moments(N),), dtype=complex)
    coeffs[0, 0, 0, sh.ordinal(2, -1)] = 1.0
    f = gr.MomentField(g, N, coeffs)
    vol = math.sqrt(2.0 * math.pi)
    assert gr.hs_seminorm(f, 0) == pytest.approx(vol, rel=1e-14)
    assert gr.hs_seminorm(f, 2) == pytest.approx(vol * 2.5**2, rel=1e-14)
    # Degree below s drops out.
    coeffs2 = np.zeros_like(coeffs)
    coeffs2[0, 0, 0, sh.ordinal(1, 0)] = 1.0
    f2 = gr.MomentField(g, N, coeffs2)
    assert gr.hs_seminorm(f2, 2) == 0.0


def test_hrs_seminorm_counts_ordered_tuples():
    # For f = cos(x1) in d = 2, the derivative tuples over (x1, x2) of order 2
    # contribute only (1,1); the seminorm equals |d^2 f|.
    g = gr.SpatialGrid(dim=2, modes=3)
    tms = [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})]
    f = gr.moment_field(g, 2, tms)
    base = gr.hs_seminorm(f, 0)
    assert gr.hrs_seminorm(f, 0, 0) == pytest.approx(base, rel=1e-14)
    assert gr.hrs_seminorm(f, 1, 0) == pytest.approx(base, rel=1e-14)
    assert gr.hrs_seminorm(f, 2, 0) == pytest.approx(base, rel=1e-14)
    # A mode with k = (1, 1, 0): order-1 tuples give 2 axes, each |k_i| = 1.
    tms2 = [gr.isotropic_term({(1, 1, 0): 1.0})]
    f2 = gr.moment_field(g, 2, tms2)
    b2 = gr.hs_seminorm(f2, 0)
    assert gr.hrs_seminorm(f2, 1, 0) == pytest.approx(2.0 * b2, rel=1e-14)
    # Order 2: tuples (1,1),(1,2),(2,1),(2,2) all give |k_i k_j| = 1.
    assert gr.hrs_seminorm(f2, 2, 0) == pytest.approx(4.0 * b2, rel=1e-14)


def test_hrs_seminorm_reads_the_wavenumbers_once(monkeypatch):
    g = gr.SpatialGrid(dim=3, modes=5)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(g.shape + (sh.n_moments(2),)) + 0j
    f = gr.MomentField(g, 2, coeffs)
    # Oracle: the weights rebuilt from k_norm2 for every derivative tuple;
    # the seminorm must match it bit for bit.
    kk = [k.astype(float) for k in g.k_grids()]
    want = 0.0
    for combo in itertools.product(range(3), repeat=3):
        w = np.ones_like(g.k_norm2())
        for ax in combo:
            w = w * kk[ax]
        want += gr.hs_seminorm(gr.MomentField(g, 2, coeffs * w[..., None]), 1)
    calls = []
    real = gr.SpatialGrid.k_grids

    def k_grids(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(gr.SpatialGrid, "k_grids", k_grids)
    assert gr.hrs_seminorm(f, 3, 1) == want
    # One read of the wavenumbers for the 27 tuples; k_norm2 would be another.
    assert len(calls) == 1


def test_scalar_flux_of_isotropic_field():
    g = gr.SpatialGrid(dim=1, modes=3)
    tms = [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})]
    f = gr.moment_field(g, 1, tms)
    flux = gr.scalar_flux(f)
    # The spherical average of the constant 1 is 1, so flux = cos coefficients.
    assert flux[g.index_of((1, 0, 0))] == pytest.approx(0.5, rel=1e-14)
    assert flux[g.index_of((0, 0, 0))] == 0.0


def test_field_arithmetic_checks_discretization():
    g = gr.SpatialGrid(dim=1, modes=3)
    f = gr.zero_moment_field(g, 2)
    h = gr.zero_moment_field(g, 3)
    with pytest.raises(ValueError):
        _ = f + h
    t = f.truncate(3)
    assert t.N == 3
    assert (t + h).N == 3


def test_nodal_fields_add_only_on_the_same_quadrature():
    g = gr.SpatialGrid(dim=1, modes=3)
    terms = [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})]
    quad = sh.build_sphere_quadrature(3)
    a = gr.nodal_field(g, quad, terms)
    # An equal rule built again adds like the same object.
    b = gr.nodal_field(g, sh.build_sphere_quadrature(3), terms)
    assert np.array_equal((a + b).values, 2.0 * a.values)
    # Same node count, other nodes: the azimuths turned by a quarter step.
    turn = math.pi / 12.0
    rot = np.array([[math.cos(turn), -math.sin(turn), 0.0],
                    [math.sin(turn), math.cos(turn), 0.0],
                    [0.0, 0.0, 1.0]])
    turned = sh.SphereQuadrature(quad.nodes @ rot.T, quad.weights, quad.exactness)
    assert len(turned) == len(quad)
    c = gr.nodal_field(g, turned, terms)
    with pytest.raises(ValueError, match="quadratures"):
        _ = a + c
    with pytest.raises(ValueError, match="quadratures"):
        _ = a - c


# ---------------------------------------------------------------------------
# The half-space H (k = 0 and every k whose first nonzero component is
# positive) and the conjugate fill of the other modes.


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_half_space_is_the_lexicographically_nonnegative_modes(dim):
    g = gr.SpatialGrid(dim, 5)
    ks = np.stack(np.broadcast_arrays(*g.k_grids()), axis=-1).reshape(-1, 3)
    half = gr.half_space(ks)
    assert tuple(half[0]) == (0, 0, 0) and len(half) == (len(ks) + 1) // 2
    assert all(next(x for x in k if x != 0) > 0 for k in half[1:].tolist())
    # -k of row i is row n - 1 - i.
    assert np.array_equal(ks[::-1], -ks)


def test_fill_conjugates_completes_a_hermitian_box():
    rng = np.random.default_rng(3)
    shape = gr.SpatialGrid(3, 3).shape + (4,)
    u = oracles.hermitian(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    rows = u.reshape(-1, 4)
    # Garbage below k = 0 is replaced by the conjugates of H, byte for byte.
    filled = rows.copy()
    filled[:len(rows) // 2] = np.nan
    assert gr.fill_conjugates(filled) is filled and filled.tobytes() == rows.tobytes()
    assert gr.from_half(gr.half_space(rows), shape).tobytes() == u.tobytes()
    gr.require_hermitian("u", rows)


@given(dim=st.integers(1, 3), modes=st.sampled_from([1, 3, 5]), degree=st.integers(0, 3),
       nodal=st.booleans(), hermitian=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_reality_residual_matches_the_axis_by_axis_flip(dim, modes, degree, nodal,
                                                        hermitian, seed):
    # One algorithm measures the deviation from c(-k) = conj c(k), over the
    # flat rows; the oracle flips the box along each active axis in turn.
    # The two take the same float, exactly.
    grid = gr.SpatialGrid(dim, modes)
    if nodal:
        quad = sh.build_sphere_quadrature(degree + 1)
        n = len(quad)
    else:
        n = sh.n_moments(degree)
    rng = np.random.default_rng(seed)
    shape = grid.shape + (n,)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if hermitian:
        u = oracles.hermitian(u)
    field = gr.NodalField(grid, quad, u) if nodal else gr.MomentField(grid, degree, u)
    got = gr.reality_residual(field)
    assert got == oracles.reality_residual(field)
    assert (got == 0.0) == hermitian


@pytest.mark.parametrize("where", ["pair", "zero", "nan"])
def test_require_hermitian_refuses_a_box_that_is_not_real(where):
    shape = gr.SpatialGrid(2, 3).shape + (2,)
    rows = oracles.hermitian(np.arange(18.0).reshape(shape) * (1 + 1j)).reshape(-1, 2)
    if where == "pair":
        rows[0, 1] += 0.5
    elif where == "zero":
        rows[4, 0] += 0.25j  # k = 0 must be real
    else:
        rows[7, 0] = np.nan
    with pytest.raises(ValueError, match=r"^u must satisfy c\(-k\) = conj c\(k\), got a deviation"):
        gr.require_hermitian("u", rows)


@pytest.mark.parametrize("where", ["pair", "zero"])
def test_evaluate_and_project_refuse_a_field_that_is_not_hermitian(where):
    # Both fill the modes outside H as conjugates, so a field that is not
    # real in physical space would come back changed without a word.
    rng = np.random.default_rng(5)
    g = gr.SpatialGrid(2, 3)
    N = 2
    quad = sh.build_sphere_quadrature(N + 1)
    shape = g.shape + (sh.n_moments(N),)
    coeffs = oracles.hermitian(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    values = gr.evaluate_field(gr.MomentField(g, N, coeffs), quad).values.copy()
    k = (1, -1, 0) if where == "pair" else (0, 0, 0)
    coeffs[g.index_of(k)][1] += 1e-9j
    values[g.index_of(k)][2] += 1e-9j
    message = r"^{} must satisfy c\(-k\) = conj c\(k\), got a deviation of [12]e-09$"
    with pytest.raises(ValueError, match=message.format("coefficients")):
        gr.evaluate_field(gr.MomentField(g, N, coeffs), quad)
    with pytest.raises(ValueError, match=message.format("values")):
        gr.project_field(gr.NodalField(g, quad, values), N)


@pytest.mark.parametrize("spatial, message", [
    ({(1, 0, 0): 0.5}, r"got a\(1, 0, 0\) = \(0.5\+0j\) and a\(-1, 0, 0\) missing"),
    ({(1, 0, 0): 0.5j, (-1, 0, 0): 0.5j}, r"got a\(-1, 0, 0\) = 0.5j and a\(1, 0, 0\) = 0.5j"),
    ({(0, 0, 0): 1j}, r"got a\(0, 0, 0\) = 1j"),
], ids=["missing", "not-conjugate", "zero-not-real"])
def test_require_real_terms_refuses_one_sided_or_non_conjugate_amplitudes(spatial, message):
    with pytest.raises(ValueError, match=r"^q amplitudes must satisfy a\(-k\) = conj a\(k\), "
                                         + message):
        gr.require_real_terms("q", [gr.isotropic_term(spatial)])
    # Repeated wavevectors are summed before the comparison.
    gr.require_real_terms("q", [gr.term((((1, 0, 0), 0.25j), ((-1, 0, 0), -0.5j),
                                         ((1, 0, 0), 0.25j)), (1.0,))])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_evaluate_and_project_take_half_the_modes_and_keep_the_full_box_bits(dim):
    # On a field real in physical space, H and the conjugate fill give the
    # full-box basis products: byte for byte where the k3 axis is inactive
    # (numpy then takes one product per mode there too), to 1e-13 on 3D.
    rng = np.random.default_rng(4)
    g = gr.SpatialGrid(dim, 5)
    N = 5
    quad = sh.build_sphere_quadrature(N + 1)
    shape = g.shape + (sh.n_moments(N),)
    f = gr.MomentField(g, N, oracles.hermitian(rng.standard_normal(shape)
                                               + 1j * rng.standard_normal(shape)))
    nodal = gr.evaluate_field(f, quad)
    back = gr.project_field(nodal, N)
    for got, want in ((nodal.values, sh.evaluate_expansion(f.coeffs, quad)),
                      (back.coeffs, sh.project(nodal.values, N, quad))):
        if dim < 3:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

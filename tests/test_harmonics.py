import itertools
import math

import numpy as np
import pytest

from pnhybrid import harmonics as sh

import oracles


def test_ordinal_roundtrip():
    pos = 0
    for l in range(8):
        for k in range(-l, l + 1):
            assert sh.ordinal(l, k) == pos
            assert oracles.index_of(pos) == (l, k)
            pos += 1
    assert sh.n_moments(7) == pos
    assert sh.moment_degrees(7).tolist() == [oracles.index_of(p)[0] for p in range(pos)]


def test_ordinal_rejects_bad_index():
    with pytest.raises(ValueError):
        sh.ordinal(2, 3)
    with pytest.raises(ValueError):
        sh.ordinal(-1, 0)


def test_basis_frozen_values():
    # Constant harmonic and the three degree-one harmonics at axis directions.
    assert oracles.basis_eval(0, 0, [0.0, 0.0, 1.0]) == pytest.approx(
        0.28209479177387814, abs=1e-15
    )
    assert oracles.basis_eval(1, 0, [0.0, 0.0, 1.0]) == pytest.approx(
        0.4886025119029199, abs=1e-15
    )
    assert oracles.basis_eval(1, 1, [1.0, 0.0, 0.0]) == pytest.approx(
        0.4886025119029199, abs=1e-15
    )
    assert oracles.basis_eval(1, -1, [0.0, 1.0, 0.0]) == pytest.approx(
        0.4886025119029199, abs=1e-15
    )
    d = np.array([0.48, -0.6, 0.64])
    assert oracles.basis_eval(2, 0, d) == pytest.approx(0.07216159012977677, abs=1e-14)
    assert oracles.basis_eval(3, 2, d) == pytest.approx(-0.119879437749189, abs=1e-14)
    assert oracles.basis_eval(4, -3, d) == pytest.approx(-0.2251266474052274, abs=1e-14)
    assert oracles.basis_eval(5, 5, d) == pytest.approx(-0.04044022572799088, abs=1e-14)


@pytest.mark.parametrize("N", [0, 1, 6, 13])
def test_basis_matrix_keeps_the_bits_of_the_per_degree_trig(N):
    # cos(k phi) and sin(k phi) are taken once per order k; every entry is
    # the product it was when they were taken once per (l, k).
    nodes = sh.build_sphere_quadrature(N + 2).nodes
    ct = nodes[:, 2]
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    A = sh._legendre_normalized(N, ct, st)
    want = np.empty((len(nodes), sh.n_moments(N)))
    for l in range(N + 1):
        want[:, sh.ordinal(l, 0)] = A[l, 0]
        for k in range(1, l + 1):
            want[:, sh.ordinal(l, k)] = math.sqrt(2.0) * A[l, k] * np.cos(k * phi)
            want[:, sh.ordinal(l, -k)] = math.sqrt(2.0) * A[l, k] * np.sin(k * phi)
    assert sh.basis_matrix(N, nodes).tobytes() == want.tobytes()


def test_basis_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        oracles.basis_eval(1, 0, [0.0, 0.0, 1.1])


def test_degree_one_harmonics_are_direction_components():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((40, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    B = sh.basis_matrix(1, v)
    c = math.sqrt(3.0 / (4.0 * math.pi))
    assert np.allclose(B[:, sh.ordinal(1, 1)], c * v[:, 0], atol=1e-14)
    assert np.allclose(B[:, sh.ordinal(1, -1)], c * v[:, 1], atol=1e-14)
    assert np.allclose(B[:, sh.ordinal(1, 0)], c * v[:, 2], atol=1e-14)


def test_quadrature_weight_sum_and_polar_order_one():
    q = sh.build_sphere_quadrature(1)
    assert len(q) == 2
    assert float(np.sum(q.weights)) == pytest.approx(4.0 * math.pi, abs=1e-13)
    q = sh.build_sphere_quadrature(9)
    assert float(np.sum(q.weights)) == pytest.approx(4.0 * math.pi, abs=1e-12)
    assert np.all(q.weights > 0.0)
    assert q.exactness == 17


def test_quadrature_gram_identity():
    # Projection of the basis onto itself is the identity matrix.
    N = 9
    q = sh.build_sphere_quadrature(N + 1)  # exactness 2N+1 >= 2N
    B = sh.basis_matrix(N, q.nodes)
    G = (q.weights[:, None] * B).T @ B
    assert np.max(np.abs(G - np.eye(sh.n_moments(N)))) < 1e-12


def test_project_requires_exactness():
    q = sh.build_sphere_quadrature(3)  # exactness 5
    vals = np.ones(len(q))
    with pytest.raises(ValueError):
        sh.project(vals, 3, q)  # needs exactness 6


def test_project_evaluate_roundtrip():
    rng = np.random.default_rng(21)
    N = 6
    q = sh.build_sphere_quadrature(N + 1)
    u = rng.standard_normal(sh.n_moments(N))
    vals = sh.evaluate_expansion(u, q)
    back = sh.project(vals, N, q)
    assert np.max(np.abs(back - u)) < 1e-12


def test_project_constant_function():
    # The constant 1 has a single moment sqrt(4*pi) in slot (0,0).
    q = sh.build_sphere_quadrature(4)
    u = sh.project(np.ones(len(q)), 2, q)
    expect = np.zeros(sh.n_moments(2))
    expect[0] = math.sqrt(4.0 * math.pi)
    assert np.max(np.abs(u - expect)) < 1e-13


def test_coupling_matches_oracle_to_n9():
    N = 9
    quad = sh.build_sphere_quadrature(N + 1)
    cs = sh.assemble_coupling(N)
    orc = sh.coupling_oracle(N, quad)
    for ax in (1, 2, 3):
        for l in range(1, N + 1):
            diff = np.max(np.abs(cs.block(ax, l) - orc.block(ax, l)))
            assert diff < 1e-12, f"axis {ax} degree {l}: {diff}"


@pytest.mark.parametrize("N", [1, 5, 12])
def test_coupling_cache_is_read_only_fresh_and_nested(N):
    # Each degree's blocks are built once per process and shared read-only:
    # byte for byte a fresh build, and the first N blocks of every larger set.
    cs, wider = sh.assemble_coupling(N), sh.assemble_coupling(N + 4)
    for ax in range(3):
        assert len(cs.blocks[ax]) == N
        assert all(a is b for a, b in zip(cs.blocks[ax], wider.blocks[ax][:N]))
        for l, a in enumerate(cs.blocks[ax], start=1):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
            fresh = sh._coupling_degree.__wrapped__(l)[ax]
            assert a.dtype == fresh.dtype and a.shape == fresh.shape
            assert a.tobytes() == fresh.tobytes()
    # The blocks are written ladder by ladder with array operations, byte
    # for byte the entry-by-entry fill.
    for l in range(1, 29):
        for a, want in zip(sh._coupling_degree(l), oracles.coupling_degree(l)):
            assert a.dtype == want.dtype and a.shape == want.shape
            assert a.tobytes() == want.tobytes()


def test_coupling_oracle_requires_exactness():
    quad = sh.build_sphere_quadrature(4)  # exactness 7
    with pytest.raises(ValueError):
        sh.coupling_oracle(4, quad)  # needs 9


def test_coupling_frozen_entries():
    cs = sh.assemble_coupling(5)
    # Degree 0 to degree 1 along axis 3.
    assert cs.block(3, 1)[0, 1] == pytest.approx(0.5773502691896257, abs=1e-15)
    assert cs.block(1, 3)[2 + 2, 1 + 3] == pytest.approx(-0.11952286093343936, abs=1e-14)
    assert cs.block(2, 4)[3 + 3, -2 + 4] == pytest.approx(0.0890870806374748, abs=1e-14)
    assert cs.block(3, 5)[4 + 4, 4 + 5] == pytest.approx(0.30151134457776363, abs=1e-14)
    assert cs.block(1, 2)[0 + 1, 1 + 2] == pytest.approx(0.4472135954999579, abs=1e-14)


def test_coupling_spectral_norms_bounded():
    cs = sh.assemble_coupling(12)
    assert cs.max_spectral_norm() <= 4.0
    for ax in (1, 2, 3):
        A = cs.full_matrix(ax)
        assert np.max(np.abs(A - A.T)) == 0.0
        # Streaming matrices have spectrum inside [-1, 1].
        assert np.max(np.abs(np.linalg.eigvalsh(A))) <= 1.0 + 1e-12


def test_full_matrix_reproduces_direction_multiplication():
    # Multiplying an expansion by Omega_i then truncating equals A^(i) @ u
    # plus degree N+1 leakage, so check on inputs of degree <= N-1.
    N = 5
    rng = np.random.default_rng(3)
    q = sh.build_sphere_quadrature(N + 2)
    cs = sh.assemble_coupling(N)
    u = np.zeros(sh.n_moments(N))
    u[: sh.n_moments(N - 1)] = rng.standard_normal(sh.n_moments(N - 1))
    vals = sh.evaluate_expansion(u, q)
    for ax in (1, 2, 3):
        prod = q.nodes[:, ax - 1] * vals
        proj = sh.project(prod, N, q)
        assert np.max(np.abs(proj - cs.full_matrix(ax) @ u)) < 1e-12


def test_angular_seminorm_and_norm():
    u = np.zeros(sh.n_moments(3))
    u[sh.ordinal(2, 1)] = 2.0
    # Single mode at degree 2: |u|_{H^s} = (2.5)^s * 2.
    assert oracles.angular_seminorm(u, 1) == pytest.approx(5.0, abs=1e-14)
    assert oracles.angular_seminorm(u, 2) == pytest.approx(12.5, abs=1e-13)
    # s = 0 reduces to the plain coefficient norm.
    assert oracles.angular_seminorm(u, 0) == pytest.approx(2.0, abs=1e-15)
    assert oracles.angular_norm(u, 1) == pytest.approx(math.sqrt(4.0 + 25.0), abs=1e-13)
    # Degrees below s drop out of the seminorm.
    v = np.zeros(sh.n_moments(3))
    v[sh.ordinal(1, 0)] = 7.0
    assert oracles.angular_seminorm(v, 2) == 0.0


def test_approximation_property_random_expansions():
    # ||(I-P_N) u|| <= (N+1)^(-s) |u|_{H^s} over random finite expansions.
    rng = np.random.default_rng(11)
    L = 15
    nm = sh.n_moments(L)
    for trial in range(1000):
        u = rng.standard_normal(nm)
        s = int(rng.integers(1, 4))
        for N in range(max(0, s - 1), L + 1, 3):
            tail = oracles.tail_moments(u, N)
            lhs = float(np.linalg.norm(tail))
            rhs = (N + 1.0) ** (-s) * oracles.angular_seminorm(tail, s)
            assert lhs <= rhs + 1e-13
            assert oracles.angular_seminorm(tail, s) <= oracles.angular_seminorm(u, s) + 1e-13


def test_norm_equivalence_sandwich_random():
    rng = np.random.default_rng(5)
    L = 12
    nm = sh.n_moments(L)
    for trial in range(1000):
        u = rng.standard_normal(nm)
        for s in (0, 1, 2, 3):
            c1, c2 = sh.equivalence_constants(s)
            full = oracles.angular_norm(u, s)
            alldeg = oracles.angular_norm_all_degrees(u, s)
            assert c1 * full <= alldeg * (1.0 + 1e-12)
            assert alldeg <= c2 * full * (1.0 + 1e-12)


def test_equivalence_constants_values():
    assert sh.equivalence_constants(0) == (1.0, 1.0)
    c1, c2 = sh.equivalence_constants(1)
    assert c1 == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    assert c2 == pytest.approx(1.118033988749895, abs=1e-15)


def test_project_moments_and_tail():
    u = np.arange(sh.n_moments(4), dtype=float)
    low = sh.project_moments(u, 2)
    assert low.shape == (9,)
    assert np.all(low == u[:9])
    tail = oracles.tail_moments(u, 2)
    assert np.all(tail[:9] == 0.0)
    assert np.all(tail[9:] == u[9:])
    up = sh.project_moments(low, 4)
    assert up.shape == u.shape
    assert np.all(up[9:] == 0.0)


def test_quadrature_basis_built_once_per_degree_and_read_only(monkeypatch):
    built = []
    real = sh.basis_matrix

    def counting(N, directions):
        built.append(N)
        return real(N, directions)

    monkeypatch.setattr(sh, "basis_matrix", counting)
    q = sh.build_sphere_quadrature(5)
    rng = np.random.default_rng(4)
    moments = rng.standard_normal((2, sh.n_moments(3)))
    for _ in range(3):
        values = sh.evaluate_expansion(moments, q)
        back = sh.project(values, 3, q)
        sh.project(values, 2, q)
    assert np.max(np.abs(back - moments)) < 1e-12
    assert built == [3, 2]
    B = q.basis(3)
    assert B is q.basis(3)
    assert np.array_equal(B, real(3, q.nodes))
    with pytest.raises(ValueError):
        B[0, 0] = 1.0
    # Another quadrature instance keeps its own bases.
    sh.build_sphere_quadrature(5).basis(3)
    assert built == [3, 2, 3]


_PERMS = list(itertools.permutations(range(3)))


@pytest.mark.parametrize("N", [0, 1, 4, 8])
def test_axis_permutation_blocks_act_on_the_basis(N):
    # Y(Pi Omega) = R Y(Omega) at directions off the projection's nodes, R
    # orthogonal, and the whole projection int Y(Pi Omega) Y(Omega)^T has
    # nothing off the degree blocks.
    rng = np.random.default_rng(N)
    dirs = rng.standard_normal((50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    B = sh.basis_matrix(N, dirs)
    quad = sh.build_sphere_quadrature(N + 1)
    for perm in _PERMS:
        blocks = sh.axis_permutation(N, perm)
        assert len(blocks) == N + 1
        R = np.zeros((sh.n_moments(N), sh.n_moments(N)))
        for l, block in enumerate(blocks):
            assert block.shape == (2 * l + 1, 2 * l + 1)
            assert np.max(np.abs(block @ block.T - np.eye(2 * l + 1))) <= 1e-14
            R[sh.degree_slice(l), sh.degree_slice(l)] = block
        moved = sh.basis_matrix(N, dirs[:, list(perm)])
        assert np.max(np.abs(moved - B @ R.T)) <= 1e-13, perm
        full = (sh.basis_matrix(N, quad.nodes[:, list(perm)]).T * quad.weights) @ quad.basis(N)
        assert np.max(np.abs(full - R)) <= 1e-14, perm


@pytest.mark.parametrize("N", [1, 5, 8])
def test_axis_permutation_turns_streaming_matrices(N):
    # R A(k) R^T = A(Pi k), (Pi k)_i = k_perm[i], for A(k) = sum_i k_i A^(i).
    from scipy.linalg import block_diag

    cs = sh.assemble_coupling(N)
    axes = [cs.full_matrix(i) for i in (1, 2, 3)]
    for k in [(1, 0, 0), (2, 1, 0), (1, 2, 3), (-3, 0, 2)]:
        A = sum(ki * Ai for ki, Ai in zip(k, axes))
        for perm in _PERMS:
            R = block_diag(*sh.axis_permutation(N, perm))
            moved = sum(k[p] * Ai for p, Ai in zip(perm, axes))
            assert np.max(np.abs(R @ A @ R.T - moved)) <= 1e-13, (k, perm)


def test_axis_permutation_blocks_cached_and_read_only(monkeypatch):
    built = []
    real = sh.build_sphere_quadrature
    monkeypatch.setattr(sh, "build_sphere_quadrature",
                        lambda n: built.append(n) or real(n))
    sh._axis_permutation.cache_clear()
    first = sh.axis_permutation(3, (1, 2, 0))
    assert sh.axis_permutation(3, [1, 2, 0]) is first
    assert built == [4]
    with pytest.raises(ValueError):
        first[1][0, 0] = 1.0


def test_axis_permutation_keeps_the_mean_exactly():
    # Y_0 is constant, so R_0 is exactly 1.  Projected by quadrature it came
    # out 1 - 9e-16 at N = 11, which scaled every turned mode's mean on
    # each step.
    for N in range(13):
        for perm in _PERMS:
            assert sh.axis_permutation(N, perm)[0].tolist() == [[1.0]], (N, perm)


def test_lattice_symmetries_fix_the_mean_like_axis_permutations():
    # Every signed permutation of the lattice keeps ordinal 0 with sign +1,
    # as every axis permutation keeps R_0 = 1, so an isotropic drive, which
    # reaches a mode through e_0 alone, enters each cubic class's frame as
    # it is.
    for N in (0, 1, 4, 9):
        for flips in itertools.product((False, True), repeat=3):
            for swap in (False, True):
                perm, sign = sh.lattice_symmetry(N, flips, swap)
                assert (perm[0], sign[0]) == (0, 1.0), (N, flips, swap)


@pytest.mark.parametrize("N,perm,match", [
    (2.5, (0, 2, 1), "^N must be an integer"), (True, (0, 2, 1), "^N must be an integer"),
    (-1, (0, 2, 1), "^N must be nonnegative"), (3, (0, 1, 1), "^perm must"),
    (3, (0, 1), "^perm must"),
])
def test_axis_permutation_rejects_bad_input(N, perm, match):
    with pytest.raises(ValueError, match=match):
        sh.axis_permutation(N, perm)


@pytest.mark.parametrize("order", [2.5, True, "3", 3.0])
def test_quadrature_rejects_non_integer_polar_order(order):
    with pytest.raises(ValueError, match="^polar_order must be an integer, got"):
        sh.build_sphere_quadrature(order)

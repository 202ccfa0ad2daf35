"""PnOperator advances the half-space H of the modes, one product per cubic
class, and takes every other mode as the conjugate of its -k.

The oracle, oracles.dense_step, is a loop over the modes of H with a dense
expm of each mode's own generator: one matrix-vector product per mode and
propagator, with no symmetry and no rotation, and the other modes filled as
the conjugates.  A Duhamel step takes a random re-emission drive on H at
a substep's 12 node times in one call, which the oracle reads one time at
a time as boxes holding it in e_0 (oracles.drive_source) and multiplies by
whole node propagators.  On a 1D grid every class holds
one mode of H, which is its own representative, so the class product is
that loop's gemv and the step must agree byte for byte, on one BLAS thread
and on several.  On 2D and 3D grids a class holds several modes, some
reached through an axis permutation, and the step agrees to 1e-12
relative.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pnhybrid import blas
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import transport as tr

import oracles


def _hermitian_box(rng, shape):
    return oracles.hermitian(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _random_drive(rng, op):
    """A smooth callable re-emission drive times -> (times, H modes), random
    per draw."""
    a, b, rate = oracles.half_space_vectors(rng, op, 3)

    def drive(times):
        t = times[:, None]
        return a + t * b + np.cos(3.0 * t) * rate

    return drive


def _augmented_forcing(op, k, pieces, h):
    """F, the top-right nm x d block of expm(h [[L_k, B], [0, J]]), from the
    dense generator."""
    nm = op.nm
    d = sum(len(tm.time_poly) for _, tm, _ in pieces)
    A = np.zeros((nm + d, nm + d), dtype=complex)
    A[:nm, :nm] = tr.assemble_mode_operator(k, op.N, op.eps, op.sigma,
                                            sh.assemble_coupling(max(op.N, 1)), op.sigma_a)
    col = nm
    for _, tm, ang in pieces:
        n = len(tm.time_poly)
        A[:nm, col] = ang
        A[col:col + n, col:col + n] = tm.time_exp * np.eye(n) + np.eye(n, k=1)
        col += n
    return expm(h * A)[:nm, nm:]


def _forced(op, sourced, want, h, t0):
    """want plus F w(t0) on each mode of H a term reaches, then the
    conjugates."""
    want = want.copy()
    wavevector = dict(op.modes())
    for idx, pieces in sourced._pieces.items():
        w0 = np.concatenate([
            amp * math.exp(tm.time_exp * t0) * np.array(oracles.poly_derivatives(tm.time_poly, t0))
            for amp, tm, _ in pieces
        ])
        want[idx] = want[idx] + _augmented_forcing(op, wavevector[idx], pieces, h) @ w0
    return oracles.conjugate_rest(op, want)


def _agree(got, want, dim):
    """Byte for byte on a 1D grid, to 1e-12 relative elsewhere."""
    if dim == 1:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _check_half_space_step(dim, modes, N, eps, sigma, absorb, h, t0, substeps, seed):
    # A 3D grid holds reflected, x <-> y swapped and axis-permuted modes of
    # every class.
    grid = gr.SpatialGrid(dim, modes)
    op = tr.PnOperator(grid, N, eps, sigma, absorb * sigma)
    rng = np.random.default_rng(seed)
    shape = grid.shape + (op.nm,)
    u = _hermitian_box(rng, shape)
    plain = op.step(u, h)
    _agree(plain, oracles.dense_step(op, u, h), dim)
    drive = _random_drive(rng, op)
    got = op.step(u, h, source=drive, t0=t0, substeps=substeps)
    want = oracles.dense_step(op, u, h, source=oracles.drive_source(op, drive), t0=t0,
                              substeps=substeps)
    _agree(got, want, dim)
    ks = [k for _, k in op.modes()]
    reached = [ks[i] for i in rng.choice(len(ks), size=min(2, len(ks)), replace=False)]
    amps = {}
    for k in reached:
        a = complex(rng.standard_normal(), rng.standard_normal()) if any(k) else 1.0
        amps[k], amps[tuple(-x for x in k)] = a, a.conjugate()
    term = gr.term(amps, (1.0, 0.0, 0.5, 0.0)[:op.nm], time_poly=(0.5, 1.0), time_exp=-0.7)
    sourced = tr.SourcedModes(op, [term])
    _agree(sourced.step(u, h, t0), _forced(op, sourced, oracles.dense_step(op, u, h), h, t0),
           dim)


@given(
    dim=st.sampled_from([1, 2, 3]),
    modes=st.sampled_from([3, 5]),
    N=st.integers(0, 7),
    eps=st.floats(0.2, 2.0),
    sigma=st.floats(0.0, 4.0),
    absorb=st.floats(0.0, 1.0),
    h=st.floats(0.01, 0.5),
    t0=st.floats(0.0, 1.0),
    substeps=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=1, modes=5, N=7, eps=0.2, sigma=4.0, absorb=1.0, h=0.5, t0=0.1, substeps=2, seed=5)
@example(dim=1, modes=3, N=6, eps=1.3, sigma=0.5, absorb=0.0, h=0.05, t0=0.9, substeps=1, seed=6)
@example(dim=3, modes=5, N=5, eps=0.3, sigma=2.5, absorb=0.4, h=0.45, t0=0.7, substeps=2, seed=3)
@example(dim=3, modes=3, N=7, eps=1.7, sigma=0.0, absorb=0.0, h=0.2, t0=0.0, substeps=1, seed=4)
@settings(max_examples=90)
def test_stacked_step_matches_per_mode_loop_bit_for_bit(dim, modes, N, eps, sigma, absorb,
                                                        h, t0, substeps, seed):
    # Plain, Duhamel and exactly sourced steps against the dense per-mode
    # oracle on one BLAS thread, as solve_pn and run_hybrid step: byte for
    # byte on 1D grids, to 1e-12 on 2D and 3D ones.  About 30 draws per
    # dimension.
    with blas.single_thread():
        _check_half_space_step(dim, modes, N, eps, sigma, absorb, h, t0, substeps, seed)


def test_stacked_step_matches_per_mode_loop_on_default_pools():
    # One fixed example per kind on the pools as the process found them
    # (two threads in the CI step that sets OPENBLAS_NUM_THREADS=2): byte for
    # byte in 1D, and in 3D through every axis permutation.
    for dim in (1, 3):
        _check_half_space_step(dim, 5, 5, 0.5, 1.0, 0.25, 0.3, 0.2, 2, 7)


def test_stacked_step_keeps_zero_modes_and_rejects_wrong_shape():
    op = tr.PnOperator(gr.SpatialGrid(2, 5), 3, 0.5, 1.0)
    u = np.zeros(op.grid.shape + (op.nm,), dtype=complex)
    u[op.grid.index_of((2, -1, 0))] = 1.0 + 0.5j
    u[op.grid.index_of((-2, 1, 0))] = 1.0 - 0.5j
    out = op.step(u, 0.25)
    _agree(out, oracles.dense_step(op, u, 0.25), 2)
    assert np.count_nonzero(np.abs(out).sum(axis=-1)) == 2
    with pytest.raises(ValueError, match="shape"):
        op.step(u[..., :-1], 0.25)


@pytest.mark.parametrize("N", range(1, 12))
def test_axis_turns_agree_with_the_real_view_turn(N):
    # _ClassStack._turn multiplies the complex vectors by each degree block
    # R_l of an axis permutation; the oracle multiplies their real views by
    # kron(R_l, I_2).  Each real and imaginary component is then a dot
    # product of width n = 2l + 1 in both, which BLAS sums in its own order
    # (zgemm against dgemm on the interleaved view), so they differ by at
    # most twice its rounding bound gamma_n sum_j |x_j| |R_jl|, gamma_n =
    # n u / (1 - n u).  Each of the six permutations, into the frame and out
    # of it, on a stack of the 3D 5 x 5 x 5 grid.
    op = tr.PnOperator(gr.SpatialGrid(3, 5), N, 0.5, 1.0)
    stack = op._stack
    assert len(stack.turned) == 2
    rng = np.random.default_rng(N)
    rows = np.arange(len(stack.rows))
    u = 2.0**-53
    for perm in itertools.permutations(range(3)):
        blocks = sh.axis_permutation(N, perm)
        stack.turned = [(rows, blocks)]
        for transpose in (False, True):
            shape = (len(rows), op.nm)
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got, want = x.copy(), x.copy()
            stack._turn(got, transpose)
            oracles.real_view_turn(stack, want, transpose)
            for l, R in enumerate(blocks):
                s, n = sh.degree_slice(l), 2 * l + 1
                M = np.abs(R.T if transpose else R)
                gamma = n * u / (1.0 - n * u)
                for part in (np.real, np.imag):
                    bound = 2.0 * gamma * (np.abs(part(x[:, s])) @ M)
                    assert np.all(np.abs(part(got[:, s]) - part(want[:, s])) <= bound), (perm, l)


@pytest.mark.parametrize("where", ["pair", "zero"])
def test_step_refuses_a_box_that_is_not_hermitian(where):
    op = tr.PnOperator(gr.SpatialGrid(3, 3), 2, 0.5, 1.0)
    u = _hermitian_box(np.random.default_rng(1), op.grid.shape + (op.nm,))
    if where == "pair":
        u[op.grid.index_of((1, -1, 0))][3] += 1e-9
    else:
        u[op.grid.index_of((0, 0, 0))][0] += 1e-9j  # k = 0 must be real
    message = r"^coefficients must satisfy c\(-k\) = conj c\(k\), got a deviation of [12]e-09$"
    with pytest.raises(ValueError, match=message):
        op.step(u, 0.25)
    with pytest.raises(ValueError, match=message):
        op.step(u, 0.25, source=lambda t: np.zeros((t.size, 14)), substeps=1)
    with pytest.raises(ValueError, match=message):
        tr.SourcedModes(op, []).step(u, 0.25, 0.0)


_SOURCE_GRID = gr.SpatialGrid(3, 3)
# Two wavevectors and their -k: (1, 0, 0) and (0, 1, -1) lie in H.
_SOURCE_AMPLITUDES = {(1, 0, 0): 1.0, (-1, 0, 0): 1.0, (0, -1, 1): 0.5j, (0, 1, -1): -0.5j}


def _sourced_operator():
    """(operator, SourcedModes) of a four-mode, degree-1-in-time source."""
    q = [gr.term(_SOURCE_AMPLITUDES, (1.0, 0.0, 0.5, 0.0), time_poly=(0.5, 1.0),
                 time_exp=-0.7)]
    op = tr.PnOperator(_SOURCE_GRID, 3, 0.7, 1.2, 0.3)
    return op, tr.SourcedModes(op, q)


def _random_box(op, seed):
    return _hermitian_box(np.random.default_rng(seed), op.grid.shape + (op.nm,))


def test_sourced_modes_advance_unreached_modes_like_the_loop():
    # Modes no term reaches get the operator's step and nothing more.
    op, sourced = _sourced_operator()
    u = _random_box(op, 11)
    got = sourced.step(u, 0.3, 0.2)
    want = op.step(u, 0.3)
    reached = np.zeros(op.grid.shape, dtype=bool)
    for k in _SOURCE_AMPLITUDES:
        reached[op.grid.index_of(k)] = True
    assert got[~reached].tobytes() == want[~reached].tobytes()
    assert not np.array_equal(got[reached], want[reached])


def test_sourced_modes_add_the_augmented_forcing_to_a_step(monkeypatch):
    # Each mode of H the source reaches takes the operator's step and then
    # adds F w(t0), with F from one augmented expm per (reached H mode, h);
    # its -k is the conjugate.
    sizes, classes = [], []
    real, real_exp = tr.expm, tr.PnOperator._exp

    def counting(A):
        sizes.append(A.shape[-1])
        return real(A)

    def class_exp(self, c, *args):
        classes.append(c)
        return real_exp(self, c, *args)

    monkeypatch.setattr(tr, "expm", counting)
    monkeypatch.setattr(tr.PnOperator, "_exp", class_exp)
    op, sourced = _sourced_operator()
    assert set(sourced._pieces) == {op.grid.index_of(k) for k in ((1, 0, 0), (0, 1, -1))}
    u = _random_box(op, 11)
    for h, t0 in ((0.3, 0.2), (0.3, 0.5), (0.15, 0.8)):
        got = sourced.step(u, h, t0)
        want = _forced(op, sourced, op.step(u, h), h, t0)
        assert got.tobytes() == want.tobytes()
    # Two step lengths and two reached modes of H: four augmented expms,
    # nm + 2 wide; the other exponentials are the propagators of the cubic
    # representatives, one per (class, h), however many blocks each takes.
    assert sizes.count(op.nm + 2) == 4
    reps = sorted(c for c, _ in op._stack.classes)
    assert len(reps) == 4 and sorted(classes) == sorted(reps * 2)


def test_sourced_modes_refuse_a_term_that_is_not_real():
    op = tr.PnOperator(_SOURCE_GRID, 1, 0.7, 1.2)
    with pytest.raises(ValueError, match=r"^q amplitudes must satisfy a\(-k\) = conj a\(k\), "
                                         r"got a\(1, 0, 0\) = \(1\+0j\) and a\(-1, 0, 0\) missing$"):
        tr.SourcedModes(op, [gr.isotropic_term({(1, 0, 0): 1.0})])

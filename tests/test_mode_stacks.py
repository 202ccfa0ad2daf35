"""PnOperator advances each lattice orbit's modes with stacked products.

The oracle below is the per-mode loop the solvers ran before: one
matrix-vector product per mode and propagator, with the mode's signed
permutation applied to the vector on the way into and out of its orbit
representative's frame.  A stacked product P @ X[..., None] runs the same
gemv per stacked vector, so the stacked path must agree bit for bit
(np.array_equal), on one BLAS thread and on several.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import transport as tr

import oracles


def _symmetry(k, N):
    """(c, S_g) of wavevector k = g c; S_g is None when k == c, else
    (perm, sign) with perm None when g swaps no axes."""
    a = [abs(x) for x in k]
    c = (max(a[0], a[1]), min(a[0], a[1]), a[2])
    if k == c:
        return c, None
    swap = a[0] < a[1]
    perm, sign = sh.lattice_symmetry(N, [x < 0 for x in k], swap)
    return c, (perm if swap else None, sign)


def _into_rep(sym, v):
    """S_g^T v: x with x[perm] = sign * v."""
    if sym is None:
        return v
    perm, sign = sym
    if perm is None:
        return sign * v
    x = np.empty_like(v)
    x[perm] = sign * v
    return x


def _from_rep(sym, x):
    """S_g x = sign * x[perm]."""
    if sym is None:
        return x
    perm, sign = sym
    return sign * (x if perm is None else x[perm])


def _oracle_step(op, coeffs, h, source=None, t0=0.0, substeps=None):
    """PnOperator.step as a loop over modes, with the operator's own
    cached representative propagators."""

    def rep(c, length):
        return op._rep(c, float(length))

    out = np.array(coeffs, dtype=complex, copy=True)
    syms = {idx: _symmetry(k, op.N) for idx, k in op.modes()}
    if source is None:
        for idx, _ in op.modes():
            c, sym = syms[idx]
            out[idx] = _from_rep(sym, rep(c, h) @ _into_rep(sym, out[idx]))
        return out
    nsub = substeps if substeps is not None else op.substeps_for(h)
    hs = h / nsub
    x, w = np.polynomial.legendre.leggauss(tr._DUHAMEL_NODES)
    taus = 0.5 * hs * (x + 1.0)
    wts = 0.5 * hs * w
    for j in range(nsub):
        ta = t0 + j * hs
        q_samples = [source(ta + tau) for tau in taus]
        for idx, _ in op.modes():
            c, sym = syms[idx]
            u = rep(c, hs) @ _into_rep(sym, out[idx])
            for m in range(tr._DUHAMEL_NODES):
                node = rep(c, float(hs - taus[m]))
                u = u + wts[m] * (node @ _into_rep(sym, q_samples[m][idx]))
            out[idx] = _from_rep(sym, u)
    return out


def _random_source(rng, shape):
    """A smooth callable source t -> coefficients, random per draw."""
    a, b, rate = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in range(3))

    def source(t):
        return a + t * b + np.cos(3.0 * t) * rate

    return source


@given(
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
@settings(max_examples=30)
def test_stacked_step_matches_per_mode_loop_bit_for_bit(modes, N, eps, sigma, absorb,
                                                        h, t0, substeps, seed):
    # A 3D grid holds reflected, x <-> y swapped and unmoved modes of every orbit.
    grid = gr.SpatialGrid(3, modes)
    op = tr.PnOperator(grid, N, eps, sigma, absorb * sigma)
    rng = np.random.default_rng(seed)
    shape = grid.shape + (op.nm,)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(op.step(u, h), _oracle_step(op, u, h))
    source = _random_source(rng, shape)
    got = op.step(u, h, source=source, t0=t0, substeps=substeps)
    want = _oracle_step(op, u, h, source=source, t0=t0, substeps=substeps)
    assert np.array_equal(got, want)


def test_stacked_step_keeps_zero_modes_and_rejects_wrong_shape():
    op = tr.PnOperator(gr.SpatialGrid(2, 5), 3, 0.5, 1.0)
    u = np.zeros(op.grid.shape + (op.nm,), dtype=complex)
    u[op.grid.index_of((2, -1, 0))] = 1.0
    out = op.step(u, 0.25)
    assert np.array_equal(out, _oracle_step(op, u, 0.25))
    assert np.count_nonzero(np.abs(out).sum(axis=-1)) == 1
    with pytest.raises(ValueError, match="shape"):
        op.step(u[..., :-1], 0.25)


_SOURCE_GRID = gr.SpatialGrid(3, 3)
_SOURCE_REACHES = ((1, 0, 0), (0, -1, 1))


def _sourced_operator():
    """(operator, SourcedModes) of a two-mode, degree-1-in-time source."""
    q = [gr.term(dict(zip(_SOURCE_REACHES, (1.0, 0.5j))), (1.0, 0.0, 0.5, 0.0),
                 time_poly=(0.5, 1.0), time_exp=-0.7)]
    op = tr.PnOperator(_SOURCE_GRID, 3, 0.7, 1.2, 0.3)
    return op, tr.SourcedModes(op, q)


def _random_box(op, seed):
    rng = np.random.default_rng(seed)
    shape = op.grid.shape + (op.nm,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_sourced_modes_advance_unreached_modes_like_the_loop():
    # Modes no term reaches get the operator's step and nothing more.
    op, sourced = _sourced_operator()
    u = _random_box(op, 11)
    got = sourced.step(u, 0.3, 0.2)
    want = _oracle_step(op, u, 0.3)
    reached = np.zeros(op.grid.shape, dtype=bool)
    for k in _SOURCE_REACHES:
        reached[op.grid.index_of(k)] = True
    assert np.array_equal(got[~reached], want[~reached])
    assert not np.array_equal(got[reached], want[reached])


def _augmented_forcing(op, k, pieces, h):
    """F, the top-right nm x d block of expm(h [[L_k, B], [0, J]]), from the
    dense generator."""
    nm = op.nm
    d = sum(len(tm.time_poly) for _, tm, _ in pieces)
    A = np.zeros((nm + d, nm + d), dtype=complex)
    A[:nm, :nm] = tr.assemble_mode_operator(k, op.N, op.eps, op.sigma,
                                            sh.assemble_coupling(op.N), op.sigma_a)
    col = nm
    for _, tm, ang in pieces:
        n = len(tm.time_poly)
        A[:nm, col] = ang
        A[col:col + n, col:col + n] = tm.time_exp * np.eye(n) + np.eye(n, k=1)
        col += n
    return expm(h * A)[:nm, nm:]


def test_sourced_modes_add_the_augmented_forcing_to_a_step(monkeypatch):
    # Each mode the source reaches takes the operator's step (the per-mode
    # loop) and then adds F w(t0), with F from one augmented expm per
    # (reached mode, h).
    sizes = []
    real = tr.expm

    def counting(A):
        sizes.append(A.shape[0])
        return real(A)

    monkeypatch.setattr(tr, "expm", counting)
    op, sourced = _sourced_operator()
    u = _random_box(op, 11)
    for h, t0 in ((0.3, 0.2), (0.3, 0.5), (0.15, 0.8)):
        got = sourced.step(u, h, t0)
        want = _oracle_step(op, u, h)
        for k in _SOURCE_REACHES:
            idx = op.grid.index_of(k)
            pieces = sourced._pieces[idx]
            w0 = np.concatenate([
                amp * math.exp(tm.time_exp * t0) * np.array(oracles.poly_derivatives(tm.time_poly, t0))
                for amp, tm, _ in pieces
            ])
            want[idx] = want[idx] + _augmented_forcing(op, k, pieces, h) @ w0
        assert np.array_equal(got, want)
    # Two step lengths and two reached modes: four augmented expms, nm + 2
    # wide; the plain ones are the orbits' propagators, one per (orbit, h).
    assert sizes.count(op.nm + 2) == 4
    assert sizes.count(op.nm) == 2 * len(op._stack.orbits)

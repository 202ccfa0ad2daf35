"""The BLAS thread policy: solves with at most SERIAL_BLAS_MAX_MOMENTS
moments run every OpenBLAS pool at one thread, wider ones keep the user's
count, and the counts are restored however a solve ends."""

import sys
import threading

import numpy as np
import pytest

from pnhybrid import blas
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import hybrid as hy
from pnhybrid import transport as tr

_GRID3 = gr.SpatialGrid(3, 3)
_G = [gr.term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5, (0, 1, 1): 0.25j, (0, -1, -1): -0.25j},
              (1.0, 0.2, -0.3, 0.1))]
_Q = [gr.term({(1, -1, 1): 0.5, (-1, 1, -1): 0.5}, (0.3, 0.0, 0.1, 0.0),
              time_poly=(1.0, 0.5), time_exp=-1.0)]


def _counts():
    return [get() for get, _ in blas.pools()]


# Each pool's count before any solve of the session (pytest imports every
# test module before it runs a test).
_DEFAULT = _counts()


@pytest.fixture(autouse=True)
def _reset_pools():
    """Put the pools back after each test, so one failure does not leak."""
    yield
    for (_, put), n in zip(blas.pools(), _DEFAULT):
        put(n)


@pytest.fixture
def pools_found():
    if not blas.pools():
        pytest.skip("no OpenBLAS pool loaded in this process")


@pytest.fixture
def expm_counts(monkeypatch):
    """Every pool's thread count at each expm call of the test."""
    seen = []
    real = tr.expm

    def counting(A):
        seen.append(_counts())
        return real(A)

    monkeypatch.setattr(tr, "expm", counting)
    return seen


def _small_spec(q=()):
    return tr.problem("small", eps=0.5, sigma_t=1.0, g=_G, q=q, T="0.5", dt="0.25")


def test_small_solves_run_on_one_thread(pools_found, expm_counts):
    tr.solve_pn(_small_spec(), 3, grid=_GRID3)
    hy.run_hybrid(_small_spec(), 3, grid=_GRID3)
    assert expm_counts
    assert all(c == [1] * len(_DEFAULT) for c in expm_counts)
    assert _counts() == _DEFAULT


def test_degree_21_solve_keeps_the_default_count(pools_found, expm_counts):
    assert sh.n_moments(20) <= tr.SERIAL_BLAS_MAX_MOMENTS < sh.n_moments(21)
    g = [gr.isotropic_term({(1, 0, 0): 0.5, (-1, 0, 0): 0.5})]
    spec = tr.problem("wide", eps=1.0, sigma_t=1.0, g=g, T="0.25")
    tr.solve_pn(spec, 21, grid=gr.SpatialGrid(1, 3))
    assert expm_counts and all(c == _DEFAULT for c in expm_counts)


def test_counts_restored_after_solve_and_after_raise(pools_found, monkeypatch):
    tr.solve_pn(_small_spec(), 3, grid=_GRID3)
    assert _counts() == _DEFAULT

    seen = []

    def failing(A):
        seen.append(_counts())
        raise RuntimeError("expm failed")

    monkeypatch.setattr(tr, "expm", failing)
    with pytest.raises(RuntimeError, match="expm failed"):
        tr.solve_pn(_small_spec(), 3, grid=_GRID3)
    with pytest.raises(RuntimeError, match="expm failed"):
        hy.run_hybrid(_small_spec(), 3, grid=_GRID3)
    assert seen == [[1] * len(_DEFAULT)] * 2
    assert _counts() == _DEFAULT


def test_nested_scopes_restore_once(pools_found):
    with blas.single_thread():
        with blas.single_thread():
            pass
        assert _counts() == [1] * len(_DEFAULT)
    assert _counts() == _DEFAULT


def test_concurrent_scopes_restore_the_default(pools_found):
    inside, errors = [], []

    def worker():
        try:
            for _ in range(200):
                with blas.single_thread():
                    inside.append(_counts())
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(inside) == 800 and all(c == [1] * len(_DEFAULT) for c in inside)
    assert _counts() == _DEFAULT


def test_policy_is_a_no_op_without_pools(pools_found, monkeypatch):
    real = blas.pools()
    seen = []
    expm = tr.expm

    def counting(A):
        seen.append([get() for get, _ in real])
        return expm(A)

    monkeypatch.setattr(blas, "_find", lambda: [])
    monkeypatch.setattr(blas, "_found", None)
    monkeypatch.setattr(tr, "expm", counting)
    tr.solve_pn(_small_spec(), 3, grid=_GRID3)
    assert blas.pools() == []
    assert seen and all(c == _DEFAULT for c in seen)


def _pn_final(q):
    return tr.solve_pn(_small_spec(q), 7, grid=_GRID3).final.coeffs


def _hybrid_total(q):
    return hy.run_hybrid(_small_spec(q), 3, grid=_GRID3).total.values


@pytest.mark.parametrize("solve, q", [(_pn_final, ()), (_pn_final, _Q), (_hybrid_total, ())],
                         ids=["pn", "pn-source", "hybrid"])
def test_serial_results_match_threaded(solve, q, monkeypatch):
    serial = solve(q)
    monkeypatch.setattr(tr, "SERIAL_BLAS_MAX_MOMENTS", 0)
    threaded = solve(q)
    scale = np.max(np.abs(threaded))
    assert scale > 0.0
    # With 2-thread OpenBLAS 0.3.30/0.3.31 the pn and hybrid cases are
    # bit-identical and pn-source differs by 1e-18 relative; other builds
    # may round differently, so the gate is the fast-path tolerance.
    assert np.max(np.abs(serial - threaded)) <= 1e-12 * scale

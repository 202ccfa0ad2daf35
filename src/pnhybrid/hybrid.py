"""Collided/uncollided splitting with periodic remapping.

Over each interval [t_m, t_{m+1}) the angular flux is carried as a pair:
an uncollided part psi_u advanced exactly along (mode, direction)
characteristics with pure decay, and a collided part psi_c in a truncated
moment expansion, driven by the isotropic re-emission (sigma/eps^2) of the
uncollided spherical average.  At each interval end the collided content is
evaluated at the quadrature directions, folded into the nodal carrier, and
the moment state is reset to zero.  The external source feeds the
uncollided part.  Reported states use left limits: the value at t_m is the
pair just before the remap at t_m.

run_hybrid returns that state at T and one IntervalRecord per interval
(norms of both parts at t_end^-, remap residual, merged norm, and the error
against an optional reference).  The remap evaluates the collided field at
the nodes, once per interval, and its merged carrier is the reported state.
The uncollided field, sampled at every Duhamel node of the re-emission and
advanced once per interval, is evaluated on the run's distinct decay rates
(transport.UncollidedRates): the rates depend on (k, Omega) only through
k.Omega, so each distinct exponential is taken once and gathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import blas
from . import grid as gr
from . import harmonics as sh
from . import transport as tr

_FOUR_PI = 4.0 * math.pi


def remap(u: gr.NodalField, c: gr.MomentField):
    """Fold the collided moments into the nodal carrier and zero them.

    Returns (merged nodal field, zeroed moment field, residual), where the
    residual checks that projecting the merged field recovers exactly the
    projection of u plus the moments of c.  Requires quadrature exactness
    >= 2N so the check is alias-free.
    """
    if u.quad.exactness < 2 * c.N:
        raise ValueError(
            f"quadrature exactness {u.quad.exactness} < {2 * c.N} required "
            f"to remap degree {c.N}"
        )
    merged = u + gr.evaluate_field(c, u.quad)
    before = gr.project_field(u, c.N)
    after = gr.project_field(merged, c.N)
    residual = float(np.max(np.abs(after.coeffs - before.coeffs - c.coeffs)))
    return merged, gr.zero_moment_field(u.grid, c.N), residual


@dataclass
class IntervalRecord:
    m: int
    t_end: float
    norm_u: float          # ||psi_u|| at t_end^-
    norm_c: float          # ||psi_c|| at t_end^-
    remap_residual: float
    error: float | None = None
    norm_merged: float = 0.0  # ||psi_u|| just after the remap at t_end


@dataclass
class HybridResult:
    total: gr.NodalField  # psi_u + psi_c evaluated at T^-
    records: list         # one IntervalRecord per interval


def hybrid_step(psi_u: gr.NodalField, psi_c: gr.MomentField, a: float, b: float,
                op: tr.PnOperator, rates: tr.UncollidedRates, profiles):
    """Advance the pair over [a, b] without remapping.

    The collided moments absorb the isotropic re-emission of the decaying
    uncollided average (Duhamel quadrature over the closed-form uncollided
    field, source included); the uncollided carrier then advances exactly,
    picking up the external source.  Both evaluate
    transport.uncollided_values with rates and profiles, the
    transport.uncollided_rates and transport.nodal_source of psi_u's grid
    and quadrature, op's cross sections and the source terms; they depend
    on no interval, so run_hybrid computes them once per run.  Each of the
    12 x substeps + 1 evaluations takes its exponentials and phi-functions
    once per distinct rate, not once per (mode, node).
    """
    if psi_u.quad.exactness < 2 * psi_c.N:
        raise ValueError(
            f"quadrature exactness {psi_u.quad.exactness} < {2 * psi_c.N} "
            f"required for the hybrid step"
        )
    eps, sigma = op.eps, op.sigma
    h = b - a
    if sigma == 0.0:
        new_c = psi_c  # no re-emission: collided part cannot be excited
    else:
        w = psi_u.quad.weights
        nm = op.nm
        emit = sigma / eps**2 * math.sqrt(_FOUR_PI)

        def sample(t: float) -> np.ndarray:
            vals = tr.uncollided_values(psi_u.values, rates, a, t, profiles)
            avg = (vals @ w) / _FOUR_PI
            out = np.zeros(psi_u.grid.shape + (nm,), dtype=complex)
            out[..., 0] = emit * avg
            return out

        nsub = op.substeps_for(h, extra_rate=op.max_rate)
        coeffs = op.step(psi_c.coeffs, h, source=sample, t0=a, substeps=nsub)
        new_c = gr.MomentField(psi_u.grid, psi_c.N, coeffs)
    new_u = gr.NodalField(psi_u.grid, psi_u.quad,
                          tr.uncollided_values(psi_u.values, rates, a, b, profiles))
    return new_u, new_c


def run_hybrid(spec: tr.ProblemSpec, N: int, dt=None, grid=None, quad=None,
               reference=None) -> HybridResult:
    """Full hybrid solve over [0, T] with remaps at every interval end.

    dt, if given, replaces spec.dt and the schedule is the problem's own
    (ProblemSpec.M, interval_edges), so a dt that is not positive or does
    not divide T raises ValueError.  reference, if given, is a callable
    t -> MomentField evaluated at the interval ends to fill the error
    column of the records.  The returned total is the left limit at T: the
    pair just before the final remap, evaluated at the quadrature
    directions, which is the carrier that remap returns.  Every OpenBLAS
    pool runs at one thread (blas.single_thread), reference included.
    """
    with blas.single_thread():
        if grid is None:
            grid = tr.default_grid(spec)
        if quad is None:
            quad = sh.build_sphere_quadrature(N + 1)
        if quad.exactness < 2 * N:
            raise ValueError(
                f"quadrature exactness {quad.exactness} < {2 * N} required for N={N}"
            )
        if dt is not None:
            spec = replace(spec, dt=tr._as_fraction(dt, "dt"))
        edges = spec.interval_edges()

        op = tr.PnOperator(grid, N, spec.eps, spec.sigma_t, spec.sigma_a)
        rates = tr.uncollided_rates(grid, quad, op.eps, op.sigma, op.sigma_a)
        profiles = tr.nodal_source(grid, quad, spec.q)
        psi_u = gr.nodal_field(grid, quad, spec.g)
        psi_c = gr.zero_moment_field(grid, N)
        records = []
        for m in range(spec.M):
            a, b = edges[m], edges[m + 1]
            psi_u, psi_c = hybrid_step(psi_u, psi_c, a, b, op, rates, profiles)
            norm_u = gr.l2_norm(psi_u)
            norm_c = gr.l2_norm(psi_c)
            # The merged carrier is the pair's sum at b^-, the reported state.
            psi_u, psi_c, resid = remap(psi_u, psi_c)
            err = None
            if reference is not None:
                err = gr.nodal_error_norm(psi_u, reference(b))
            records.append(IntervalRecord(
                m=m + 1,
                t_end=b,
                norm_u=norm_u,
                norm_c=norm_c,
                remap_residual=resid,
                error=err,
                norm_merged=gr.l2_norm(psi_u),
            ))
        return HybridResult(total=psi_u, records=records)

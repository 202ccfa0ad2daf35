"""Collided/uncollided splitting with periodic remapping.

The state is one nodal field on the quadrature directions.  Over each
interval [t_m, t_{m+1}) it is the uncollided carrier psi_u, advanced
exactly along (mode, direction) characteristics with pure decay and the
external source, and a collided part psi_c in a truncated moment expansion,
started from zero at t_m and driven by the isotropic re-emission
(sigma/eps^2) of the uncollided spherical average.  At the interval end the
collided moments are evaluated at the quadrature directions and folded
into the carrier, which is the next interval's state.  Reported states use
left limits: the value at t_m is the pair just before the remap at t_m.

run_hybrid returns that state at T and one IntervalRecord per interval
(norms of both parts at t_end^-, remap residual and merged norm).  The
remap evaluates the collided field at the nodes, once per interval.  Both
the carrier's advance and every Duhamel node of the re-emission (step's
drive, one e_0 value per mode of H) go through one transport.UncollidedFlow
per run, which takes each distinct decay rate's exponential once and
gathers it.  Every field is real in physical space, so the flow, the
re-emission and remap's evaluation and projections work on the half-space
H of the modes (grid.half_space) and take each other mode as the conjugate
of its -k (grid.from_half).
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
    norm_merged: float  # ||psi_u|| just after the remap at t_end


@dataclass
class HybridResult:
    total: gr.NodalField  # psi_u + psi_c evaluated at T^-
    records: list         # one IntervalRecord per interval


def hybrid_step(psi_u: gr.NodalField, a: float, b: float, op: tr.PnOperator,
                flow: tr.UncollidedFlow):
    """Advance the state psi_u over [a, b] without remapping: returns
    (carrier, collided) at b^-.

    The collided moments start from zero at a and absorb the isotropic
    re-emission of the decaying uncollided average, step's drive on H, by
    Duhamel quadrature over the closed-form uncollided field (source
    included) on substeps that follow its rates and the source's; the
    carrier advances exactly, picking up the external source.  flow is the
    transport.uncollided_flow of psi_u's grid and quadrature, op's cross
    sections and the source terms; it depends on no interval, so run_hybrid
    builds it once per run.  Each of the 12 x substeps + 1 advances takes
    its exponentials and source responses once per distinct rate, not once
    per (mode, node).
    """
    if psi_u.quad.exactness < 2 * op.N:
        raise ValueError(
            f"quadrature exactness {psi_u.quad.exactness} < {2 * op.N} "
            f"required for the hybrid step"
        )
    collided = gr.zero_moment_field(psi_u.grid, op.N)
    if op.sigma != 0.0:  # without re-emission the collided part stays zero
        emit = op.sigma / op.eps**2 * math.sqrt(_FOUR_PI)

        # The drive on H, all the flow advances.  Each mode's average is one dot
        # product, as numpy takes it on the box of a grid whose k3 axis is inactive.
        def sample(t: float) -> np.ndarray:
            vals = flow.advance(psi_u.values, a, t)
            return emit * ((vals[:, None, :] @ psi_u.quad.weights) / _FOUR_PI)[:, 0]

        source_rate = max((abs(tm.time_exp) for tm, _ in flow.profiles), default=0.0)
        nsub = op.substeps_for(b - a, extra_rate=op.max_rate + source_rate)
        coeffs = op.step(collided.coeffs, b - a, source=sample, t0=a, substeps=nsub)
        collided = gr.MomentField(psi_u.grid, op.N, coeffs)
    values = gr.from_half(flow.advance(psi_u.values, a, b), psi_u.values.shape)
    carrier = gr.NodalField(psi_u.grid, psi_u.quad, values)
    return carrier, collided


def run_hybrid(spec: tr.ProblemSpec, N: int, dt=None, grid=None,
               quad=None) -> HybridResult:
    """Full hybrid solve over [0, T] with remaps at every interval end.

    dt, if given, replaces spec.dt and the schedule is the problem's own
    (ProblemSpec.M, interval_edges), so a dt that is not positive or does
    not divide T raises ValueError.  The returned total is the left limit at
    T: the pair just before the final remap, evaluated at the quadrature
    directions, which is the carrier that remap returns.  Every OpenBLAS
    pool runs at one thread (blas.single_thread).
    """
    with blas.single_thread():
        if grid is None:
            grid = tr.default_grid(spec)
        # The operator checks N before any quadrature is built for it.
        op = tr.PnOperator(grid, N, spec.eps, spec.sigma_t, spec.sigma_a)
        if quad is None:
            quad = sh.build_sphere_quadrature(N + 1)
        if quad.exactness < 2 * N:
            raise ValueError(
                f"quadrature exactness {quad.exactness} < {2 * N} required for N={N}"
            )
        if dt is not None:
            spec = replace(spec, dt=tr._as_fraction(dt, "dt"))
        edges = spec.interval_edges()
        flow = tr.uncollided_flow(grid, quad, op.eps, op.sigma, op.sigma_a, spec.q)
        psi = gr.nodal_field(grid, quad, spec.g)
        records = []
        for m in range(spec.M):
            a, b = edges[m], edges[m + 1]
            psi, collided = hybrid_step(psi, a, b, op, flow)
            norm_u, norm_c = gr.l2_norm(psi), gr.l2_norm(collided)
            # The merged carrier is the pair's sum at b^-, the reported state.
            psi, _, resid = remap(psi, collided)  # zeroed moments unused
            del collided, _  # freed before the next step allocates its own
            records.append(IntervalRecord(
                m=m + 1,
                t_end=b,
                norm_u=norm_u,
                norm_c=norm_c,
                remap_residual=resid,
                norm_merged=gr.l2_norm(psi),
            ))
        return HybridResult(total=psi, records=records)

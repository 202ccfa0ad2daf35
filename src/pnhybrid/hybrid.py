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
the carrier's advance and the re-emission (step's drive, one e_0 value per
Duhamel node and mode of H) go through one transport.UncollidedFlow per
run, which takes each distinct decay rate's exponential once per time and
gathers it; the drive advances it to a substep's 12 node times in one
call.  Without a source every characteristic decays at sigma/eps^2 +
sigma_a, so each interval hands step an envelope of the drive, and step
skips the substeps on which the drive has fallen below the last bit of the
collided state.  Every field is real in physical space, so the flow, the
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


def drive_substeps(max_rate: float, source_rate: float, h: float) -> int:
    """The hybrid's one count of Duhamel substeps over an interval of length
    h: the collided moments move at rates up to max_rate, the operator's
    fastest, and the drive at the uncollided rates, up to max_rate too, and
    the source's time rates, up to source_rate (tr.duhamel_substeps)."""
    return tr.duhamel_substeps(max_rate + (max_rate + source_rate), h)


def _source_rate(flow: tr.UncollidedFlow) -> float:
    """The fastest time rate |mu| of the flow's source terms, 0 without one."""
    return max((abs(tm.time_exp) for tm, _ in flow.profiles), default=0.0)


def _envelope(psi_u: gr.NodalField, a: float, emit: float, flow: tr.UncollidedFlow):
    """A bound on the modulus of the re-emission drive of a flow without a
    source at every time t >= a, per mode of H: every rate's real part is c
    = sigma/eps^2 + sigma_a, so each characteristic decays as e^(-c (t-a))
    and |drive_k(t)| <= emit e^(-c (t-a)) sum_j (w_j/4 pi) |v_kj(a)| (the
    weights are positive).  The factor 2 covers the rounding of the
    exponentials, the products and the node sum, and the bound never
    rounds to 0 on a mode whose state is not 0."""
    rate = float(flow.distinct.real.min())
    values = gr.half_space(psi_u.values.reshape(-1, len(psi_u.quad)))
    at_a = 2.0 * emit * ((np.abs(values) @ psi_u.quad.weights) / _FOUR_PI)
    floor = np.where(values.any(axis=-1), np.finfo(float).tiny, 0.0)
    return lambda t: np.maximum(at_a * math.exp(-rate * (t - a)), floor)


def hybrid_step(psi_u: gr.NodalField, a: float, b: float, op: tr.PnOperator,
                flow: tr.UncollidedFlow):
    """Advance the state psi_u over [a, b] without remapping: returns
    (carrier, collided) at b^-.

    The collided moments start from zero at a and absorb the isotropic
    re-emission of the decaying uncollided average, step's drive on H, by
    Duhamel quadrature over the closed-form uncollided field (source
    included) on drive_substeps(op.max_rate, the source's fastest time
    rate, b - a) substeps; the carrier advances exactly, picking up the
    external source.  psi_u must be Hermitian, real in physical space.
    flow is the
    transport.uncollided_flow of psi_u's grid and quadrature, op's cross
    sections and the source terms; it depends on no interval, so run_hybrid
    builds it once per run.  The flow is advanced to at most 12 x substeps
    + 1 times in at most substeps + 1 calls: one per substep, at its 12
    Duhamel node times, and one for the carrier.  Each takes its
    exponentials and source responses once per distinct rate and time, not
    once per (mode, node).  A flow without a source also hands step the
    drive's decay envelope (_envelope), and step samples no substep on which
    the drive cannot change a bit of the collided moments, so the result is
    the same byte for byte.
    """
    if psi_u.quad.exactness < 2 * op.N:
        raise ValueError(
            f"quadrature exactness {psi_u.quad.exactness} < {2 * op.N} "
            f"required for the hybrid step"
        )
    shape = psi_u.values.shape
    gr.require_hermitian("state values", psi_u.values.reshape(-1, shape[-1]))
    collided = gr.zero_moment_field(psi_u.grid, op.N)
    if op.sigma != 0.0:  # without re-emission the collided part stays zero
        emit = op.sigma / op.eps**2 * math.sqrt(_FOUR_PI)

        # The drive on H at a substep's node times, all the flow advances.  Each
        # (time, mode)'s average is one dot product, as numpy takes it on the
        # box of a grid whose k3 axis is inactive, so every time keeps its bits.
        def sample(times: np.ndarray) -> np.ndarray:
            vals = flow.advance(psi_u.values, a, times)
            return emit * ((vals[..., None, :] @ psi_u.quad.weights) / _FOUR_PI)[..., 0]

        coeffs = op.step(collided.coeffs, b - a, source=sample, t0=a,
                         substeps=drive_substeps(op.max_rate, _source_rate(flow), b - a),
                         envelope=None if flow.profiles else _envelope(psi_u, a, emit, flow))
        collided = gr.MomentField(psi_u.grid, op.N, coeffs)
    values = gr.from_half(flow.advance(psi_u.values, a, b), shape)
    carrier = gr.NodalField(psi_u.grid, psi_u.quad, values)
    return carrier, collided


def run_hybrid(spec: tr.ProblemSpec, N: int, dt=None, grid=None,
               quad=None) -> HybridResult:
    """Full hybrid solve over [0, T] with remaps at every interval end.

    dt, if given, replaces spec.dt and the schedule is the problem's own
    (ProblemSpec.M, interval_edges), so a dt that is not positive or does
    not divide T raises ValueError, and so does a run whose Duhamel
    substeps (drive_substeps), summed over its intervals, exceed
    tr.MAX_INTERVALS, before its first step.  The returned total is the
    left limit at T: the pair just before the final remap, evaluated at the
    quadrature directions, which is the carrier that remap returns.  Every OpenBLAS
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
        if op.sigma != 0.0:
            lengths, counts = np.unique(np.diff(edges), return_counts=True)
            need = sum(int(n) * drive_substeps(op.max_rate, _source_rate(flow), float(h))
                       for h, n in zip(lengths, counts))
            if need > tr.MAX_INTERVALS:
                raise ValueError(f"the run must take at most {tr.MAX_INTERVALS} Duhamel "
                                 f"substeps, got {need} for sigma/eps^2 = "
                                 f"{op.sigma / op.eps**2:g}")
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

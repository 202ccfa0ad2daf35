"""Configuration, manufactured problems, parameter sweeps, and conformance.

The harness turns a flat `key = value` config into solver runs, measures
errors against exact handles or high-degree references (with a Richardson
estimate of the reference's own error), evaluates the matching closed-form
bound for every run, and writes versioned CSV that the fit/plot stages and
the CLI consume.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from dataclasses import dataclass, field as dc_field, fields, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import bounds as bd
from . import grid as gr
from . import harmonics as sh
from . import hybrid as hy
from . import transport as tr


class ConfigError(ValueError):
    """Raised for malformed or contradictory run configuration."""


_SOLVERS = ("pn", "hybrid", "uncollided", "diffusion")

# The config schema: each [run] key, in RunSpec field order, with the kind
# its value is read as (see _convert).
_RUN_KINDS = {
    "problem": str, "solver": str, "N": int, "dt": "time", "eps": float,
    "sigma_t": float, "sigma_a": float, "T": "time", "s": int, "band": int,
    "n_ref": int, "out_csv": str, "plot_axis": str,
}


class _Axis(NamedTuple):
    kind: object    # what each value is read as, as in _RUN_KINDS
    field: str      # the RunSpec field a run holds it in when not swept
    label: str      # the plot's axis label
    coord: object   # the row's coordinate along the axis


# Each sweep axis, in grid order (the first varies slowest).  A [sweep] key
# k is a comma-separated list stored in RunSpec.sweep_k.
_AXES = {
    "N": _Axis(int, "N", "N+1", lambda r: float(r.N + 1)),
    "dt": _Axis("time", "dt", "dt", lambda r: r.dt),
    "eps": _Axis(float, "eps", "eps", lambda r: r.eps),
    "sigma": _Axis(float, "sigma_t", "sigma_t", lambda r: r.sigma_t),
}
_KINDS = {"run": _RUN_KINDS, "sweep": {k: a.kind for k, a in _AXES.items()}}

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

# The largest s whose s! is a float (170! is about 7.3e306): the bounds and
# the regime advisor take s! as one.
MAX_S = 170


@dataclass
class RunSpec:
    """One resolved run configuration: problem selection, solver, scalar
    parameters, and optional sweep axes."""

    problem: str
    solver: str = "pn"
    N: int = 5
    dt: str | None = None
    eps: float = 1.0
    sigma_t: float = 1.0
    sigma_a: float = 0.0
    T: str = "1"
    s: int | None = None
    band: int = 16
    n_ref: int | None = None
    out_csv: str = ""
    plot_axis: str = ""
    sweep_N: tuple = ()
    sweep_dt: tuple = ()
    sweep_eps: tuple = ()
    sweep_sigma: tuple = ()

    def csv_name(self) -> str:
        return self.out_csv or f"{self.problem}-{self.solver}-sweep.csv"


@dataclass(frozen=True)
class SweepRow:
    """One CSV row (schema 1), its columns in field order after the schema
    column.  Frozen, so the checks made at construction hold for every
    reader of the row."""

    problem: str
    solver: str
    N: int
    dt: float
    eps: float
    sigma_t: float
    sigma_a: float
    T: float
    error: float
    oracle_uncertainty: float
    bound: float
    branch: str
    walltime_s: float

    def __post_init__(self):
        if self.N < 0:
            raise ValueError(f"N must be nonnegative, got {self.N}")
        for name in ("dt", "eps", "T", "sigma_t", "sigma_a", "error",
                     "oracle_uncertainty", "bound"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("dt", "eps", "T"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("sigma_t", "sigma_a", "error", "bound"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def flagged(self) -> bool:
        """Oracle hygiene: the reference's own Richardson estimate must stay
        under 10% of the measured error for the row to be trusted."""
        return self.oracle_uncertainty > 0.1 * self.error


# (name, kind) of each SweepRow column; kind is str, int or float.
_ROW_KINDS = tuple((f.name, {"str": str, "int": int, "float": float}[f.type])
                   for f in fields(SweepRow))
CSV_COLUMNS = ("schema",) + tuple(name for name, _ in _ROW_KINDS)


def _parse_lines(lines):
    """Yield (line_no, section, key, value) tuples from config text lines."""
    section = ""
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {no}: unterminated section header {line!r}")
            section = line[1:-1].strip()
            if section not in ("run", "sweep"):
                raise ConfigError(f"line {no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not section:
            raise ConfigError(f"line {no}: key {key!r} appears before any [section]")
        yield no, section, key, value


def parse_config(path) -> RunSpec:
    """Read a config file into a RunSpec, applying defaults and validating
    every key, numeral, and the interval-schedule constraint."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.readlines())


def _convert(kind, text: str, line_no: int, key: str):
    """One config value read as its kind: str as written, int, float, or
    "time", a numeral kept as its exact text so schedules divide evenly."""
    if kind is str:
        return text
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(
                f"line {line_no}: value for '{key}' must be an integer, got {text!r}"
            )
    if not _NUMBER_RE.match(text):
        raise ConfigError(f"line {line_no}: value for '{key}' must be a decimal or "
                          f"scientific numeral, got {text!r}")
    value = float(text)
    # A numeral past the float range would read as inf, or as 0 although
    # its exact value, which schedules use for times, is not.
    if math.isinf(value) or (value == 0.0 and Fraction(text) != 0):
        raise ConfigError(f"{key} must be within the float range (0, or "
                          f"magnitude 5e-324 to 1.8e308), got {text}")
    return value if kind is float else text


def parse_config_text(lines) -> RunSpec:
    given: dict = {"run": {}, "sweep": {}}
    for no, section, key, value in _parse_lines(lines):
        if key not in _KINDS[section]:
            raise ConfigError(f"line {no}: unknown key '{key}' in [{section}]")
        given[section][key] = (no, value)
    run, sweep = given["run"], given["sweep"]
    if "problem" not in run:
        raise ConfigError("config must set 'problem' in [run]")

    rs = RunSpec(problem=run["problem"][1])
    if rs.problem not in PROBLEMS:
        raise ConfigError(
            f"unknown problem {rs.problem!r}; known: {', '.join(sorted(PROBLEMS))}"
        )
    # A scattering-free problem has no cross sections to default to 1.
    free = _scattering_free(rs.problem)
    if free:
        rs.sigma_t = 0.0
    for key, kind in _RUN_KINDS.items():
        if key in run:
            no, text = run[key]
            setattr(rs, key, _convert(kind, text, no, key))
    if rs.solver not in _SOLVERS:
        raise ConfigError(f"unknown solver {rs.solver!r}; known: {', '.join(_SOLVERS)}")

    for key, kind in _KINDS["sweep"].items():
        if key not in sweep:
            continue
        no, text = sweep[key]
        items = [p.strip() for p in text.split(",") if p.strip()]
        if not items:
            raise ConfigError(f"line {no}: empty sweep list for '{key}'")
        values = []
        for p in items:
            try:
                values.append(_convert(kind, p, no, key))
            except ConfigError:
                if kind is not int:
                    raise
                raise ConfigError(f"line {no}: bad sweep value {p!r} for '{key}'")
        setattr(rs, "sweep_" + key, tuple(values))

    Ns = (rs.N,) + rs.sweep_N
    sigma_min = min((rs.sigma_t,) + rs.sweep_sigma)
    zero = f"0 for the scattering-free problem '{rs.problem}'"
    for key, values, ok, need in (
        ("sigma_t", (rs.sigma_t,), lambda v: not free or v == 0.0, zero),
        ("sigma_a", (rs.sigma_a,), lambda v: not free or v == 0.0, zero),
        ("sigma", rs.sweep_sigma, lambda v: not free or v == 0.0, zero),
        ("N", Ns, lambda v: v >= 0, "nonnegative"),
        ("eps", (rs.eps,) + rs.sweep_eps, lambda v: v > 0, "positive"),
        ("sigma_t", (rs.sigma_t,), lambda v: v >= 0, "nonnegative"),
        ("sigma", rs.sweep_sigma, lambda v: v >= 0, "nonnegative"),
        # The diffusion limit divides by every sigma_t the run solves at.
        ("sigma" if rs.sweep_sigma else "sigma_t", rs.sweep_sigma or (rs.sigma_t,),
         lambda v: rs.solver != "diffusion" or v > 0, "positive for the diffusion solver"),
        ("sigma_a", (rs.sigma_a,), lambda v: 0 <= v <= sigma_min,
         f"in [0, {sigma_min:g}], the smallest sigma_t"),
        ("s", (rs.s,), lambda v: v is None or v >= 1, "at least 1"),
        ("band", (rs.band,), lambda v: v >= 0, "nonnegative"),
        ("n_ref", (rs.n_ref,), lambda v: v is None or v > max(Ns),
         f"above the largest N ({max(Ns)})"),
        ("plot_axis", (rs.plot_axis,), lambda v: v in ("", *_AXES), "one of " + ", ".join(_AXES)),
    ):
        for v in values:
            if not ok(v):
                raise ConfigError(f"{key} must be {need}, got {v}")

    Tf = Fraction(rs.T)
    if Tf <= 0:
        raise ConfigError(f"T must be positive, got {rs.T}")
    for dt in (rs.dt,) + rs.sweep_dt:
        if dt is None:
            continue
        dtf = Fraction(dt)
        if dtf <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        if (Tf / dtf).denominator != 1:
            raise ConfigError(f"M*dt != T: dt={dt} does not divide T={rs.T}")
        if Tf / dtf > tr.MAX_INTERVALS:
            raise ConfigError(f"dt must leave at most {tr.MAX_INTERVALS} intervals "
                              f"M = T/dt, got dt={dt} for T={rs.T}")
    _require_float_powers(rs, float(Tf))
    _require_substeps(rs, Tf)
    return rs


def _float_power(x: float, p: int) -> float:
    """x^p, inf where it overflows."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def _require_float_powers(rs: RunSpec, T: float) -> None:
    """Refuse a value that a solver or bound would take past the float
    range, where the run would end in an arithmetic error after its solve:
    every solver divides by eps^2, and the P_N and hybrid bounds (with
    solve-pn's regime advisor) take s! as a float and raise eps, T/eps, T
    and sigma_t to powers up to s + 1.  Scalar checks only, on the run's
    and every swept value."""
    s = 2 if rs.s is None else rs.s
    bounded = rs.solver in ("pn", "hybrid")
    sigma_key = "sigma" if rs.sweep_sigma else "sigma_t"
    for key, values, ok, need in (
        ("s", (s,), lambda v: not bounded or v <= MAX_S,
         f"at most {MAX_S}, the largest s whose s! is a float"),
        ("eps", (rs.eps,) + rs.sweep_eps, lambda v: 0.0 < _float_power(v, 2) < math.inf,
         "such that eps^2 is a nonzero float"),
        ("eps", (rs.eps,) + rs.sweep_eps,
         lambda v: not bounded or (0.0 < _float_power(v, s + 1) < math.inf
                                   and _float_power(T / v, s + 1) < math.inf),
         f"such that eps^(s+1) is a nonzero float and (T/eps)^(s+1) a float "
         f"for T = {rs.T} and s = {s}"),
        ("T", (T,), lambda v: not bounded or _float_power(v, s + 1) < math.inf,
         f"such that T^(s+1) is a float for s = {s}"),
        (sigma_key, rs.sweep_sigma or (rs.sigma_t,),
         lambda v: not bounded or v == 0.0 or 0.0 < _float_power(v, s) < math.inf,
         f"0 or such that {sigma_key}^s is a nonzero float for s = {s}"),
    ):
        for v in values:
            if not ok(v):
                raise ConfigError(f"{key} must be {need}, got {v}")


def _require_substeps(rs: RunSpec, T: Fraction) -> None:
    """Refuse a hybrid run that would take more than tr.MAX_INTERVALS
    Duhamel substeps at some sweep point.  hybrid_step sizes its substeps
    by twice the fastest rate, at least 2 (sigma/eps^2 + sigma_a), so the
    count taken from that rate never exceeds the run's own.  A point
    without scattering takes no substep."""
    if rs.solver != "hybrid":
        return
    sigma_key = "sigma" if rs.sweep_sigma else "sigma_t"
    for eps in rs.sweep_eps or (rs.eps,):
        for sigma in rs.sweep_sigma or (rs.sigma_t,):
            if sigma == 0.0:
                continue
            rate = 2.0 * (sigma / eps**2 + rs.sigma_a)
            for dt in rs.sweep_dt or (rs.dt,):
                dtf = T if dt is None else Fraction(dt)
                h = float(dtf)
                need = (T / dtf * tr.duhamel_substeps(rate, h)
                        if math.isfinite(rate * h) else math.inf)
                if need > tr.MAX_INTERVALS:
                    raise ConfigError(
                        f"eps and {sigma_key} must leave at most {tr.MAX_INTERVALS} "
                        f"Duhamel substeps per hybrid run, got eps={eps} and "
                        f"{sigma_key}={sigma}, at least {float(need):.3g} at dt={h:g}")


def _emit(kind, value) -> str:
    return repr(value) if kind is float else str(value)


def emit_config(rs: RunSpec) -> str:
    """Canonical text form; parse(emit(parse(x))) == parse(x)."""
    lines = ["[run]"]
    for key, kind in _RUN_KINDS.items():
        value = getattr(rs, key)
        if value is not None and value != "":
            lines.append(f"{key} = {_emit(kind, value)}")
    axes = [(key, kind, getattr(rs, "sweep_" + key)) for key, kind in _KINDS["sweep"].items()]
    if any(values for _, _, values in axes):
        lines += ["", "[sweep]"]
        lines += [f"{key} = " + ", ".join(_emit(kind, v) for v in values)
                  for key, kind, values in axes if values]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Manufactured problems


@dataclass(frozen=True)
class Manufactured:
    """A registry problem, its oracle, and the run's regularity order s
    (for the bounds) and reference-degree override n_ref.

    `reference` gives what a solution at T is measured against, together
    with the reference's own uncertainty.  Reference P_N solves are memoized
    by degree, so every run that shares this object (a sweep's N and dt
    points) solves each reference degree once; solve_pn does not read
    spec.dt, so the memo holds across dt.  Measurement quadratures are
    memoized by polar order the same way, so a sweep's points share each
    rule and its basis cache.
    """

    spec: tr.ProblemSpec
    exact: str      # "", "decay", or "characteristics"
    s: int
    n_ref: int | None
    _solves: dict = dc_field(default_factory=dict, init=False, compare=False,
                             repr=False)
    _quads: dict = dc_field(default_factory=dict, init=False, compare=False,
                            repr=False)

    def quadrature(self, polar_order: int) -> sh.SphereQuadrature:
        """build_sphere_quadrature(polar_order), built once per object."""
        if polar_order not in self._quads:
            self._quads[polar_order] = sh.build_sphere_quadrature(polar_order)
        return self._quads[polar_order]

    def reference(self, solver: str, N: int, quad=None):
        """(reference, uncertainty) for a degree-N run of `solver` at T.

        The diffusion solver is measured against the diffusion-limit flux.
        Every other solver gets the problem's exact handle (decay moments,
        or characteristics values at the nodes of `quad`), or else the P_N
        solve at reference_degree(N, n_ref), whose uncertainty is its
        distance to the solve four degrees higher.
        """
        spec, T = self.spec, self.spec.t_final
        grid = tr.default_grid(spec)
        if solver == "diffusion":
            return tr.solve_diffusion(spec, T, grid), 0.0
        if self.exact == "decay":
            return decay_solution(spec, grid, N, T), 0.0
        if self.exact == "characteristics":
            return tr.characteristics_solution(spec, quad, T, grid), 0.0
        n1 = reference_degree(N, self.n_ref)
        for n in (n1, n1 + 4):
            if n not in self._solves:
                self._solves[n] = tr.solve_pn(spec, n, grid=grid).final
        ref, ref2 = self._solves[n1], self._solves[n1 + 4]
        return ref, distance(ref, ref2)


_COSINE = {(1, 0, 0): 0.5, (-1, 0, 0): 0.5}  # cos(x1)


def _sobolev_data(s, band):
    """cos(x1) times angular amplitudes (l + 1/2)^-(s+1) up to degree band."""
    amps = [0.0] * sh.n_moments(band)
    for l in range(band + 1):
        amps[sh.ordinal(l, 0)] = (l + 0.5) ** (-(s + 1))
    return [gr.term(_COSINE, tuple(amps))]


# name -> (initial data g from the run's s and band, oracle kind).  An oracle
# kind "" measures against P_N references; "characteristics" is exact only
# without scattering, so a problem with that oracle is scattering-free.
PROBLEMS = {
    "iso-smooth": (lambda s, band: [gr.isotropic_term(_COSINE)], ""),
    "aniso-decay": (lambda s, band: [gr.term({(0, 0, 0): 1.0}, (0.0, 0.0, 1.0, 0.0))],
                    "decay"),
    "streaming": (lambda s, band: [gr.isotropic_term(_COSINE),
                                   gr.term(_COSINE, (0.0, 0.0, 0.5, 0.0))],
                  "characteristics"),
    "sobolev-s": (_sobolev_data, ""),
    "diffusion-check": (lambda s, band: [gr.isotropic_term(_COSINE)], ""),
}


def _scattering_free(name: str) -> bool:
    return PROBLEMS[name][1] == "characteristics"


def manufactured(name, eps=1.0, sigma_t=1.0, sigma_a=0.0, T="1", dt=None,
                 s=None, band=16, n_ref=None) -> Manufactured:
    """Instantiate a registry problem with the given physical parameters,
    regularity order s (2 when not given) and reference-degree override; a
    scattering-free one reads no cross sections (the parser refuses them)."""
    try:
        data, exact = PROBLEMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown problem {name!r}; known: {', '.join(sorted(PROBLEMS))}"
        ) from None
    for key, value in (("s", s), ("n_ref", n_ref)):
        if value is not None:
            sh.require_integer(key, value)
    s = 2 if s is None else s
    if _scattering_free(name):
        sigma_t = sigma_a = 0.0
    spec = tr.problem(name, eps, sigma_t, data(s, band), sigma_a=sigma_a, T=T, dt=dt)
    return Manufactured(spec, exact, s, n_ref)


def decay_solution(spec: tr.ProblemSpec, grid, N: int, t: float) -> gr.MomentField:
    """Exact solution for spatially constant data: the mean moment sees only
    absorption, every higher moment decays at sigma/eps^2 + sigma_a."""
    coeffs = np.array(tr.initial_field(spec, grid, N).coeffs, copy=True)
    coeffs[..., 0] *= math.exp(-spec.sigma_a * t)
    rate = spec.sigma_t / spec.eps**2 + spec.sigma_a
    coeffs[..., 1:] *= math.exp(-rate * t)
    return gr.MomentField(grid, N, coeffs)


# ---------------------------------------------------------------------------
# Error measurement


def distance(solution, reference) -> float:
    """L^2 distance between a solution and its reference, in the
    representation their types call for: a flux reference compares scalar
    fluxes, two moment fields compare moments (zero-padded to the higher
    degree), and a nodal operand compares values at its quadrature nodes,
    where a band-limited moment field's samples are exact."""
    if isinstance(reference, np.ndarray):
        diff = gr.scalar_flux(solution) - reference
        return math.sqrt(solution.grid.measure * float(np.sum(np.abs(diff) ** 2)))
    if isinstance(solution, gr.MomentField):
        if isinstance(reference, gr.MomentField):
            N = max(solution.N, reference.N)
            diff = (sh.project_moments(solution.coeffs, N)
                    - sh.project_moments(reference.coeffs, N))
            return gr.l2_norm(gr.MomentField(solution.grid, N, diff))
        return gr.l2_norm(gr.evaluate_field(solution, reference.quad) - reference)
    if isinstance(reference, gr.MomentField):
        return gr.l2_norm(solution - gr.evaluate_field(reference, solution.quad))
    return gr.l2_norm(solution - reference)


def reference_degree(N: int, override=None) -> int:
    """Degree of the self-convergence reference: comfortably above N so the
    truncation tail of the reference is negligible against the error at N."""
    return int(override) if override is not None else 2 * N + 6


def measurement_quadrature(mf: Manufactured, degree: int, dt_run: float):
    """Quadrature able to project streaming phase content up to the horizon
    where scattering has damped it below noticeability, shared through mf
    by every run that asks for the same polar order."""
    spec = mf.spec
    grid = tr.default_grid(spec)
    kmax = math.sqrt(float(np.max(grid.k_norm2())))
    if spec.sigma_t > 0.0:
        horizon = min(dt_run, 30.0 * spec.eps**2 / spec.sigma_t)
    else:
        horizon = dt_run
    margin = math.ceil(kmax * horizon / spec.eps) + 8
    return mf.quadrature(degree + margin)


@dataclass
class SingleResult:
    """Everything one parameter point produces, before CSV flattening."""
    error: float
    oracle_uncertainty: float
    bound: float
    branch: str
    dt: float  # the interval length the point ran at
    report: bd.BoundReport | None = None
    hybrid: hy.HybridResult | None = None  # the hybrid solve, when there was one


def _evaluate_bound(spec, solver, s, N, grid):
    if solver not in ("pn", "hybrid") or N < s - 1:
        return 0.0, "none", None
    bi = bd.bound_inputs(spec, s, N, grid=grid, family=solver)
    if spec.sigma_a > 0.0:
        rep = bd.absorbing_bounds(bi, solver)
    elif solver == "pn":
        rep = bd.pn_error_bound(bi)
    else:
        rep = bd.hybrid_error_bound(bi)
    labeled = [t for t in rep.terms if t.branch]
    branch = max(labeled, key=lambda t: t.value).branch if labeled else ""
    return rep.total, branch or "flat", rep


def run_single(mf: Manufactured, solver: str, N: int, dt=None) -> SingleResult:
    """Solve one parameter point, measure its error against the problem's
    oracle, and evaluate the matching bound at mf.s with C = 1.  The point
    runs at dt when it is given, else at the problem's own interval length."""
    if solver not in _SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}")
    if mf.n_ref is not None and mf.n_ref <= N:
        raise ConfigError(f"n_ref must be above N ({N}), got {mf.n_ref}")
    spec = mf.spec if dt is None else replace(mf.spec, dt=tr._as_fraction(dt, "dt"))
    T, dt_run = spec.t_final, float(spec.dt)
    grid = tr.default_grid(spec)

    res = quad = None
    if solver in ("pn", "diffusion"):
        solution = tr.solve_pn(spec, N, grid=grid).final
        if solver == "pn" and mf.exact == "characteristics":
            quad = measurement_quadrature(mf, N, T)
    else:
        # Nodal solvers: the quadrature also resolves the reference degree.
        degree = N + 1 if mf.exact else max(N + 1, reference_degree(N, mf.n_ref))
        quad = measurement_quadrature(mf, degree, dt_run)
        if solver == "hybrid":
            res = hy.run_hybrid(spec, N, grid=grid, quad=quad)
            solution = res.total
        else:
            solution = tr.solve_uncollided(gr.nodal_field(grid, quad, spec.g), 0.0, T,
                                           spec.eps, spec.sigma_t, spec.sigma_a,
                                           q_terms=spec.q)

    reference, unc = mf.reference(solver, N, quad)
    error = distance(solution, reference)
    if not (math.isfinite(error) and math.isfinite(unc)):
        raise ConfigError(f"eps and sigma_t must keep the {solver} solve and its reference "
                          f"within the float range, got error {error} and oracle "
                          f"uncertainty {unc} at eps={spec.eps:g}, "
                          f"sigma_t={spec.sigma_t:g}")
    bound, branch, rep = _evaluate_bound(spec, solver, mf.s, N, grid)
    return SingleResult(error, unc, bound, branch, dt_run, rep, hybrid=res)


def sweep_points(rs: RunSpec):
    """The ordered parameter tuples (N, dt, eps, sigma_t) of a sweep: each
    axis's swept values, else the run's own value (dt None: the run's own)."""
    swept = [getattr(rs, "sweep_" + key) for key in _AXES]
    if not any(swept):
        raise ConfigError("sweep requires at least one non-empty axis in [sweep]")
    return list(itertools.product(*(
        values or (getattr(rs, axis.field),)
        for values, axis in zip(swept, _AXES.values())
    )))


def run_sweep(rs: RunSpec) -> list[SweepRow]:
    """Run every point of the sweep grid in grid order.  Points with the
    same (eps, sigma) share one Manufactured, and so its reference solves."""
    problems: dict = {}
    rows = []
    for N, dt, eps, sigma in sweep_points(rs):
        t0 = time.perf_counter()
        mf = problems.get((eps, sigma))
        if mf is None:
            mf = problems[(eps, sigma)] = manufactured(
                rs.problem, eps=eps, sigma_t=sigma, sigma_a=rs.sigma_a, T=rs.T,
                dt=rs.dt, s=rs.s, band=rs.band, n_ref=rs.n_ref,
            )
        out = run_single(mf, rs.solver, N, dt=dt)
        rows.append(SweepRow(
            problem=rs.problem, solver=rs.solver, N=N, dt=out.dt, eps=eps,
            sigma_t=float(mf.spec.sigma_t), sigma_a=rs.sigma_a,
            T=float(Fraction(rs.T)), error=out.error,
            oracle_uncertainty=out.oracle_uncertainty,
            bound=out.bound, branch=out.branch,
            walltime_s=time.perf_counter() - t0,
        ))
    return rows


# ---------------------------------------------------------------------------
# CSV


def _fmt(x) -> str:
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.17g}"


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            cells = [_fmt(getattr(r, name)) for name in CSV_COLUMNS[1:]]
            fh.write(",".join(["1"] + cells) + "\n")


def read_csv(path) -> list[SweepRow]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = tuple(lines[0].split(","))
    if header != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected CSV columns {header}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: malformed row {ln!r}")
        if parts[0] != "1":
            raise ValueError(f"{path}: unsupported schema version {parts[0]!r}")
        try:
            rows.append(SweepRow(*(kind(text) for (_, kind), text
                                   in zip(_ROW_KINDS, parts[1:]))))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc} in row {ln!r}") from None
    return rows


# ---------------------------------------------------------------------------
# Conformance


# Largest error a row with a zero bound may carry: an exact solver's
# round-off.
ZERO_BOUND_TOL = 1e-8


def varying_axis(rows) -> str | None:
    """The first sweep axis along which the rows' coordinates differ, or
    None when every row sits at the same point."""
    for axis, a in _AXES.items():
        if len({a.coord(r) for r in rows}) > 1:
            return axis
    return None


def _other_key(row: SweepRow, axis: str):
    vals = {key: a.coord(row) for key, a in _AXES.items() if key != axis}
    return (row.problem, row.solver, row.sigma_a, row.T,
            tuple(sorted(vals.items())))


@dataclass
class ConformanceReport:
    fits: dict = dc_field(default_factory=dict)       # (problem, solver) -> C
    slopes: dict = dc_field(default_factory=dict)     # (problem, solver, axis) -> slope
    violations: list = dc_field(default_factory=list)
    flagged: list = dc_field(default_factory=list)    # row indices
    notes: list = dc_field(default_factory=list)
    zero_bound_rows: int = 0  # rows held to error <= ZERO_BOUND_TOL

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = []
        for key in sorted(self.fits):
            lines.append(f"fit C[{key[0]}/{key[1]}] = {self.fits[key]:.6e}")
        for key in sorted(self.slopes):
            lines.append(
                f"slope[{key[0]}/{key[1]}] vs {key[2]} = {self.slopes[key]:+.3f}"
            )
        for n in self.notes:
            lines.append(f"note: {n}")
        for v in self.violations:
            lines.append(f"VIOLATION: {v}")
        if self.flagged:
            lines.append(f"flagged rows (excluded): {self.flagged}")
        if self.zero_bound_rows:
            lines.append(f"zero bound: {self.zero_bound_rows} rows checked for "
                         f"error <= {ZERO_BOUND_TOL:g}")
        lines.append("verdict: " + ("conformant" if self.ok else "NOT conformant"))
        return "\n".join(lines)


def fit_and_check(rows) -> ConformanceReport:
    """Fit one constant per (problem, solver) pair as C = max(error/bound),
    measure log-log slopes along every varying axis, and collect violations:
    an error above its bound as stated (C = 1), or a zero bound facing an
    error above ZERO_BOUND_TOL.  Flagged rows and rows without a bound
    (branch "none") are excluded."""
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError(f"conformance needs at least 3 rows, got {len(rows)}")
    rep = ConformanceReport()
    rep.flagged = [i for i, r in enumerate(rows) if r.flagged]
    usable = [r for r in rows if not r.flagged]

    ratios: dict = {}
    for r in usable:
        if r.branch == "none":
            continue
        if r.bound == 0.0:
            rep.zero_bound_rows += 1
            if r.error > ZERO_BOUND_TOL:
                rep.violations.append(
                    f"{r.problem}/{r.solver} N={r.N} dt={r.dt:g}: bound is 0 "
                    f"but error {r.error:.3e} exceeds {ZERO_BOUND_TOL:g}"
                )
            continue
        if r.error > r.bound:
            rep.violations.append(
                f"{r.problem}/{r.solver} N={r.N} dt={r.dt:g}: error {r.error:.3e} "
                f"exceeds the stated bound {r.bound:.3e} (C = 1)"
            )
        key = (r.problem, r.solver)
        ratios.setdefault(key, []).append(r.error / r.bound)
    for key, vals in ratios.items():
        rep.fits[key] = max(vals)

    for axis, (_, _, _, coord) in _AXES.items():
        groups: dict = {}
        for r in usable:
            groups.setdefault(_other_key(r, axis), []).append(r)
        slopes_here: dict = {}
        for members in groups.values():
            pts = sorted(
                {(coord(r), r.error) for r in members if r.error > 0.0}
            )
            xs = sorted({p[0] for p in pts})
            if len(xs) < 3:
                continue
            lx = np.log([p[0] for p in pts])
            ly = np.log([p[1] for p in pts])
            slope = float(np.polyfit(lx, ly, 1)[0])
            key = (members[0].problem, members[0].solver, axis)
            slopes_here.setdefault(key, []).append(slope)
            ordered = sorted(members, key=coord)
            if axis == "N":
                for a, b in zip(ordered, ordered[1:]):
                    if b.error > a.error * 1.05:
                        rep.notes.append(
                            f"{a.problem}/{a.solver}: error not monotone in N "
                            f"between N={a.N} and N={b.N}"
                        )
        for key, vals in slopes_here.items():
            rep.slopes[key] = float(np.mean(vals))
    return rep


# ---------------------------------------------------------------------------
# Plot emission


def emit_plot(rows, axis: str, svg_path=None, txt_path=None):
    """Log-log plot of error vs one sweep axis with the bound overlaid,
    plus a plain-text table; both byte-deterministic functions of the rows.
    A series with no positive point (an exact solver's zero errors) is left
    out of the plot; with none left, the SVG says so and the table stays."""
    from . import svgplot

    rows = list(rows)
    if not rows:
        raise ValueError("cannot plot an empty CSV")
    if axis not in _AXES:
        raise ValueError(f"unknown plot axis {axis!r}; choose one of {tuple(_AXES)}")
    _, _, label, coord = _AXES[axis]
    pts = sorted((coord(r), r.error) for r in rows)
    if len({p[0] for p in pts}) < 2:
        raise ValueError(f"axis {axis!r} does not vary across the rows")
    series = [("error", pts, "markers")]
    bnd = sorted(
        (coord(r), r.bound)
        for r in rows if r.branch != "none" and r.bound > 0.0
    )
    if bnd:
        series.append(("bound", bnd, "dashed"))
    series = [sr for sr in series if any(x > 0.0 and y > 0.0 for x, y in sr[1])]
    title = f"{rows[0].problem} / {rows[0].solver}"
    if series:
        svg = svgplot.log_log_plot(series, title=title, xlabel=label, ylabel="L2 error")
    else:
        svg = svgplot.note_plot("no positive error or bound to plot on log axes",
                                title=title)

    widths = (14, 24, 24, 14)
    header = ("%-*s %-*s %-*s %-*s" % (
        widths[0], label, widths[1], "error", widths[2], "bound", widths[3], "branch",
    )).rstrip()
    body = [header]
    for r in sorted(rows, key=coord):
        body.append(("%-*s %-*s %-*s %-*s" % (
            widths[0], _fmt(coord(r)), widths[1], _fmt(r.error),
            widths[2], _fmt(r.bound), widths[3], r.branch,
        )).rstrip())
    txt = "\n".join(body) + "\n"

    if svg_path is not None:
        with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    if txt_path is not None:
        with open(txt_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(txt)
    return svg, txt

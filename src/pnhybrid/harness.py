"""Configuration, manufactured problems, parameter sweeps, and conformance.

The harness turns a flat `key = value` config into solver runs, measures
errors against exact handles or high-degree references (with a Richardson
estimate of the reference's own error), evaluates the matching closed-form
bound for every run, and writes versioned CSV that the fit/plot stages and
the CLI consume.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction

import numpy as np

from . import bounds as bd
from . import grid as gr
from . import harmonics as sh
from . import hybrid as hy
from . import transport as tr


class ConfigError(ValueError):
    """Raised for malformed or contradictory run configuration."""


_SOLVERS = ("pn", "hybrid", "uncollided", "diffusion")

# The config schema: each section's keys, in RunSpec field order, with the
# kind its value is read as (see _convert).  A [sweep] key k is a
# comma-separated list stored in RunSpec.sweep_k.
_RUN_KINDS = {
    "problem": str, "solver": str, "N": int, "dt": "time", "eps": float,
    "sigma_t": float, "sigma_a": float, "T": "time", "s": int, "band": int,
    "n_ref": int, "out_csv": str, "plot_axis": str,
}
_SWEEP_KINDS = {"N": int, "dt": "time", "eps": float, "sigma": float}
_KINDS = {"run": _RUN_KINDS, "sweep": _SWEEP_KINDS}

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


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


def _check_number(text: str, line_no: int, key: str) -> str:
    if not _NUMBER_RE.match(text):
        raise ConfigError(
            f"line {line_no}: value for '{key}' must be a decimal or "
            f"scientific numeral, got {text!r}"
        )
    return text


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
        lines = fh.readlines()
    return parse_config_text(lines)


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
    _check_number(text, line_no, key)
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
    # The scattering-free problem has no cross sections to default to 1.
    if rs.problem == "streaming":
        rs.sigma_t = 0.0
    for key, kind in _RUN_KINDS.items():
        if key in run:
            no, text = run[key]
            setattr(rs, key, _convert(kind, text, no, key))
    if rs.solver not in _SOLVERS:
        raise ConfigError(f"unknown solver {rs.solver!r}; known: {', '.join(_SOLVERS)}")

    for key, kind in _SWEEP_KINDS.items():
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

    if rs.problem == "streaming":
        for key, values in (("sigma_t", (rs.sigma_t,)), ("sigma_a", (rs.sigma_a,)),
                            ("sigma", rs.sweep_sigma)):
            for v in values:
                if v != 0.0:
                    raise ConfigError(
                        f"{key} must be 0 for the scattering-free problem "
                        f"'streaming', got {v}"
                    )

    Ns = (rs.N,) + rs.sweep_N
    sigma_min = min((rs.sigma_t,) + rs.sweep_sigma)
    for key, values, ok, need in (
        ("N", Ns, lambda v: v >= 0, "nonnegative"),
        ("eps", (rs.eps,) + rs.sweep_eps, lambda v: v > 0, "positive"),
        ("sigma_t", (rs.sigma_t,), lambda v: v >= 0, "nonnegative"),
        ("sigma", rs.sweep_sigma, lambda v: v >= 0, "nonnegative"),
        ("sigma_a", (rs.sigma_a,), lambda v: 0 <= v <= sigma_min,
         f"in [0, {sigma_min:g}], the smallest sigma_t"),
        ("s", (rs.s,), lambda v: v is None or v >= 1, "at least 1"),
        ("band", (rs.band,), lambda v: v >= 0, "nonnegative"),
        ("n_ref", (rs.n_ref,), lambda v: v is None or v > max(Ns),
         f"above the largest N ({max(Ns)})"),
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
    return rs


def _emit(kind, value) -> str:
    return repr(value) if kind is float else str(value)


def emit_config(rs: RunSpec) -> str:
    """Canonical text form; parse(emit(parse(x))) == parse(x)."""
    lines = ["[run]"]
    for key, kind in _RUN_KINDS.items():
        value = getattr(rs, key)
        if value is not None and value != "":
            lines.append(f"{key} = {_emit(kind, value)}")
    axes = [(key, kind, getattr(rs, "sweep_" + key)) for key, kind in _SWEEP_KINDS.items()]
    if any(values for _, _, values in axes):
        lines += ["", "[sweep]"]
        lines += [f"{key} = " + ", ".join(_emit(kind, v) for v in values)
                  for key, kind, values in axes if values]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Manufactured problems


@dataclass(frozen=True)
class Manufactured:
    """A registry problem and its oracle.

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
    default_s: int  # regularity order used for bounds when the run sets none
    _solves: dict = dc_field(default_factory=dict, init=False, compare=False,
                             repr=False)
    _quads: dict = dc_field(default_factory=dict, init=False, compare=False,
                            repr=False)

    def quadrature(self, polar_order: int) -> sh.SphereQuadrature:
        """build_sphere_quadrature(polar_order), built once per object."""
        if polar_order not in self._quads:
            self._quads[polar_order] = sh.build_sphere_quadrature(polar_order)
        return self._quads[polar_order]

    def reference(self, solver: str, N: int, quad=None, n_ref=None):
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
        n1 = reference_degree(N, n_ref)
        for n in (n1, n1 + 4):
            if n not in self._solves:
                self._solves[n] = tr.solve_pn(spec, n, grid=grid).final
        ref, ref2 = self._solves[n1], self._solves[n1 + 4]
        return ref, moment_distance(ref, ref2)


def _cosine_spatial():
    return {(1, 0, 0): 0.5, (-1, 0, 0): 0.5}


def _isotropic_cosine(name):
    """Builder of an isotropic cos(x1) problem measured against P_N references."""
    def build(eps, sigma_t, sigma_a, T, dt, s, band):
        g = [gr.isotropic_term(_cosine_spatial())]
        return Manufactured(
            tr.problem(name, eps, sigma_t, g, sigma_a=sigma_a, T=T, dt=dt),
            exact="", default_s=2,
        )
    return build


def _build_aniso_decay(eps, sigma_t, sigma_a, T, dt, s, band):
    g = [gr.term({(0, 0, 0): 1.0}, (0.0, 0.0, 1.0, 0.0))]
    return Manufactured(
        tr.problem("aniso-decay", eps, sigma_t, g, sigma_a=sigma_a, T=T, dt=dt),
        exact="decay", default_s=2,
    )


def _build_streaming(eps, sigma_t, sigma_a, T, dt, s, band):
    """Scattering-free by definition: the cross sections are not read (the
    config parser rejects nonzero ones for this problem)."""
    g = [
        gr.isotropic_term(_cosine_spatial()),
        gr.term(_cosine_spatial(), (0.0, 0.0, 0.5, 0.0)),
    ]
    return Manufactured(
        tr.problem("streaming", eps, 0.0, g, sigma_a=0.0, T=T, dt=dt),
        exact="characteristics", default_s=2,
    )


def _build_sobolev(eps, sigma_t, sigma_a, T, dt, s, band):
    s_eff = 2 if s is None else int(s)
    if s_eff < 1:
        raise ConfigError(f"sobolev-s needs s >= 1, got {s_eff}")
    amps = [0.0] * sh.n_moments(band)
    for l in range(band + 1):
        amps[sh.ordinal(l, 0)] = (l + 0.5) ** (-(s_eff + 1))
    g = [gr.term(_cosine_spatial(), tuple(amps))]
    return Manufactured(
        tr.problem(f"sobolev-{s_eff}", eps, sigma_t, g, sigma_a=sigma_a, T=T, dt=dt),
        exact="", default_s=s_eff,
    )


PROBLEMS = {
    "iso-smooth": _isotropic_cosine("iso-smooth"),
    "aniso-decay": _build_aniso_decay,
    "streaming": _build_streaming,
    "sobolev-s": _build_sobolev,
    "diffusion-check": _isotropic_cosine("diffusion-check"),
}


def manufactured(name, eps=1.0, sigma_t=1.0, sigma_a=0.0, T="1", dt=None,
                 s=None, band=16) -> Manufactured:
    """Instantiate a registry problem with the given physical parameters."""
    try:
        build = PROBLEMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown problem {name!r}; known: {', '.join(sorted(PROBLEMS))}"
        ) from None
    return build(eps, sigma_t, sigma_a, T, dt, s, band)


def decay_solution(spec: tr.ProblemSpec, grid, N: int, t: float) -> gr.MomentField:
    """Exact solution for spatially constant data: the mean moment sees only
    absorption, every higher moment decays at sigma/eps^2 + sigma_a."""
    L = max(N, gr.angular_band(spec.g))
    coeffs = np.array(gr.moment_field(grid, L, spec.g).truncate(N).coeffs, copy=True)
    coeffs[..., 0] *= math.exp(-spec.sigma_a * t)
    rate = spec.sigma_t / spec.eps**2 + spec.sigma_a
    coeffs[..., 1:] *= math.exp(-rate * t)
    return gr.MomentField(grid, N, coeffs)


# ---------------------------------------------------------------------------
# Error measurement


def moment_distance(a: gr.MomentField, b: gr.MomentField) -> float:
    """L^2 distance between moment fields of possibly different degrees."""
    N = max(a.N, b.N)
    diff = sh.project_moments(a.coeffs, N) - sh.project_moments(b.coeffs, N)
    return gr.l2_norm(gr.MomentField(a.grid, N, diff))


def distance(solution, reference) -> float:
    """L^2 distance between a solution and its reference, in the
    representation their types call for: a flux reference compares scalar
    fluxes, two moment fields compare moments, and a nodal operand compares
    values at its quadrature nodes."""
    if isinstance(reference, np.ndarray):
        return tr.flux_error(solution, reference)
    if isinstance(solution, gr.MomentField):
        if isinstance(reference, gr.MomentField):
            return moment_distance(solution, reference)
        return gr.l2_norm(gr.evaluate_field(solution, reference.quad) - reference)
    if isinstance(reference, gr.MomentField):
        return gr.nodal_error_norm(solution, reference)
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
    report: bd.BoundReport | None = None
    hybrid: hy.HybridResult | None = None  # the hybrid solve, when there was one


def _evaluate_bound(spec, solver, s_eff, N, dt_run, grid):
    if solver not in ("pn", "hybrid"):
        return 0.0, "none", None
    family = solver
    if N < s_eff - 1:
        return 0.0, "none", None
    bi = bd.bound_inputs(spec, s_eff, N, dt=dt_run, grid=grid, family=family)
    if spec.sigma_a > 0.0:
        rep = bd.absorbing_bounds(bi, family)
    elif family == "pn":
        rep = bd.pn_error_bound(bi)
    else:
        rep = bd.hybrid_error_bound(bi)
    labeled = [t for t in rep.terms if t.branch]
    branch = max(labeled, key=lambda t: t.value).branch if labeled else ""
    return rep.total, branch or "flat", rep


def run_single(mf: Manufactured, solver: str, N: int, dt=None, n_ref=None,
               s=None) -> SingleResult:
    """Solve one parameter point, measure its error against the problem's
    oracle, and evaluate the matching bound with C = 1."""
    if solver not in _SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}")
    spec, T = mf.spec, mf.spec.t_final
    grid = tr.default_grid(spec)
    dt_run = float(tr._as_fraction(dt)) if dt is not None else float(spec.dt)
    s_eff = mf.default_s if s is None else int(s)

    res = quad = None
    if solver in ("pn", "diffusion"):
        solution = tr.solve_pn(spec, N, grid=grid).final
        if solver == "pn" and mf.exact == "characteristics":
            quad = measurement_quadrature(mf, N, T)
    else:
        # Nodal solvers: the quadrature also resolves the reference degree.
        degree = N + 1 if mf.exact else max(N + 1, reference_degree(N, n_ref))
        quad = measurement_quadrature(mf, degree, dt_run)
        if solver == "hybrid":
            res = hy.run_hybrid(spec, N, dt=dt_run, grid=grid, quad=quad)
            solution = res.total
        else:
            solution = tr.solve_uncollided(gr.nodal_field(grid, quad, spec.g), 0.0, T,
                                           spec.eps, spec.sigma_t, spec.sigma_a,
                                           q_terms=spec.q)

    reference, unc = mf.reference(solver, N, quad, n_ref)
    bound, branch, rep = _evaluate_bound(spec, solver, s_eff, N, dt_run, grid)
    return SingleResult(distance(solution, reference), unc, bound, branch, rep,
                        hybrid=res)


def sweep_points(rs: RunSpec):
    """The ordered parameter tuples (N, dt, eps, sigma_t) of a sweep."""
    if not (rs.sweep_N or rs.sweep_dt or rs.sweep_eps or rs.sweep_sigma):
        raise ConfigError("sweep requires at least one non-empty axis in [sweep]")
    Ns = rs.sweep_N or (rs.N,)
    dts = rs.sweep_dt or ((rs.dt,) if rs.dt is not None else (rs.T,))
    epss = rs.sweep_eps or (rs.eps,)
    sigmas = rs.sweep_sigma or (rs.sigma_t,)
    return [
        (N, dt, eps, sigma)
        for N in Ns for dt in dts for eps in epss for sigma in sigmas
    ]


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
                s=rs.s, band=rs.band,
            )
        out = run_single(mf, rs.solver, N, dt=dt, n_ref=rs.n_ref, s=rs.s)
        rows.append(SweepRow(
            problem=rs.problem, solver=rs.solver, N=N,
            dt=float(tr._as_fraction(dt)), eps=eps,
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


# Each sweep axis, in _SWEEP_KINDS order: its plot label and its
# coordinate in a row.
_AXES = {
    "N": ("N+1", lambda r: float(r.N + 1)),
    "dt": ("dt", lambda r: r.dt),
    "eps": ("eps", lambda r: r.eps),
    "sigma": ("sigma_t", lambda r: r.sigma_t),
}

# Largest error a row with a zero bound may carry: an exact solver's
# round-off.
ZERO_BOUND_TOL = 1e-8


def varying_axis(rows) -> str | None:
    """The first sweep axis along which the rows' coordinates differ, or
    None when every row sits at the same point."""
    for axis, (_, coord) in _AXES.items():
        if len({coord(r) for r in rows}) > 1:
            return axis
    return None


def _other_key(row: SweepRow, axis: str):
    vals = {a: coord(row) for a, (_, coord) in _AXES.items() if a != axis}
    return (row.problem, row.solver, row.sigma_a, row.T,
            tuple(sorted(vals.items())))


@dataclass
class ConformanceReport:
    fits: dict = dc_field(default_factory=dict)       # (problem, solver) -> C
    slopes: dict = dc_field(default_factory=dict)     # (problem, solver, axis) -> slope
    violations: list = dc_field(default_factory=list)
    flagged: list = dc_field(default_factory=list)    # row indices
    notes: list = dc_field(default_factory=list)

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
        lines.append("verdict: " + ("conformant" if self.ok else "NOT conformant"))
        return "\n".join(lines)


def fit_and_check(rows) -> ConformanceReport:
    """Fit one constant per (problem, solver) pair as C = max(error/bound),
    measure log-log slopes along every varying axis, and collect violations:
    a zero bound facing an error above ZERO_BOUND_TOL.  Flagged rows are
    excluded."""
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
            if r.error > ZERO_BOUND_TOL:
                rep.violations.append(
                    f"{r.problem}/{r.solver} N={r.N} dt={r.dt:g}: bound is 0 "
                    f"but error {r.error:.3e} exceeds {ZERO_BOUND_TOL:g}"
                )
            continue
        key = (r.problem, r.solver)
        ratios.setdefault(key, []).append(r.error / r.bound)
    for key, vals in ratios.items():
        rep.fits[key] = max(vals)

    for axis, (_, coord) in _AXES.items():
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
    label, coord = _AXES[axis]
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

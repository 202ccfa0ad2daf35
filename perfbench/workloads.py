"""The benchmark's workloads: the operations of one pass and their checks.

Each workload is a list of operations. An operation calls a public entry
point of pnhybrid (`cli.main`, `transport`, `hybrid`, `bounds`) and returns
a record of what the program produced. `run_pass` runs every operation
once and judges each one. An operation fails if it raises, produces a
non-finite value, exits with a code other than 0, breaks an invariant or
disagrees with the golden record kept in golden.json.

Golden numbers are compared with |got - want| <= RTOL*|want| + ATOL plus
one unit of the last printed digit. The tolerances come from the rule that
a fast path must agree with the dense path to 1e-12 relative: fields have
norms of order 10 here, so an error column (a difference of two fields) may
move by about 2e-11 absolutely, and ATOL leaves a factor of five above that.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import re
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

from pnhybrid import bounds as bd
from pnhybrid import cli
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import harness as hn
from pnhybrid import hybrid as hy
from pnhybrid import transport as tr

RTOL = 1e-9
ATOL = 1e-10
# Invariants that hold exactly in exact arithmetic, relative to the field's
# largest coefficient (reality, remap) or its norm (norm non-increase).
INVARIANT_RTOL = 1e-12

# Operations that fail at the commit that introduced the benchmark, with the
# message they fail with. They count as failed; any other failure makes the
# run incorrect.
KNOWN_FAILURES = {
    "verify-bounds streaming-dt":
        "exit 1: config error: conformance needs at least 3 rows, got 2",
}

DEFAULT_SEED = 0


def _flow(config):
    return [("sweep", config), ("verify-bounds", config), ("plot", config)]


# (CLI command, config name or None) in pass order.
CONFIG_WORKLOADS = {
    "verify-pn": _flow("sobolev-n-sweep") + _flow("diffusion-eps-sweep")
    + [("solve-pn", "aniso-decay-solve"), ("audit", None)],
    "verify-hybrid": _flow("hybrid-dt-diffusive") + _flow("hybrid-dt-streaming")
    + _flow("streaming-dt") + [("solve-hybrid", "hybrid-dt-streaming")],
}

WORKLOADS = ("verify-pn", "verify-hybrid", "ladder", "sourced")


class Context:
    """Inputs of one pass: the seed, the directory the CLI writes into, the
    seeded configs or problem specs, and the tracer (None when untraced)."""

    def __init__(self, workload, seed, root, work, tracer=None):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.tracer = tracer
        self.configs = {}
        self.spec = None
        self.norm0 = None  # L2 norm of the initial data of a sourceless problem

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()


# ---------------------------------------------------------------------------
# Input generation (part of set-up)


def setup(ctx):
    """Generate the workload's inputs from the seed."""
    if ctx.workload in CONFIG_WORKLOADS:
        names = {c for _, c in CONFIG_WORKLOADS[ctx.workload] if c}
        for name in sorted(names):
            rs = hn.parse_config(os.path.join(ctx.root, "configs", name + ".cfg"))
            rs.seed = ctx.seed
            path = os.path.join(ctx.work, name + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(hn.emit_config(rs))
            ctx.configs[name] = path
    elif ctx.workload == "ladder":
        ctx.spec = ladder_spec(ctx.seed)
        ctx.norm0 = gr.l2_norm(gr.moment_field(tr.default_grid(ctx.spec), 1, ctx.spec.g))
    elif ctx.workload == "sourced":
        ctx.spec = sourced_spec(ctx.seed)
    else:
        raise ValueError(f"unknown workload {ctx.workload!r}")


def _hermitian_amplitudes(rng, ks):
    """Random amplitudes with c(-k) = conj(c(k)), so the field is real."""
    amps = {}
    for k in ks:
        mk = tuple(-x for x in k)
        if k in amps:
            continue
        if k == mk:
            amps[k] = complex(rng.standard_normal())
        else:
            c = complex(rng.standard_normal(), rng.standard_normal()) / 2.0
            amps[k], amps[mk] = c, c.conjugate()
    return amps


def ladder_spec(seed):
    """3D problem on the 5x5x5 grid: every wavevector with |k_i| <= 2,
    isotropic plus P1 angular profile, eps = 0.5, sigma_t = 1, T = 1."""
    rng = np.random.default_rng([seed, 1])
    ks = list(itertools.product(range(-2, 3), repeat=3))
    amps = _hermitian_amplitudes(rng, ks)
    angular = (math.sqrt(4.0 * math.pi),) + tuple(0.5 * rng.standard_normal(3))
    return tr.problem("ladder", 0.5, 1.0, [gr.term(amps, angular)], T=1)


def sourced_spec(seed):
    """1D problem with a (1 + 0.5t) e^(-t) cos-type source with a P1
    profile; eps = 0.5, sigma_t = 1, T = 1, dt = T/4."""
    rng = np.random.default_rng([seed, 2])
    ks = [(k, 0, 0) for k in range(-2, 3)]
    g_amps = _hermitian_amplitudes(rng, ks)
    g_ang = (math.sqrt(4.0 * math.pi),) + tuple(0.5 * rng.standard_normal(3))
    a = 0.5 + abs(rng.standard_normal())
    q_ang = (math.sqrt(4.0 * math.pi), 0.0, 0.5 * rng.standard_normal(), 0.0)
    q = gr.term({(1, 0, 0): a / 2, (-1, 0, 0): a / 2}, q_ang,
                time_poly=(1.0, 0.5), time_exp=-1.0)
    return tr.problem("sourced", 0.5, 1.0, [gr.term(g_amps, g_ang)], q=[q],
                      T=1, dt=Fraction(1, 4))


# ---------------------------------------------------------------------------
# Operations


def operations(workload):
    """(key, function) pairs of one pass; each function takes the Context and
    returns (record, problems)."""
    if workload in CONFIG_WORKLOADS:
        return [(f"{cmd} {cfg}" if cfg else cmd,
                 lambda ctx, cmd=cmd, cfg=cfg: _cli_op(ctx, cmd, cfg))
                for cmd, cfg in CONFIG_WORKLOADS[workload]]
    if workload == "ladder":
        return [
            ("solve_pn N=7", lambda ctx: _pn_op(ctx, 7)),
            ("solve_pn N=11", lambda ctx: _pn_op(ctx, 11)),
            ("run_hybrid N=5", lambda ctx: _hybrid_op(
                ctx, 5, Fraction(1, 16), sh.build_sphere_quadrature(10))),
        ]
    if workload == "sourced":
        return [
            ("solve_pn N=3", lambda ctx: _pn_op(ctx, 3)),
            ("solve_pn N=7", lambda ctx: _pn_op(ctx, 7)),
            ("run_hybrid N=3", lambda ctx: _hybrid_op(ctx, 3, None, None)),
            ("run_hybrid N=7", lambda ctx: _hybrid_op(ctx, 7, None, None)),
            ("bound_inputs s=2", _bounds_op),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _normalize(text, ctx):
    return text.replace(ctx.work, "<out>")


def _drop_last_column(csv_text):
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cli_op(ctx, command, config):
    argv = [command]
    if config:
        argv += ["--config", ctx.configs[config]]
    argv += ["--out", ctx.work, "--seed", str(ctx.seed)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), ctx.span(f"cli.{command}"):
        code = cli.main(argv)
    record = {"exit": code, "stdout": _normalize(out.getvalue(), ctx),
              "stderr": _normalize(err.getvalue(), ctx)}
    problems = []
    if code != 0:
        problems.append(f"exit {code}: {record['stderr'].strip()}")
    if config and command in ("sweep", "plot") and code == 0:
        rs = hn.parse_config(ctx.configs[config])
        stem = os.path.join(ctx.work, os.path.splitext(rs.csv_name())[0])
        if command == "sweep":
            record["csv"] = _drop_last_column(_read(stem + ".csv"))
        else:
            record["txt"] = _read(stem + ".txt")
            if not _read(stem + ".svg").startswith("<svg"):
                problems.append("plot wrote no SVG")
    for key, text in record.items():
        if key != "exit" and re.search(r"\b(nan|inf)\b", text, re.IGNORECASE):
            problems.append(f"non-finite value in {key}")
    if command == "solve-hybrid":
        problems += _check_printed_remap_residuals(record["stdout"])
    return record, problems


def _check_printed_remap_residuals(stdout):
    """The record table of solve-hybrid ends each row with remap_resid."""
    _, header, table = stdout.partition("remap_resid")
    if not header:
        return ["no interval table"]
    problems = []
    for resid in table.split()[4::5]:
        if not float(resid) <= ATOL:
            problems.append(f"remap residual {resid} is not ~0")
    return problems


def _max_abs(data):
    return float(np.max(np.abs(data)))


def _field_checks(field, data, what):
    problems = []
    if not np.all(np.isfinite(data)):
        problems.append(f"{what}: non-finite values")
        return problems
    resid = gr.reality_residual(field)
    if resid > INVARIANT_RTOL * max(_max_abs(data), 1.0):
        problems.append(f"{what}: reality residual {resid:.3e}")
    return problems


def _pn_op(ctx, N):
    res = tr.solve_pn(ctx.spec, N, grid=tr.default_grid(ctx.spec))
    final = res.final
    norm = gr.l2_norm(final)
    problems = _field_checks(final, final.coeffs, f"P{N} final field")
    return {"norm": norm}, problems + _norm_growth(ctx, norm)


def _norm_growth(ctx, norm):
    if ctx.norm0 is not None and norm > ctx.norm0 * (1.0 + INVARIANT_RTOL):
        return [f"L2 norm grew from {ctx.norm0!r} to {norm!r}"]
    return []


def _hybrid_op(ctx, N, dt, quad):
    spec = ctx.spec
    res = hy.run_hybrid(spec, N, dt=dt, grid=tr.default_grid(spec), quad=quad)
    total = res.total
    norm = gr.l2_norm(total)
    problems = _field_checks(total, total.values, f"hybrid N={N} total")
    scale = max(_max_abs(total.values), 1.0)
    worst = max(rec.remap_residual for rec in res.records)
    if not worst <= INVARIANT_RTOL * scale:
        problems.append(f"remap residual {worst:.3e}")
    return {"norm": norm}, problems + _norm_growth(ctx, norm)


def _bounds_op(ctx):
    spec = ctx.spec
    grid = tr.default_grid(spec)
    pn = bd.pn_error_bound(bd.bound_inputs(spec, 2, 7, grid=grid, family="pn"))
    hyb = bd.hybrid_error_bound(bd.bound_inputs(spec, 2, 7, grid=grid,
                                                family="hybrid"))
    record = {"pn_bound": pn.total, "hybrid_bound": hyb.total}
    problems = [f"{k} is {v!r}" for k, v in record.items()
                if not math.isfinite(v) or v <= 0.0]
    return record, problems


# ---------------------------------------------------------------------------
# Golden comparison

_NUM = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _printed_unit(token):
    """Value of one unit in the last printed digit of a numeral."""
    mant, _, exp = token.lower().partition("e")
    decimals = len(mant.split(".", 1)[1]) if "." in mant else 0
    return 10.0 ** (int(exp or 0) - decimals)


def _close(got, want):
    a, b = float(got), float(want)
    if "." not in want and "e" not in want.lower():
        return a == b  # counts, degrees and indices must match exactly
    slack = max(_printed_unit(got), _printed_unit(want))
    return abs(a - b) <= slack + RTOL * abs(b) + ATOL


def compare_text(got, want):
    """None if the texts agree (numbers within tolerance), else a reason."""
    if _NUM.split(got) != _NUM.split(want):
        return "text differs"
    for g, w in zip(_NUM.findall(got), _NUM.findall(want)):
        if not _close(g, w):
            return f"{w} became {g}"
    return None


def compare_record(got, want):
    """Problems found comparing one operation's record with its golden."""
    problems = []
    for key in sorted(set(want) | set(got)):
        if key not in got or key not in want:
            problems.append(f"golden: {key} missing")
            continue
        g, w = got[key], want[key]
        if isinstance(w, str):
            why = compare_text(g, w)
        elif key == "exit":
            why = None if g == w else f"{w} became {g}"
        else:
            why = None if abs(g - w) <= RTOL * abs(w) + ATOL else f"{w!r} became {g!r}"
        if why:
            problems.append(f"golden {key}: {why}")
    return problems


def golden_applies(workload, seed):
    """Config workloads do not depend on the seed; the generated problems
    have golden values only at the default seed."""
    return workload in CONFIG_WORKLOADS or seed == DEFAULT_SEED


def run_pass(ctx, golden=None):
    """Run every operation of the workload once. Returns a list of
    {"op", "record", "problems", "seconds"} in pass order."""
    results = []
    for i, (key, fn) in enumerate(operations(ctx.workload)):
        if ctx.tracer:
            ctx.tracer.op = i
        start = time.perf_counter()
        try:
            with ctx.span(f"op {key}"):
                record, problems = fn(ctx)
        except Exception as exc:  # a raising operation is a failed operation
            record, problems = {}, [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        if golden is not None and record:
            if key in golden:
                problems += compare_record(record, golden[key])
            else:
                problems.append("golden: no record")
        results.append({"op": key, "record": record, "problems": problems,
                        "seconds": seconds})
    return results


def is_known_failure(result):
    return result["problems"] == [KNOWN_FAILURES.get(result["op"])]

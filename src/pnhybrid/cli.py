"""Command-line interface.

Subcommands: solve-pn, solve-hybrid, sweep, verify-bounds, audit, plot.
Exit codes: 0 success, 1 usage or configuration error, 2 audit or
conformance failure.  main returns the code and raises nothing.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bounds as bd
from . import harness as hn
from . import harmonics as sh


class _Exit(Exception):
    """Leave main with code after printing the message, if any, to stderr:
    every refusal (code 1) and --help (code 0) takes this one path."""

    def __init__(self, message="", code=1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits the process, with 2 on a usage error; here it raises
    _Exit for main, with 1 on a usage error as the contract wants."""

    def exit(self, status=0, message=None):
        raise _Exit(message or "", status)

    def error(self, message):
        raise _Exit(f"{self.format_usage()}{self.prog}: error: {message}")


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pnhybrid",
                     description="Spherical-harmonic transport solves, hybrid "
                                 "splitting, bound evaluation, and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, needs_config, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=needs_config, help="run config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_seed, default=0,
                       help="seed of the audit's random draws; every subcommand "
                            "accepts it")
    return parser


def _load(args) -> hn.RunSpec:
    try:
        return hn.parse_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc.reason})"
        raise _Exit(f"cannot read config {args.config}: {why}") from None
    except hn.ConfigError as exc:
        raise _Exit(f"config error: {exc}") from None


def _cmd_solve(args, solver) -> int:
    rs = _load(args)
    try:
        mf = hn.manufactured(rs.problem, eps=rs.eps, sigma_t=rs.sigma_t,
                             sigma_a=rs.sigma_a, T=rs.T, dt=rs.dt, s=rs.s,
                             band=rs.band, n_ref=rs.n_ref)
        out = hn.run_single(mf, solver, rs.N)
    except hn.ConfigError as exc:
        raise _Exit(f"config error: {exc}") from None
    dt = f"  dt={out.dt:g}" if solver == "hybrid" else ""
    print(f"problem        {rs.problem}")
    print(f"solver         {solver}  N={rs.N}{dt}  eps={rs.eps:g}  sigma_t={rs.sigma_t:g}"
          f"  sigma_a={rs.sigma_a:g}  T={rs.T}")
    print(f"error          {out.error:.6e}")
    print(f"oracle_unc     {out.oracle_uncertainty:.6e}")
    if out.report is not None:
        print(out.report.to_text())
    if solver == "pn":
        label, dt_star = bd.regime_advisor(rs.eps, rs.sigma_t, mf.spec.t_final, mf.s)
        print(f"regime         {label} (dt crossover {dt_star:.3e})")
        return 0
    print("interval  t_end      |psi_u|        |psi_c|        remap_resid")
    for rec in out.hybrid.records:
        print(f"{rec.m:8d}  {rec.t_end:<9.4g}  {rec.norm_u:<13.6e}  "
              f"{rec.norm_c:<13.6e}  {rec.remap_residual:.3e}")
    return 0


def _csv_path(rs: hn.RunSpec, out_dir: str) -> str:
    return os.path.join(out_dir, rs.csv_name())


def _read_csv(path: str) -> list:
    try:
        return hn.read_csv(path)
    except ValueError as exc:
        raise _Exit(f"csv error: {exc}") from None


def _run_sweep(rs: hn.RunSpec, out_dir: str) -> list:
    """Run the sweep and write its CSV into out_dir, made first."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise _Exit(f"cannot create output directory {out_dir}: {exc.strerror}") from None
    try:
        rows = hn.run_sweep(rs)
    except hn.ConfigError as exc:
        raise _Exit(f"config error: {exc}") from None
    path = _csv_path(rs, out_dir)
    hn.write_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return rows


def _cmd_sweep(args) -> int:
    rows = _run_sweep(_load(args), args.out)
    flagged = [i for i, r in enumerate(rows) if r.flagged]
    if flagged:
        print(f"WARNING: {len(flagged)} rows have oracle uncertainty above 10% "
              f"of the measured error: rows {flagged}")
    return 0


def _cmd_verify_bounds(args) -> int:
    rs = _load(args)
    path = _csv_path(rs, args.out)
    if os.path.exists(path):
        rows = _read_csv(path)
        print(f"reusing {len(rows)} rows from {path}")
    else:
        rows = _run_sweep(rs, args.out)
    try:
        report = hn.fit_and_check(rows)
    except ValueError as exc:
        raise _Exit(f"config error: {exc}") from None
    print(report.to_text())
    return 0 if report.ok else 2


def _cmd_audit(args) -> int:
    failures = 0

    rep = bd.audit_inequalities(seed=args.seed)
    print(f"inequality audit: {rep.checks_run} checks, "
          f"{len(rep.violations)} violations")
    for v in rep.violations[:10]:
        print(f"  VIOLATION: {v}")
    failures += len(rep.violations)

    worst = 0.0
    for n in range(1, 10):
        cs = sh.assemble_coupling(n)
        oracle = sh.coupling_oracle(n, sh.build_sphere_quadrature(n + 1))
        for axis in (1, 2, 3):
            diff = cs.full_matrix(axis) - oracle.full_matrix(axis)
            worst = max(worst, float(np.max(np.abs(diff))))
        if cs.max_spectral_norm() > 4.0:
            print(f"  VIOLATION: spectral norm exceeds 4 at N={n}")
            failures += 1
    print(f"coupling oracle: worst entry difference {worst:.3e} over N<=9")
    if worst >= 1e-12:
        print("  VIOLATION: coupling tables disagree with the quadrature oracle")
        failures += 1

    kf = bd.kernel_functions()
    kworst = 0.0
    for tau in np.linspace(0.9 * bd.TAU_STAR, 1.1 * bd.TAU_STAR, 21):
        for fn in kf.values():
            c = fn(float(tau), "closed")
            kworst = max(kworst, abs(fn(float(tau), "series") - c) / abs(c))
    print(f"kernel branches: worst relative disagreement {kworst:.3e} near switch")
    if kworst > 1e-13:
        print("  VIOLATION: kernel branch disagreement above 1e-13")
        failures += 1

    print("audit: " + ("PASS" if failures == 0 else f"FAIL ({failures})"))
    return 0 if failures == 0 else 2


def _cmd_plot(args) -> int:
    rs = _load(args)
    path = _csv_path(rs, args.out)
    if not os.path.exists(path):
        raise _Exit(f"no CSV at {path}; run the sweep first")
    rows = _read_csv(path)
    axis = rs.plot_axis or hn.varying_axis(rows)
    if axis is None:
        raise _Exit("no axis varies in the CSV; set plot_axis")
    stem = os.path.splitext(path)[0]
    try:
        hn.emit_plot(rows, axis, svg_path=stem + ".svg", txt_path=stem + ".txt")
    except ValueError as exc:
        raise _Exit(f"plot error: {exc}") from None
    print(f"wrote {stem}.svg and {stem}.txt")
    return 0


# name -> (help text, whether --config is required, handler)
_COMMANDS = {
    "solve-pn": ("one monolithic solve, summary to stdout", True,
                 lambda args: _cmd_solve(args, "pn")),
    "solve-hybrid": ("one hybrid solve with per-interval records", True,
                     lambda args: _cmd_solve(args, "hybrid")),
    "sweep": ("run the sweep grid and write CSV", True, _cmd_sweep),
    "verify-bounds": ("fit constants and check bound conformance", True,
                      _cmd_verify_bounds),
    "audit": ("run the inequality and coupling-oracle audits", False, _cmd_audit),
    "plot": ("emit SVG + text table from a sweep CSV", True, _cmd_plot),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except _Exit as exc:
        if str(exc):
            print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

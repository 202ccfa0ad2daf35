import glob
import math
import os
import re
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest

from pnhybrid import bounds as bd
from pnhybrid import cli
from pnhybrid import grid as gr
from pnhybrid import harmonics as sh
from pnhybrid import harness as hn
from pnhybrid import hybrid as hy
from pnhybrid import transport as tr

import oracles

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _parse_text(text):
    return hn.parse_config_text(text.splitlines())


def test_minimal_config_defaults():
    rs = _parse_text("[run]\nproblem = iso-smooth\nsolver = pn\nN = 3\n")
    assert rs.problem == "iso-smooth"
    assert rs.N == 3
    assert rs.eps == 1.0 and rs.sigma_t == 1.0 and rs.sigma_a == 0.0
    assert rs.T == "1" and rs.dt is None
    assert rs.sweep_N == ()


def test_unknown_key_reports_line():
    text = "[run]\nproblem = iso-smooth\nwavelength = 3\n"
    with pytest.raises(hn.ConfigError, match="line 3.*wavelength"):
        _parse_text(text)
    with pytest.raises(hn.ConfigError, match="line 2.*before any"):
        _parse_text("# comment\nkey = 1\n")
    with pytest.raises(hn.ConfigError, match="line 1.*section"):
        _parse_text("[experiment]\n")
    with pytest.raises(hn.ConfigError, match="line 2"):
        _parse_text("[run]\nno equals sign here\n")


# A repeated key once kept its last value: N = 9 in the first row, (2, 4)
# from the second [sweep] section in the other.
@pytest.mark.parametrize("body,message", [
    ("[run]\nproblem = iso-smooth\nN = 3\nN = 9\n",
     "line 4: key 'N' in [run] repeats line 3"),
    ("[run]\nproblem = iso-smooth\n[sweep]\nN = 1\n[sweep]\nN = 2, 4\n",
     "line 6: key 'N' in [sweep] repeats line 4"),
])
def test_repeated_key_is_refused(tmp_path, capsys, body, message):
    with pytest.raises(hn.ConfigError, match=f"^{re.escape(message)}$"):
        _parse_text(body)
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text(body)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


# Dense matrices past hn.DENSE_MATRIX_BYTES (256 MiB): the widest degree n
# a run assembles takes (n + 1)^4 x 16 B, n = reference_degree + 4 for a
# problem measured against P_N references and N otherwise, and the band-b
# data (b + 1)^2 x 16 B per mode (3 modes for sobolev-s).  Parsed only,
# never solved.
@pytest.mark.parametrize("problem,body,refused", [
    ("sobolev-s", "N = 26", None),  # degree 62: 252 MB
    ("sobolev-s", "N = 27", ("N", 27, 285610000)),  # degree 64
    ("sobolev-s", "[sweep]\nN = 1, 27", ("N", 27, 285610000)),
    ("sobolev-s", "n_ref = 59", None),
    ("sobolev-s", "n_ref = 60", ("n_ref", 60, 285610000)),
    ("sobolev-s", "solver = diffusion\nN = 63", None),  # no P_N reference
    ("aniso-decay", "N = 63", None),  # exact oracle: degree N, 256 MiB
    ("aniso-decay", "N = 64", ("N", 64, 285610000)),
    ("sobolev-s", "band = 2363", None),
    ("sobolev-s", "band = 2364", ("band", 2364, 268474800)),
])
def test_configs_past_the_dense_matrix_budget_are_refused(problem, body, refused):
    text = f"[run]\nproblem = {problem}\n{body}\n"
    if refused is None:
        _parse_text(text)
        return
    key, value, size = refused
    with pytest.raises(hn.ConfigError, match=(
            f"^{key} must keep each dense matrix within 268435456 B, got {key}={value}, "
            f"whose widest takes {size} B$")):
        _parse_text(text)


def test_schedule_constraint_in_config():
    text = "[run]\nproblem = iso-smooth\nT = 1.0\ndt = 0.3\n"
    with pytest.raises(hn.ConfigError, match="M\\*dt != T"):
        _parse_text(text)
    # sweep values are checked too
    text = "[run]\nproblem = iso-smooth\n[sweep]\ndt = 0.5, 0.3\n"
    with pytest.raises(hn.ConfigError, match="M\\*dt != T"):
        _parse_text(text)


def test_numeral_validation():
    with pytest.raises(hn.ConfigError, match="numeral"):
        _parse_text("[run]\nproblem = iso-smooth\neps = 1/2\n")
    rs = _parse_text("[run]\nproblem = iso-smooth\neps = 2.5e-1\n")
    assert rs.eps == 0.25


def test_unknown_problem_and_solver():
    with pytest.raises(hn.ConfigError, match="unknown problem"):
        _parse_text("[run]\nproblem = mystery\n")
    with pytest.raises(hn.ConfigError, match="unknown solver"):
        _parse_text("[run]\nproblem = iso-smooth\nsolver = montecarlo\n")


def test_config_round_trip_bundled():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
    assert len(paths) >= 5
    for path in paths:
        rs = hn.parse_config(path)
        again = hn.parse_config_text(hn.emit_config(rs).splitlines())
        assert again == rs, path


def test_emit_config_writes_every_key_in_table_order():
    text = ("[run]\nproblem = iso-smooth\nsolver = hybrid\nN = 3\ndt = 0.25\n"
            "eps = 0.5\nsigma_t = 2.0\nsigma_a = 0.5\nT = 1\ns = 2\nband = 8\n"
            "n_ref = 9\nout_csv = a.csv\nplot_axis = dt\n\n[sweep]\nN = 1, 3\n"
            "dt = 0.5, 0.25\neps = 0.5, 1.0\nsigma = 1.0, 2.0\n")
    # Shuffled keys and spacing, integer-looking floats: the same canonical text.
    shuffled = ("[sweep]\nsigma = 1, 2\neps=.5,1\ndt = 0.5,0.25\nN = 1 , 3\n[run]\n"
                "plot_axis = dt\nout_csv = a.csv\nn_ref = 9\nband = 8\ns = 2\nT = 1\n"
                "sigma_a = 5e-1\nsigma_t = 2\neps = 0.5\ndt = 0.25\nN = 3\n"
                "solver = hybrid\nproblem = iso-smooth\n")
    for source in (text, shuffled):
        assert hn.emit_config(_parse_text(source)) == text
    # Unset optional keys and empty axes are left out.
    assert hn.emit_config(hn.RunSpec(problem="iso-smooth")) == (
        "[run]\nproblem = iso-smooth\nsolver = pn\nN = 5\neps = 1.0\n"
        "sigma_t = 1.0\nsigma_a = 0.0\nT = 1\nband = 16\n"
    )


def test_registry_membership():
    for name in ("iso-smooth", "aniso-decay", "streaming", "sobolev-s",
                 "diffusion-check"):
        mf = hn.manufactured(name)
        assert mf.spec.eps == 1.0
    with pytest.raises(hn.ConfigError, match="unknown problem"):
        hn.manufactured("mystery")


def test_aniso_decay_exact_handle():
    mf = hn.manufactured("aniso-decay", eps=0.5, sigma_t=1.25)
    assert mf.exact == "decay"
    grid = tr.default_grid(mf.spec)
    f = hn.decay_solution(mf.spec, grid, 3, 0.8)
    want = math.exp(-1.25 * 0.8 / 0.25)
    assert f.coeffs[0, 0, 0, 2].real == pytest.approx(want, rel=1e-15)
    # and the monolithic solver reproduces it to machine precision
    out = hn.run_single(mf, "pn", 3)
    assert out.error < 1e-12


def test_distance_of_flux_reference():
    spec = tr.problem("d", eps=1.0, sigma_t=1.0, T=1, g=[gr.isotropic_term(
        {(0, 0, 0): 1.0, (1, 0, 0): 0.5, (-1, 0, 0): 0.5})])
    grid = tr.default_grid(spec)
    f = tr.initial_field(spec, grid, N=1)
    ref = gr.scalar_flux(f)
    assert hn.distance(f, ref) == 0.0
    bumped = ref.copy()
    bumped[grid.index_of((0, 0, 0))] += 0.5
    # ||0.5||_{L^2} on a dim-1 grid = 0.5 sqrt(2 pi)
    assert hn.distance(f, bumped) == pytest.approx(0.5 * math.sqrt(2 * math.pi), rel=1e-14)


def test_distance_between_nodal_and_moment_fields():
    rng = np.random.default_rng(8)
    g = gr.SpatialGrid(dim=1, modes=3)
    N = 3
    quad = sh.build_sphere_quadrature(N + 3)
    coeffs = oracles.hermitian(rng.standard_normal(g.shape + (sh.n_moments(N),)) + 0.0j)
    f = gr.MomentField(g, N, coeffs)
    nodal = gr.evaluate_field(f, quad)
    assert hn.distance(nodal, f) < 1e-12
    g2 = gr.MomentField(g, N, coeffs * 1.25)
    expect = 0.25 * gr.l2_norm(f)
    assert hn.distance(nodal, g2) == pytest.approx(expect, rel=1e-12)
    # Either operand may be the nodal one: the same float both ways.
    assert hn.distance(g2, nodal) == hn.distance(nodal, g2)


def test_streaming_exact_handle():
    mf = hn.manufactured("streaming", eps=0.7)
    assert mf.spec.sigma_t == 0.0
    out = hn.run_single(mf, "hybrid", 3, dt="0.25")
    assert out.error < 1e-13
    assert out.bound == 0.0


def test_sobolev_tail_sums():
    # Angular amplitudes (l+1/2)^(-s-1) with s=2: the H^(0,3) seminorm grows
    # with the band limit while H^(0,2) is Cauchy in it.
    n16 = hn.manufactured("sobolev-s", s=2, band=16)
    n64 = hn.manufactured("sobolev-s", s=2, band=64)
    g16 = tr.initial_field(n16.spec, tr.default_grid(n16.spec), 16)
    g64 = tr.initial_field(n64.spec, tr.default_grid(n64.spec), 64)
    s3_16 = gr.hs_seminorm(g16, 3)
    s3_64 = gr.hs_seminorm(g64, 3)
    s2_16 = gr.hs_seminorm(g16, 2)
    s2_64 = gr.hs_seminorm(g64, 2)
    assert s3_64 > s3_16 * 2.0          # measured ratio 2.1044
    assert abs(s2_64 - s2_16) < 0.06 * s2_16   # measured change 4.91%


@pytest.mark.parametrize("name", sorted(hn.PROBLEMS))
@pytest.mark.parametrize("s, want", [(None, 2), (3, 3)])
def test_run_single_bound_uses_the_runs_s(name, s, want):
    mf = hn.manufactured(name, s=s, n_ref=3)
    assert mf.s == want
    out = hn.run_single(mf, "pn", 2)
    direct = bd.pn_error_bound(bd.bound_inputs(mf.spec, want, 2))
    assert (out.bound, out.report.to_text()) == (direct.total, direct.to_text())


@pytest.mark.parametrize("key,value", [("s", 2.5), ("s", True), ("n_ref", 9.0),
                                       ("n_ref", False), ("n_ref", "9")])
def test_manufactured_refuses_orders_that_are_not_integers(key, value):
    # int() used to turn s = 2.5 into 2 without a word.
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
        hn.manufactured("iso-smooth", **{key: value})


@pytest.mark.parametrize("n_ref", [1, 3])
def test_run_single_refuses_a_reference_degree_not_above_n(n_ref):
    # N = 3 was measured against a degree-1 reference (error 0.474).
    mf = hn.manufactured("iso-smooth", n_ref=n_ref)
    with pytest.raises(hn.ConfigError, match=rf"^n_ref must be above N \(3\), got {n_ref}$"):
        hn.run_single(mf, "pn", 3)


def test_sweep_points_and_empty_axes():
    rs = hn.RunSpec(problem="iso-smooth", sweep_N=(1, 3), sweep_eps=(0.5, 1.0))
    pts = hn.sweep_points(rs)
    assert len(pts) == 4
    assert pts[0][0] == 1 and pts[-1][0] == 3
    with pytest.raises(hn.ConfigError, match="non-empty axis"):
        hn.sweep_points(hn.RunSpec(problem="iso-smooth"))


def test_sweep_errors_decrease_in_degree():
    rs = _parse_text(
        "[run]\nproblem = sobolev-s\nsolver = pn\ns = 2\n"
        "[sweep]\nN = 1, 3, 5\n"
    )
    rows = hn.run_sweep(rs)
    errs = [r.error for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(r.bound > 0 for r in rows)
    assert not any(r.flagged for r in rows)


def test_sweep_streaming_below_tolerance():
    rs = _parse_text(
        "[run]\nproblem = streaming\nsolver = hybrid\nN = 3\n"
        "[sweep]\ndt = 1, 0.25\n"
    )
    rows = hn.run_sweep(rs)
    assert all(r.error < 1e-8 for r in rows)


def test_sweep_rows_equal_fresh_single_runs(tmp_path):
    # The sweep shares one Manufactured (and its reference solves) per
    # (eps, sigma); every row must still equal a run on a fresh one.
    rs = _parse_text(
        "[run]\nproblem = iso-smooth\nsolver = pn\n"
        "[sweep]\nN = 1, 2, 3\neps = 0.5, 1\n"
    )
    rows1 = hn.run_sweep(rs)
    assert [(r.N, r.eps) for r in rows1] == [(N, e) for N in (1, 2, 3) for e in (0.5, 1.0)]
    for r in rows1:
        mf = hn.manufactured(rs.problem, eps=r.eps, sigma_t=r.sigma_t, T=rs.T)
        out = hn.run_single(mf, rs.solver, r.N, dt=rs.T)
        assert (r.error, r.oracle_uncertainty, r.bound, r.branch) == (
            out.error, out.oracle_uncertainty, out.bound, out.branch)
    rows2 = hn.run_sweep(rs)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    hn.write_csv(rows1, p1)
    hn.write_csv(rows2, p2)

    def strip_walltime(path):
        return [ln.rsplit(",", 1)[0] for ln in open(path).read().splitlines()]

    assert strip_walltime(p1) == strip_walltime(p2)


def _reference_degrees(monkeypatch, rs):
    """Degrees of the P_N solves a sweep makes, the solved points excluded."""
    degrees = []
    solve_pn = tr.solve_pn

    def counting(spec, N, *args, **kwargs):
        degrees.append(N)
        return solve_pn(spec, N, *args, **kwargs)

    monkeypatch.setattr(tr, "solve_pn", counting)
    hn.run_sweep(rs)
    return [d for d in degrees if rs.solver != "pn" or d not in rs.sweep_N]


def test_sweep_solves_each_reference_degree_once(monkeypatch):
    # References sit at 2N+6 and 2N+10, so N = 1, 3, 5 needs 8, 12, 16, 20.
    rs = _parse_text(
        "[run]\nproblem = sobolev-s\nsolver = pn\ns = 2\n"
        "[sweep]\nN = 1, 3, 5\n"
    )
    assert _reference_degrees(monkeypatch, rs) == [8, 12, 16, 20]
    # An n_ref override puts every point's references at n_ref and n_ref + 4.
    rs = _parse_text(
        "[run]\nproblem = sobolev-s\nsolver = pn\nn_ref = 9\n"
        "[sweep]\nN = 1, 3\n"
    )
    assert _reference_degrees(monkeypatch, rs) == [9, 13]


def test_hybrid_dt_sweep_shares_references(monkeypatch):
    rs = _parse_text(
        "[run]\nproblem = iso-smooth\nsolver = hybrid\nN = 1\n"
        "[sweep]\ndt = 1, 0.5, 0.25, 0.125\n"
    )
    assert _reference_degrees(monkeypatch, rs) == [8, 12]


def test_sweep_builds_each_measurement_quadrature_once(monkeypatch):
    # Every point of this hybrid dt sweep asks for the same polar order; the
    # points share one Manufactured and, through it, one rule per order.
    built, asked = [], []
    real_build = sh.build_sphere_quadrature
    real_measure = hn.measurement_quadrature

    def build(polar_order):
        built.append(polar_order)
        return real_build(polar_order)

    def measure(*args):
        quad = real_measure(*args)
        asked.append(quad)
        return quad

    monkeypatch.setattr(sh, "build_sphere_quadrature", build)
    monkeypatch.setattr(hn, "measurement_quadrature", measure)
    rs = _parse_text(
        "[run]\nproblem = iso-smooth\nsolver = hybrid\nN = 1\n"
        "[sweep]\ndt = 1, 0.5, 0.25, 0.125\n"
    )
    hn.run_sweep(rs)
    assert len(asked) == 4
    assert sorted(built) == sorted(set(built))  # one build per polar order
    assert len({id(q) for q in asked}) == len(built)


_BAD_VALUES = [
    ("N = 3\ns = 0", "s"),
    ("N = 3\nband = -1", "band"),
    ("N = 5\nn_ref = 5", "n_ref"),
    ("N = 1\nn_ref = 4\n[sweep]\nN = 1, 5", "n_ref"),
    # Parsed and swept before, refused only by plot.
    ("plot_axis = foo", "plot_axis"),
    ("sigma_t = -1", "sigma_t"),
    ("[sweep]\nsigma = 1, -0.5", "sigma"),
    ("[sweep]\neps = 1, 0", "eps"),
    ("sigma_a = 1.5", "sigma_a"),
    ("sigma_a = -0.1", "sigma_a"),
    ("sigma_a = 0.5\n[sweep]\nsigma = 1, 0.25", "sigma_a"),
    ("eps = 1e400", "eps"),
    ("sigma_t = 1e400", "sigma_t"),
    ("[sweep]\neps = 1, 1e400", "eps"),
    ("[sweep]\nsigma = 1, 1e400", "sigma"),
    ("T = 1e400", "T"),
    ("dt = 1e-400", "dt"),
    ("[sweep]\ndt = 0.5, 1e-400", "dt"),
    ("solver = diffusion\nsigma_t = 0", "sigma_t"),
    ("solver = diffusion\n[sweep]\nsigma = 1, 0", "sigma"),
    # Past MAX_INTERVALS: parsed and refused, never scheduled.
    ("dt = 1e-9", "dt"),
    ("dt = 5e-324", "dt"),
    ("T = 2\n[sweep]\ndt = 1, 1e-6", "dt"),
]


@pytest.mark.parametrize("body,key", _BAD_VALUES)
def test_bad_values_rejected_at_parse(tmp_path, capsys, body, key):
    text = "[run]\nproblem = sobolev-s\n" + body + "\n"
    with pytest.raises(hn.ConfigError, match=f"^{key} must"):
        _parse_text(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must")
    assert "Traceback" not in err


# Legal numerals that a solver or a bound takes past the float range: each
# passed the parser and ended in a traceback out of cli.main after its solve.
@pytest.mark.parametrize("line,key", [
    ("eps = 1e-200", "eps"),  # eps^2 underflows to 0: ZeroDivisionError
    ("eps = 1e-150", "eps"),  # (T/eps)^3 overflows: OverflowError
    ("sigma_t = 1e300", "sigma_t"),  # sigma^2 overflows: OverflowError
    ("sigma_t = 1e-320", "sigma_t"),  # sigma^2 underflows: ZeroDivisionError
    ("s = 400", "s"),  # s! is no float: OverflowError
])
def test_values_past_the_float_range_refused_before_any_solve(tmp_path, capsys, line, key):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(f"[run]\nproblem = iso-smooth\nsolver = pn\nN = 3\n{line}\n")
    assert cli.main(["solve-pn", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {key} must")
    assert float(err.rsplit("got ", 1)[1]) == float(line.split(" = ")[1])


# Legal numerals whose P_N solve and reference leave the float range: each
# printed "error nan" and exited 0.  At N = 3, sigma_t/eps^2 = 1e30 still
# solves to a finite error.
@pytest.mark.parametrize("line", [
    "eps = 1e-20",
    "eps = 1e-100",
    "sigma_t = 1e40",
    "sigma_t = 1e150",
])
def test_solves_that_leave_the_float_range_are_refused(tmp_path, capsys, line):
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(f"[run]\nproblem = iso-smooth\nsolver = pn\nN = 3\n{line}\n")
    assert cli.main(["solve-pn", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: eps and sigma_t must keep the pn solve")
    assert "got error nan" in err and "Traceback" not in err


# Stiff hybrid configs asked hybrid_step for about 2 (sigma/eps^2) dt / 3
# substeps per interval with nothing to bound them: eps = 1e-20 ran past
# 120 s.  They are refused at parse time; no solve may start.
@pytest.mark.parametrize("body,need", [
    ("eps = 1e-20", "6.67e+39"),
    ("eps = 1e-4", "6.67e+07"),
    ("eps = 1e-3\nT = 2\ndt = 0.5", "1.33e+06"),
    ("eps = 1e-80\n[sweep]\nsigma = 1e150, 2e150", "inf"),  # sigma/eps^2 overflows
])
def test_stiff_hybrid_configs_refused_before_any_solve(tmp_path, capsys, monkeypatch,
                                                       body, need):
    def no_solve(*args, **kwargs):
        raise AssertionError("a refused config started a solve")

    monkeypatch.setattr(hn, "run_single", no_solve)
    monkeypatch.setattr(hy, "run_hybrid", no_solve)
    text = f"[run]\nproblem = iso-smooth\nsolver = hybrid\nN = 3\n{body}\n"
    key = "sigma" if "[sweep]" in body else "sigma_t"
    with pytest.raises(hn.ConfigError, match=f"^eps and {key} must leave at most "
                                             f"{tr.MAX_INTERVALS} Duhamel substeps"):
        _parse_text(text)
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(text)
    assert cli.main(["solve-hybrid", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: eps and")
    assert f"at least {need} at dt=" in err


def test_hybrid_substep_limit_counts_every_interval():
    # 2 (sigma/eps^2) dt / 3 = 666,667 substeps in one interval: accepted, and
    # twice that over two intervals refused.  Parsed only, never solved.
    rs = _parse_text("[run]\nproblem = iso-smooth\nsolver = hybrid\neps = 1e-3\n")
    assert rs.eps == 1e-3
    with pytest.raises(hn.ConfigError, match="at least 1.33e\\+06 at dt=1$"):
        _parse_text("[run]\nproblem = iso-smooth\nsolver = hybrid\neps = 1e-3\nT = 2\n"
                    "dt = 1\n")
    # Without scattering the hybrid takes no substep.
    rs = _parse_text("[run]\nproblem = iso-smooth\nsolver = hybrid\neps = 1e-20\n"
                     "sigma_t = 0\n")
    assert rs.sigma_t == 0.0


def test_edge_values_accepted():
    rs = _parse_text("[run]\nproblem = sobolev-s\nN = 5\nn_ref = 6\ns = 1\n"
                     "band = 0\nsigma_t = 0.5\nsigma_a = 0.5\n")
    assert (rs.n_ref, rs.s, rs.band, rs.sigma_a) == (6, 1, 0, 0.5)
    rs = _parse_text(f"[run]\nproblem = sobolev-s\nT = 2\ndt = {2 / tr.MAX_INTERVALS}\n")
    assert Fraction(rs.T) / Fraction(rs.dt) == tr.MAX_INTERVALS
    # Only the diffusion solver needs sigma_t > 0.
    rs = _parse_text("[run]\nproblem = iso-smooth\nsolver = diffusion\nsigma_t = 0.5\n"
                     "[sweep]\nsigma = 0.5, 1\n")
    assert rs.sweep_sigma == (0.5, 1.0)
    assert _parse_text("[run]\nproblem = sobolev-s\nsigma_t = 0\n").sigma_t == 0.0
    # The float-range checks refuse only what overflows or underflows.
    assert _parse_text(f"[run]\nproblem = iso-smooth\ns = {hn.MAX_S}\n").s == 170
    rs = _parse_text("[run]\nproblem = iso-smooth\neps = 1e-100\nsigma_t = 1e150\n")
    assert (rs.eps, rs.sigma_t) == (1e-100, 1e150)
    assert _parse_text("[run]\nproblem = iso-smooth\nsolver = diffusion\ns = 400\n").s == 400


def test_diffusion_solver_refuses_the_streaming_problem(tmp_path, capsys):
    # The scattering-free problem has sigma_t = 0: the diffusion limit does
    # not exist there.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nproblem = streaming\nsolver = diffusion\n"
                   "[sweep]\nN = 1, 2\n")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: sigma_t must be positive for the diffusion solver, got 0.0\n"


def test_csv_round_trip(tmp_path):
    rows = [
        hn.SweepRow("iso-smooth", "pn", 3, 0.25, 1.0, 1.0, 0.0, 1.0,
                    1.2345678901234567e-3, 1e-9, 0.5, "streaming", 0.01),
        hn.SweepRow("iso-smooth", "pn", 5, 0.25, 1.0, 1.0, 0.0, 1.0,
                    2.5e-4, 0.0, 0.25, "diffusive", 0.02),
    ]
    path = tmp_path / "rows.csv"
    hn.write_csv(rows, path)
    back = hn.read_csv(path)
    assert back == rows
    assert open(path).readline() == (
        "schema,problem,solver,N,dt,eps,sigma_t,sigma_a,T,error,"
        "oracle_uncertainty,bound,branch,walltime_s\n"
    )
    assert open(path).readlines()[1].startswith("1,")


def test_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        hn.read_csv(path)
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="columns"):
        hn.read_csv(path)


def test_sweep_rows_are_frozen():
    row = _synthetic_rows()[0]
    with pytest.raises(FrozenInstanceError):
        row.error = -1.0
    with pytest.raises(ValueError, match="^error must be nonnegative"):
        replace(row, error=-1.0)


def test_sweep_row_validation():
    with pytest.raises(ValueError):
        hn.SweepRow("p", "pn", 1, 1.0, 1.0, 1.0, 0.0, 1.0,
                    -1.0, 0.0, 0.0, "none", 0.0)
    with pytest.raises(ValueError):
        hn.SweepRow("p", "pn", 1, 1.0, 1.0, 1.0, 0.0, 1.0,
                    1.0, 0.0, -2.0, "none", 0.0)


@pytest.mark.parametrize("field", ["error", "oracle_uncertainty", "bound"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sweep_row_rejects_non_finite(field, value):
    fields = dict(error=1.0, oracle_uncertainty=0.0, bound=1.0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        hn.SweepRow("p", "pn", 1, 1.0, 1.0, 1.0, 0.0, 1.0,
                    fields["error"], fields["oracle_uncertainty"], fields["bound"],
                    "none", 0.0)


def _synthetic_rows():
    rows = []
    for N in (1, 3, 7, 15):
        err = 3.0 * (N + 1.0) ** -2
        rows.append(hn.SweepRow("synthetic", "pn", N, 1.0, 1.0, 1.0, 0.0, 1.0,
                                err, 0.0, 10.0 * (N + 1.0) ** -2, "streaming",
                                0.0))
    return rows


def test_fit_recovers_synthetic_slope():
    rep = hn.fit_and_check(_synthetic_rows())
    slope = rep.slopes[("synthetic", "pn", "N")]
    assert slope == pytest.approx(-2.0, abs=0.01)
    assert rep.fits[("synthetic", "pn")] == pytest.approx(0.3, rel=1e-12)
    assert rep.ok
    assert "conformant" in rep.to_text()


def test_fit_requires_three_rows():
    with pytest.raises(ValueError, match="3 rows"):
        hn.fit_and_check(_synthetic_rows()[:2])


def test_fit_flags_zero_bound_with_error():
    rows = _synthetic_rows()
    rows.append(hn.SweepRow("synthetic", "pn", 31, 1.0, 1.0, 1.0, 0.0, 1.0,
                            0.5, 0.0, 0.0, "streaming", 0.0))
    rep = hn.fit_and_check(rows)
    assert not rep.ok
    assert any("bound is 0" in v for v in rep.violations)
    # A zero bound facing a tiny error is conformant.
    rows[-1] = replace(rows[-1], error=1e-12)
    rep = hn.fit_and_check(rows)
    assert rep.ok


def test_fit_reports_how_many_rows_the_zero_bound_rule_checked():
    # The aniso-decay-n-sweep rows: exact solves whose bounds are all 0.
    # Their verdict once read only "conformant", naming no check at all.
    rows = [hn.SweepRow("aniso-decay", "pn", N, 1.0, 0.5, 1.0, 0.0, 1.0, 0.0, 0.0,
                        0.0, "diffusive", 0.0) for N in (1, 3, 5)]
    rep = hn.fit_and_check(rows)
    assert rep.ok and rep.zero_bound_rows == 3
    assert rep.to_text() == ("zero bound: 3 rows checked for error <= 1e-08\n"
                             "verdict: conformant")
    # A row without a bound, or flagged, is not checked; no such row, no line.
    rows[0] = replace(rows[0], branch="none")
    rows[1] = replace(rows[1], oracle_uncertainty=1.0)
    assert hn.fit_and_check(rows).zero_bound_rows == 1
    rep = hn.fit_and_check(_synthetic_rows())
    assert rep.zero_bound_rows == 0 and "zero bound" not in rep.to_text()


def test_fit_flags_error_above_stated_bound():
    # The bounds are stated with C = 1: a row above its bound violates them,
    # though the fitted C still covers it.
    rows = _synthetic_rows()
    rows[2] = replace(rows[2], error=2.0 * rows[2].bound)
    rep = hn.fit_and_check(rows)
    assert rep.violations == [
        f"synthetic/pn N=7 dt=1: error {rows[2].error:.3e} exceeds the stated "
        f"bound {rows[2].bound:.3e} (C = 1)"
    ]
    assert rep.fits[("synthetic", "pn")] == pytest.approx(2.0, rel=1e-12)
    # Rows without a bound (branch "none") are not held to one.
    rows[2] = replace(rows[2], branch="none")
    assert hn.fit_and_check(rows).ok


def test_fit_excludes_flagged_rows():
    rows = _synthetic_rows()
    # Oracle uncertainty swamps the error: the ratio of this row would
    # dominate the fit if it were kept.
    rows.append(hn.SweepRow("synthetic", "pn", 31, 1.0, 1.0, 1.0, 0.0, 1.0,
                            5.0, 4.9, 1e-6, "streaming", 0.0))
    rep = hn.fit_and_check(rows)
    assert rep.flagged == [4]
    assert rep.fits[("synthetic", "pn")] == pytest.approx(0.3, rel=1e-12)


def test_emit_plot_deterministic(tmp_path):
    rows = _synthetic_rows()
    svg1, txt1 = hn.emit_plot(rows, "N")
    svg2, txt2 = hn.emit_plot(rows, "N",
                              svg_path=tmp_path / "p.svg",
                              txt_path=tmp_path / "p.txt")
    assert svg1 == svg2
    assert txt1 == txt2
    assert (tmp_path / "p.svg").read_text() == svg1
    assert svg1.count("<circle") == len(rows)
    assert 'stroke-dasharray' in svg1  # bound overlay present
    assert "N+1" in txt1 and "streaming" in txt1


def test_emit_plot_errors():
    with pytest.raises(ValueError, match="empty"):
        hn.emit_plot([], "N")
    with pytest.raises(ValueError, match="axis"):
        hn.emit_plot(_synthetic_rows(), "zeta")
    one_n = [r for r in _synthetic_rows() if r.N == 1]
    with pytest.raises(ValueError, match="vary"):
        hn.emit_plot(one_n * 3, "N")


def test_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\nproblem = sobolev-s\nsolver = pn\ns = 2\n"
        "out_csv = run.csv\nplot_axis = N\n"
        "[sweep]\nN = 1, 3, 5\n"
    )
    out = str(tmp_path)
    assert cli.main(["sweep", "--config", str(cfg), "--out", out]) == 0
    assert os.path.exists(tmp_path / "run.csv")
    assert cli.main(["verify-bounds", "--config", str(cfg), "--out", out]) == 0
    text = capsys.readouterr().out
    assert "reusing" in text and "conformant" in text
    assert cli.main(["plot", "--config", str(cfg), "--out", out]) == 0
    assert os.path.exists(tmp_path / "run.svg")
    assert os.path.exists(tmp_path / "run.txt")


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["solve-pn", "--config", missing]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nproblem = iso-smooth\nT = 1.0\ndt = 0.3\n")
    assert cli.main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "M*dt != T" in err
    # verify-bounds exits 2 on a violating CSV
    rows = _synthetic_rows()
    rows.append(hn.SweepRow("sobolev-s", "pn", 31, 1.0, 1.0, 1.0, 0.0, 1.0,
                            0.5, 0.0, 0.0, "streaming", 0.0))
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[run]\nproblem = sobolev-s\nsolver = pn\nout_csv = v.csv\n"
                   "[sweep]\nN = 1, 3\n")
    hn.write_csv(rows, tmp_path / "v.csv")
    assert cli.main(["verify-bounds", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2


def test_verify_bounds_exits_two_on_error_above_bound(tmp_path, capsys):
    rows = _synthetic_rows()[:3]
    rows[1] = replace(rows[1], error=1.5 * rows[1].bound)
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[run]\nproblem = sobolev-s\nsolver = pn\nout_csv = v.csv\n"
                   "[sweep]\nN = 1, 3, 7\n")
    hn.write_csv(rows, tmp_path / "v.csv")
    assert cli.main(["verify-bounds", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert (f"VIOLATION: synthetic/pn N=3 dt=1: error {rows[1].error:.3e} exceeds "
            f"the stated bound {rows[1].bound:.3e} (C = 1)\n") in out
    assert out.endswith("verdict: NOT conformant\n")


@pytest.mark.parametrize("command, config, out, message", [
    ("solve-pn", ".", None, "cannot read config {config}: Is a directory"),
    ("solve-pn", "binary.cfg", None, "cannot read config {config}: not UTF-8 text"),
    ("sweep", "run.cfg", "taken", "cannot create output directory {out}: File exists"),
    ("verify-bounds", "run.cfg", "taken",
     "cannot create output directory {out}: File exists"),
])
def test_cli_file_errors_exit_one_with_one_line(tmp_path, capsys, command, config, out,
                                                message):
    (tmp_path / "run.cfg").write_text("[run]\nproblem = aniso-decay\nN = 1\n"
                                      "[sweep]\nN = 1, 2\n")
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe[run]\nproblem = aniso-decay\n")
    (tmp_path / "taken").write_text("")
    config, out = str(tmp_path / config), str(tmp_path / (out or "out"))
    assert cli.main([command, "--config", config, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message.format(config=config, out=out))
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("column, text", [
    ("error", "nan"), ("error", "inf"), ("bound", "nan"),
    ("dt", "nan"), ("dt", "inf"), ("dt", "0"), ("dt", "-0.25"),
    ("eps", "nan"), ("eps", "0"), ("T", "inf"), ("T", "-1"),
    ("sigma_t", "nan"), ("sigma_t", "-1"), ("sigma_a", "inf"), ("sigma_a", "-0.5"),
    ("N", "-1"),
])
@pytest.mark.parametrize("command", ["verify-bounds", "plot"])
def test_cli_rejects_non_finite_csv_rows(tmp_path, capsys, command, column, text):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[run]\nproblem = sobolev-s\nsolver = pn\nout_csv = v.csv\n"
                   "[sweep]\nN = 1, 3\n")
    hn.write_csv(_synthetic_rows(), tmp_path / "v.csv")
    lines = (tmp_path / "v.csv").read_text().splitlines()
    parts = lines[2].split(",")
    parts[hn.CSV_COLUMNS.index(column)] = text
    lines[2] = ",".join(parts)
    (tmp_path / "v.csv").write_text("\n".join(lines) + "\n")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "conformant" not in captured.out
    if not math.isfinite(float(text)):
        need = "finite"
    else:
        need = "positive" if column in ("dt", "eps", "T") else "nonnegative"
    assert captured.err.startswith(f"csv error: {tmp_path / 'v.csv'}: {column} must be {need}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_every_subcommand_accepts_seed(tmp_path, capsys):
    # The option stays on every subcommand and changes no exit code; only
    # the audit reads it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nproblem = aniso-decay\nsolver = pn\nN = 1\n"
                   "out_csv = run.csv\nplot_axis = N\n[sweep]\nN = 1, 2, 3\n")
    for command in ("solve-pn", "solve-hybrid", "sweep", "verify-bounds", "plot",
                    "audit"):
        argv = [command, "--out", str(tmp_path)]
        if command != "audit":
            argv += ["--config", str(cfg)]
        plain = cli.main(argv)
        plain_out = capsys.readouterr().out
        assert cli.main(argv + ["--seed", "3"]) == plain == 0, command
        if command != "audit":
            assert capsys.readouterr().out == plain_out, command
    with pytest.raises(hn.ConfigError, match="unknown key 'seed'"):
        _parse_text("[run]\nproblem = iso-smooth\nseed = 0\n")


@pytest.mark.parametrize("command", ["solve-pn", "solve-hybrid", "sweep", "verify-bounds",
                                     "plot", "audit"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nproblem = aniso-decay\nN = 1\n[sweep]\nN = 1, 2\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"pnhybrid {command}: error: argument --seed: "
                                 "must be a nonnegative integer, got -1\n")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_audit_seed_reaches_the_audit_rng(tmp_path, monkeypatch, capsys):
    seeds = []
    real = np.random.default_rng

    def rng(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", rng)
    assert cli.main(["audit", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert cli.main(["audit", "--out", str(tmp_path)]) == 0
    assert seeds == [3, 0]


def test_cli_usage_error_is_exit_one(capsys):
    # main returns every code and raises nothing, usage errors and --help
    # included.
    assert cli.main(["sweep"]) == 1  # missing --config
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pnhybrid sweep")
    assert captured.err.endswith("pnhybrid sweep: error: the following arguments "
                                 "are required: --config\n")
    assert cli.main([]) == 1
    assert "pnhybrid: error: the following arguments are required" in capsys.readouterr().err
    for argv in (["--help"], ["plot", "--help"]):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: pnhybrid") and captured.err == ""


def test_streaming_cross_sections_default_to_zero():
    rs = _parse_text("[run]\nproblem = streaming\nsolver = hybrid\n")
    assert (rs.sigma_t, rs.sigma_a) == (0.0, 0.0)
    rs = _parse_text("[run]\nproblem = streaming\nsigma_t = 0\nsigma_a = 0.0\n"
                     "[sweep]\nsigma = 0, 0.0\n")
    assert (rs.sigma_t, rs.sigma_a, rs.sweep_sigma) == (0.0, 0.0, (0.0, 0.0))
    # Other problems keep the unit default.
    assert _parse_text("[run]\nproblem = iso-smooth\n").sigma_t == 1.0
    # The shipped config round-trips with its cross section written out.
    rs = hn.parse_config(os.path.join(CONFIG_DIR, "streaming-dt.cfg"))
    text = hn.emit_config(rs)
    assert "sigma_t = 0.0\n" in text
    assert hn.parse_config_text(text.splitlines()) == rs


@pytest.mark.parametrize("body,key", [
    ("sigma_t = 1", "sigma_t"),
    ("sigma_a = 0.5", "sigma_a"),
    ("sigma_t = 0.5\nsigma_a = 0.5", "sigma_t"),
    ("[sweep]\nsigma = 0, 1", "sigma"),
])
def test_streaming_rejects_cross_sections(tmp_path, capsys, body, key):
    text = "[run]\nproblem = streaming\nsolver = hybrid\n" + body + "\n"
    with pytest.raises(hn.ConfigError, match=f"^{key} must be 0 for the "
                                             "scattering-free problem 'streaming'"):
        _parse_text(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    for command in ("solve-pn", "sweep"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be 0")
        assert "Traceback" not in err


def test_streaming_solve_reports_zero_sigma(tmp_path, capsys):
    cfg = os.path.join(CONFIG_DIR, "streaming-dt.cfg")
    assert cli.main(["solve-pn", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sigma_t=0  sigma_a=0" in out


def test_plot_of_exact_solver_sweep(tmp_path, capsys):
    cfg = tmp_path / "exact.cfg"
    cfg.write_text("[run]\nproblem = streaming\nsolver = uncollided\n"
                   "out_csv = exact.csv\n[sweep]\nN = 1, 2, 3\n")
    out = str(tmp_path)
    assert cli.main(["sweep", "--config", str(cfg), "--out", out]) == 0
    rows = hn.read_csv(tmp_path / "exact.csv")
    assert [r.error for r in rows] == [0.0, 0.0, 0.0]
    assert cli.main(["plot", "--config", str(cfg), "--out", out]) == 0
    assert "plot error" not in capsys.readouterr().err
    svg = (tmp_path / "exact.svg").read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert "no positive error or bound to plot" in svg
    assert "<circle" not in svg and "<polyline" not in svg
    txt = (tmp_path / "exact.txt").read_text().splitlines()
    assert txt[0].split() == ["N+1", "error", "bound", "branch"]
    assert [line.split()[:2] for line in txt[1:]] == [["2", "0"], ["3", "0"], ["4", "0"]]


def test_plot_picks_the_varying_axis(tmp_path, capsys):
    # No plot_axis: plot takes the first axis along which the rows differ.
    cfg = tmp_path / "dt.cfg"
    cfg.write_text("[run]\nproblem = iso-smooth\nsolver = hybrid\nout_csv = dt.csv\n"
                   "[sweep]\ndt = 1, 0.5, 0.25\n")
    rows = [hn.SweepRow("iso-smooth", "hybrid", 5, dt, 1.0, 1.0, 0.0, 1.0,
                        0.1 * dt, 0.0, dt, "interval", 0.0) for dt in (1.0, 0.5, 0.25)]
    hn.write_csv(rows, tmp_path / "dt.csv")
    assert cli.main(["plot", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    txt = (tmp_path / "dt.txt").read_text().splitlines()
    assert txt[0].split() == ["dt", "error", "bound", "branch"]
    assert [line.split()[0] for line in txt[1:]] == ["0.25", "0.5", "1"]

    # Rows at a single point vary along no axis.
    hn.write_csv(rows[:1] * 3, tmp_path / "dt.csv")
    assert cli.main(["plot", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "no axis varies in the CSV; set plot_axis\n"


def test_plot_drops_only_the_empty_series():
    rows = _synthetic_rows()
    svg, _ = hn.emit_plot([replace(r, bound=0.0) for r in rows], "N")
    assert svg.count("<circle") == len(rows)
    assert "stroke-dasharray" not in svg  # no bound series left
    svg, _ = hn.emit_plot([replace(r, error=0.0) for r in rows], "N")
    assert "<circle" not in svg and "stroke-dasharray" in svg

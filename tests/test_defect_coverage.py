"""Defect coverage of the shipped checks: each row injects one defect, runs
a shipped sweep config through run_sweep and fit_and_check (what
verify-bounds runs), and states which rule catches it.  The defects reach
the generator that every P_N solve and every P_N reference is built from
(a 10% error in one term) or the uncollided flow of the hybrid (its rates
conjugated, so each direction streams the wrong way).  Mutation testing in
the sense of DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978.

aniso-decay-n-sweep sits at k = 0, where the streaming term vanishes, so it
has no streaming row.  streaming-dt cannot catch the uncollided defect: its
characteristics oracle runs the same uncollided_flow, so the defect moves
solve and reference alike (errors 0 and 1.1e-15)."""

import dataclasses
import os

import numpy as np
import pytest

from pnhybrid import harness as hn
from pnhybrid import transport as tr

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

_ASSEMBLE = tr.assemble_mode_operator
_FLOW = tr.uncollided_flow


def _streaming_defect(k, N, eps, sigma, coupling, sigma_a=0.0):
    """The x-streaming term scaled by 1.1."""
    L = _ASSEMBLE(k, N, eps, sigma, coupling, sigma_a)
    nm = L.shape[0]
    return L + 0.1 * (-1j * k[0] / eps) * coupling.full_matrix(1)[:nm, :nm]


def _scattering_defect(k, N, eps, sigma, coupling, sigma_a=0.0):
    """The -sigma/eps^2 diagonal scaled by 1.1."""
    L = _ASSEMBLE(k, N, eps, sigma, coupling, sigma_a)
    idx = np.arange(1, L.shape[0])
    L[idx, idx] -= 0.1 * sigma / eps**2
    return L


def _uncollided_defect(*args, **kwargs):
    """The uncollided flow with every rate conjugated: the sign of the
    streaming rate i k.Omega/eps flipped."""
    flow = _FLOW(*args, **kwargs)
    distinct = np.conj(flow.distinct)
    distinct.flags.writeable = False
    return dataclasses.replace(flow, distinct=distinct)


# Each defect: the transport function it replaces, and its replacement.
_DEFECTS = {"streaming": ("assemble_mode_operator", _streaming_defect),
            "scattering": ("assemble_mode_operator", _scattering_defect),
            "uncollided": ("uncollided_flow", _uncollided_defect)}

# The rule a violation names: an error above its bound as stated (C = 1),
# or an error where the bound is 0.
_RULES = {"stated": "exceeds the stated bound", "zero": "bound is 0 but error 1.514e-02"}

# The P_N self-convergence reference is built by the same generator as the
# solve it checks, so it carries the defect; an independent oracle would
# turn these rows into catches.
_OWN_REFERENCE = pytest.mark.xfail(
    strict=True, reason="the P_N reference carries the defect it should catch")


def _verdict(config):
    rs = hn.parse_config(os.path.join(CONFIG_DIR, config + ".cfg"))
    return hn.fit_and_check(hn.run_sweep(rs))


# hybrid-dt-diffusive's bound is flat in dt, 7.854e-02 at every dt and some
# 36,000 times the error without a defect (2.149e-06), so a 10% defect stays
# under it at C = 1 (errors up to 8.6e-03), and so do the conjugated
# uncollided rates (errors from 2.1e-06 at dt = 1 to 5.3e-02 at dt =
# 0.125), and the fitted C checks nothing further.  Under every defect the
# error grows as dt shrinks, where the config says it should be
# independent of dt: a refinement rule on that trend would catch all three
# rows.
_FLAT_BOUND = pytest.mark.xfail(
    strict=True, reason="the flat bound of hybrid-dt-diffusive sits above the defect's "
                        "error at C = 1; a refinement rule on the error's trend in dt "
                        "would catch it")


@pytest.mark.parametrize("config", ["hybrid-dt-streaming", "hybrid-dt-diffusive",
                                    "aniso-decay-n-sweep"])
def test_configs_conform_without_a_defect(config):
    rep = _verdict(config)
    assert rep.ok, rep.violations


@pytest.mark.parametrize("config,defect,rule", [
    ("hybrid-dt-streaming", "streaming", "stated"),   # all 4 rows
    ("hybrid-dt-streaming", "scattering", "stated"),  # 3 rows, not dt = 1
    ("hybrid-dt-streaming", "uncollided", "stated"),  # all 4 rows
    ("aniso-decay-n-sweep", "scattering", "zero"),    # all 3 rows
    pytest.param("sobolev-n-sweep", "streaming", "stated", marks=_OWN_REFERENCE),
    pytest.param("sobolev-n-sweep", "scattering", "stated", marks=_OWN_REFERENCE),
    # All three through the skipped re-emission drive of the diffusive substeps.
    pytest.param("hybrid-dt-diffusive", "streaming", "stated", marks=_FLAT_BOUND),
    pytest.param("hybrid-dt-diffusive", "scattering", "stated", marks=_FLAT_BOUND),
    pytest.param("hybrid-dt-diffusive", "uncollided", "stated", marks=_FLAT_BOUND),
])
def test_injected_defect_fails_verification(monkeypatch, config, defect, rule):
    monkeypatch.setattr(tr, *_DEFECTS[defect])
    rep = _verdict(config)
    assert rep.violations, "defect not caught"
    assert all(_RULES[rule] in v for v in rep.violations), rep.violations

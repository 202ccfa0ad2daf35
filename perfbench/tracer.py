"""Per-layer trace of pnhybrid, recorded from outside the program.

`install` replaces public functions of the pnhybrid modules with wrappers
that put a span around each call; `Tracer.restore` puts the originals back.
A span is [name, start, end, parent index, operation id, attribute]. Spans
stay in memory until the pass ends; `layer_metrics` then derives call
counts, self time (span minus its direct children) and total time (spans
not nested in a span of the same name) for every layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module, functions) wrapped by name; the span is called "<module>.<function>".
_FUNCTIONS = {
    "harmonics": ("basis_matrix", "assemble_coupling", "build_sphere_quadrature"),
    "grid": ("moment_field", "project_field", "evaluate_field"),
    "transport": ("solve_uncollided",),
    "hybrid": ("run_hybrid", "hybrid_step", "remap"),
    "bounds": ("data_norms", "audit_inequalities"),
    "harness": ("fit_and_check", "write_csv", "emit_plot"),
}

# (layer, fields) reported by layer_metrics, in output order. Fields are
# calls, self_s and total_s; the extra fields are derived below.
LAYERS = (
    ("harmonics.basis_matrix", ("calls", "self_s")),
    ("harmonics.assemble_coupling", ("calls", "self_s")),
    ("harmonics.build_sphere_quadrature", ("calls",)),
    ("grid.moment_field", ("calls", "self_s")),
    ("grid.project_field", ("calls", "self_s", "total_s")),
    ("grid.evaluate_field", ("calls", "self_s", "total_s")),
    ("transport.PnOperator", ("calls", "self_s", "total_s")),
    ("transport.expm", ("calls", "self_s")),
    ("transport.propagator", ("calls",)),
    ("transport.step", ("calls", "self_s", "total_s")),
    ("transport.solve_uncollided", ("calls", "self_s", "total_s")),
    ("transport.solve_pn", ("calls", "total_s")),
    ("hybrid.run_hybrid", ("calls", "total_s")),
    ("hybrid.hybrid_step", ("calls", "self_s", "total_s")),
    ("hybrid.remap", ("calls", "self_s", "total_s")),
    ("bounds.data_norms", ("calls", "self_s")),
    ("bounds.audit_inequalities", ("calls", "self_s")),
    ("harness.run_single", ("calls", "total_s")),
    ("harness.fit_and_check", ("calls", "self_s")),
    ("harness.write_csv", ("calls", "self_s")),
    ("harness.emit_plot", ("calls", "self_s")),
)
CLI_COMMANDS = ("sweep", "verify-bounds", "plot", "solve-pn", "solve-hybrid", "audit")
SOURCE = "transport.step.source"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, attr=None):
        """fn with a span around each call; attr(args, kwargs, stack)
        computes the span's attribute before the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            value = attr(args, kwargs, stack) if attr else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, value]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def patch(self, owner, attr_name, name, attr=None, body=None):
        """Replace owner.attr_name by a traced version (of body, if given).
        A name the program no longer has is skipped, so its layer reads 0."""
        original = owner.__dict__.get(attr_name)
        if original is None:
            return
        self._undo.append((owner, attr_name, original))
        setattr(owner, attr_name, self.wrap(name, body or original, attr))

    def restore(self):
        while self._undo:
            owner, attr_name, original = self._undo.pop()
            setattr(owner, attr_name, original)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def install(tracer):
    """Wrap the public functions of every pnhybrid layer."""
    import importlib

    mods = {m: importlib.import_module(f"pnhybrid.{m}")
            for m in ("harmonics", "grid", "transport", "hybrid", "bounds", "harness")}
    for mod, names in _FUNCTIONS.items():
        for fn in names:
            tracer.patch(mods[mod], fn, f"{mod}.{fn}")
    tr, hn = mods["transport"], mods["harness"]

    tracer.patch(tr, "expm", "transport.expm",
                 attr=lambda a, k, stack: int(_arg(a, k, 0, "A").shape[0]))
    op_class = tr.__dict__.get("PnOperator")
    if op_class is not None:
        tracer.patch(op_class, "__init__", "transport.PnOperator")
        tracer.patch(op_class, "propagator", "transport.propagator")
        step = op_class.__dict__.get("step")
        if step is not None:
            def traced_source_step(*args, **kwargs):
                # Count source samples by wrapping the callable passed in.
                if kwargs.get("source") is not None:
                    kwargs["source"] = tracer.wrap(SOURCE, kwargs["source"])
                elif len(args) > 3 and args[3] is not None:
                    args = args[:3] + (tracer.wrap(SOURCE, args[3]),) + args[4:]
                return step(*args, **kwargs)

            tracer.patch(op_class, "step", "transport.step", body=traced_source_step)

    spans = tracer.spans
    tracer.patch(hn, "run_single", "harness.run_single",
                 attr=lambda a, k, stack: _arg(a, k, 2, "N"))

    def oracle_flag(args, kwargs, stack):
        """A solve_pn under run_single at another degree than the point's N
        is a reference (oracle) solve."""
        for i in reversed(stack):
            if spans[i][0] == "harness.run_single":
                return _arg(args, kwargs, 1, "N") != spans[i][5]
        return False

    tracer.patch(tr, "solve_pn", "transport.solve_pn", attr=oracle_flag)


def layer_metrics(spans, wall_s):
    """Per-layer numbers of one traced pass of wall_s seconds."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    stats = {}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        st = stats.setdefault(s[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            st["total_s"] += dur

    def get(layer, field):
        return stats.get(layer, {}).get(field, 0)

    out = {}
    for layer, fields in LAYERS:
        for field in fields:
            out[f"{layer}.{field}"] = get(layer, field)
    expms = [s for s in spans if s[0] == "transport.expm"]
    out["transport.expm.dim3_sum"] = sum(s[5] ** 3 for s in expms)
    out["transport.expm.share"] = get("transport.expm", "self_s") / wall_s
    props = get("transport.propagator", "calls")
    out["transport.propagator.hit_ratio"] = 1.0 - len(expms) / props if props else 0.0
    out["transport.step.source_samples"] = get(SOURCE, "calls")
    out["transport.step.source_s"] = get(SOURCE, "total_s")
    oracle = [s for s in spans if s[0] == "transport.solve_pn" and s[5]]
    single = get("harness.run_single", "total_s")
    out["harness.oracle.calls"] = len(oracle)
    out["harness.oracle.total_s"] = sum(s[2] - s[1] for s in oracle)
    out["harness.oracle.share"] = out["harness.oracle.total_s"] / single if single else 0.0
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.total_s"] = get(f"cli.{cmd}", "total_s")
    out["trace.spans"] = len(spans)
    return out

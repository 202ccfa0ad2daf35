"""One workload process: set up, run one pass, print one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T --work DIR

run.py starts a fresh worker for every pass. --spawned-at is the parent's
time.perf_counter() just before the start; the clock is system-wide, so
setup_s covers interpreter start, the imports of pnhybrid, numpy and
scipy.linalg, config parsing and input generation. With --warmup the worker
only imports, which compiles the bytecode caches before anything is timed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
# OpenBLAS builds prefix and suffix their symbols differently.
_BLAS_SYMBOLS = [(f"{prefix}get_num_threads{suffix}", f"{prefix}get_config{suffix}")
                 for suffix in ("64_", "") for prefix in ("scipy_openblas_", "openblas_")]


def import_program():
    """Import pnhybrid from the checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import pnhybrid

    if not os.path.abspath(pnhybrid.__file__).startswith(src + os.sep):
        raise ImportError(f"pnhybrid imported from {pnhybrid.__file__}, not {src}")


def blas_info():
    """Version and thread count of every OpenBLAS loaded in this process.
    The benchmark records the thread setting; it never changes it."""
    out = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _BLAS_SYMBOLS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                threads, config = getattr(lib, threads_name), getattr(lib, config_name)
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                out.append({"lib": os.path.basename(path), "threads": threads(),
                            "config": config().decode().strip()})
                break
    return out


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "seed": seed,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float)
    p.add_argument("--work")
    p.add_argument("--warmup", action="store_true")
    args = p.parse_args(argv)

    import_program()
    import workloads as wl

    if args.warmup:
        import tracer  # noqa: F401  (compile its bytecode cache too)
        return 0

    ctx = wl.Context(args.workload, args.seed, ROOT, args.work)
    wl.setup(ctx)
    golden = None
    if wl.golden_applies(args.workload, args.seed):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[args.workload]
    if args.trace:
        import tracer

        ctx.tracer = tracer.Tracer()
        tracer.install(ctx.tracer)

    t_first = time.perf_counter()
    try:
        results = wl.run_pass(ctx, golden)
    finally:
        if ctx.tracer:
            ctx.tracer.restore()
    wall_s = time.perf_counter() - t_first

    records = json.dumps([r["record"] for r in results], sort_keys=True)
    out = {
        "setup_s": t_first - args.spawned_at,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [{"op": r["op"], "problems": r["problems"], "seconds": r["seconds"],
                 "known": wl.is_known_failure(r)} for r in results],
        "digest": hashlib.sha256(records.encode()).hexdigest(),
        "env": environment(args.seed),
    }
    if ctx.tracer:
        out["layers"] = tracer.layer_metrics(ctx.tracer.spans, wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

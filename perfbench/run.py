"""Benchmark of pnhybrid, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout. Every pass of the workload runs in a
fresh worker process (worker.py): set-up, then the workload's operations
once. Passes repeat, one process at a time, until the next one would end
after --seconds. With --trace 0 the last line of output is a JSON object
with the end-to-end metrics (medians over the passes; see typical_pass_s
for wall_s); with --trace 1 the passes alternate between untraced and
traced workers and the JSON holds the per-layer metrics of the traced ones.
The BLAS thread pool is left at its default and recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# Same as workloads.WORKLOADS; this process never imports the program.
WORKLOADS = ("verify-pn", "verify-hybrid", "ladder", "sourced")

# A run never starts a pass that could end later than this; the contract
# allows 180 s per run.
HARD_LIMIT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}


class BenchError(Exception):
    pass


def unit_of(name):
    if name.endswith((".calls", ".source_samples", ".spans")):
        return "count"
    if name.endswith("dim3_sum"):
        return "n3-computed"
    if name.endswith(("share", "hit_ratio")):
        return "ratio"
    return "s"


def run_worker(args, timeout):
    """Run worker.py to completion (subprocess.run kills it on timeout and
    waits); returns (completed process, seconds from start to exit)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users keep bytecode caches
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args, "--spawned-at", repr(start)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc, time.perf_counter() - start


def spawn(workload, seed, trace, work_root, timeout):
    """One pass in a fresh worker process; returns its result."""
    work = tempfile.mkdtemp(dir=work_root)
    try:
        proc, elapsed = run_worker(["--workload", workload, "--seed", str(seed),
                                    "--trace", str(trace), "--work", work], timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker printed no result:\n{proc.stdout[-4000:]}") from None
    result["elapsed_s"] = elapsed
    return result


def check_tree():
    for need in (os.path.join("src", "pnhybrid", "__init__.py"),
                 os.path.join("configs", "sobolev-n-sweep.cfg"),
                 os.path.join("perfbench", "golden.json")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a full checkout of pnhybrid")


def measure(workload, seed, seconds, trace):
    """All passes of one run: {False: untraced results, True: traced results}."""
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    run_worker(["--warmup"], timeout=120)
    kinds = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    start = time.perf_counter()
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        i += 1
        elapsed = time.perf_counter() - start
        r = spawn(workload, seed, int(traced), work_root,
                  timeout=max(HARD_LIMIT_S - elapsed, 10.0))
        passes[traced].append(r)
        elapsed = time.perf_counter() - start
        longest = max(p["elapsed_s"] for ps in passes.values() for p in ps)
        if elapsed + longest > HARD_LIMIT_S:
            break
        if all(passes[k] for k in kinds) and elapsed + r["elapsed_s"] > seconds:
            break
    shutil.rmtree(work_root, ignore_errors=True)
    return passes


def typical_pass_s(passes):
    """wall_s of a run: the sum over the workload's operations of each
    operation's median time across the passes. On a shared machine a slow
    spell tends to hit one operation of one pass; the per-operation median
    drops it, where the median of whole passes often does not."""
    n_ops = len(passes[0]["ops"])
    return sum(statistics.median(p["ops"][i]["seconds"] for p in passes)
               for i in range(n_ops))


def summarize(workload, seed, trace, passes):
    untraced, traced = passes[False], passes[True]
    everything = untraced + traced
    ops = [op for p in everything for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    unexpected = [op for op in failed if not op["known"]]
    digests = {p["digest"] for p in everything}

    print("environment " + json.dumps(everything[0]["env"], sort_keys=True))
    print(f"workload {workload} seed {seed} trace {trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    for op in failed:
        kind = "known failure" if op["known"] else "FAILED"
        print(f"{kind}: {op['op']}: {'; '.join(op['problems'])}")
    if len(digests) > 1:
        print("FAILED: passes of the same inputs produced different outputs")
    print(f"failed_ratio {len(failed) / len(ops):.6g} "
          f"({len(failed)} failed / {len(ops)} attempted)")

    if trace:
        per_pass = [p["layers"] for p in traced]
        metrics = {k: statistics.median(pl[k] for pl in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = typical_pass_s(traced) - typical_pass_s(untraced)
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = {"wall_s": typical_pass_s(untraced)}
        metrics.update({k: statistics.median(p[k] for p in untraced)
                        for k in ("setup_s", "peak_rss_mb")})
        metrics["ok_ratio"] = 1.0 - len(failed) / len(ops)
        units = END_TO_END
        for i, op in enumerate(untraced[0]["ops"]):
            times = [p["ops"][i]["seconds"] for p in untraced]
            print(f"op {op['op']}: median {statistics.median(times):.4f} s")
        for k in ("wall_s", "setup_s", "peak_rss_mb"):
            values = ", ".join(f"{p[k]:.4f}" for p in untraced)
            print(f"{k} {metrics[k]:.6g} {units[k]} (per pass: {values})")
        print(f"ok_ratio {metrics['ok_ratio']:.6g} ratio")
    return {
        "correct": not unexpected and len(digests) == 1,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        check_tree()
        passes = measure(args.workload, args.seed, args.seconds, args.trace)
        result = summarize(args.workload, args.seed, args.trace, passes)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

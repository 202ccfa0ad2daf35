"""Rewrite golden.json from the program as it is now.

    python3 perfbench/record_golden.py

Runs one untraced pass of every workload at the default seed and stores
each operation's record: exit codes, printed output, sweep CSV without the
walltime column, plot tables and final-field norms. Record only from a
commit whose outputs are known to be right; the benchmark judges every
later commit against this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from worker import GOLDEN, HERE, ROOT, import_program


def main():
    import_program()
    import workloads as wl

    golden = {}
    for name in wl.WORKLOADS:
        work = tempfile.mkdtemp(dir=HERE, prefix=".golden-")
        try:
            ctx = wl.Context(name, wl.DEFAULT_SEED, ROOT, work)
            wl.setup(ctx)
            results = wl.run_pass(ctx)
        finally:
            shutil.rmtree(work)
        golden[name] = {r["op"]: r["record"] for r in results}
        for r in results:
            print(f"{name:14s} {r['op']:32s} {r['problems'] or 'ok'}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scoped thread policy for the OpenBLAS pools loaded in this process.

numpy and scipy each load their own OpenBLAS with its own thread pool.
single_thread() sets every pool to one thread for the duration of a block
and then restores each pool's previous count.  The pools are found on the
first call, from the shared objects mapped into the process (Linux
/proc/self/maps) that export OpenBLAS's get/set_num_threads pair; with no
such pool (MKL, Accelerate, another system) the block runs untouched.
The lookup is kept for the life of the process, so numpy and scipy.linalg
must be imported before the first call; pnhybrid.transport imports both.

Thread counts are process-wide: while any block is open, BLAS calls of
every thread of the process, and of callbacks run inside the block, are
serial too.  Nested and concurrent blocks share one scope, which the last
to close ends.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

# OpenBLAS builds prefix and suffix their symbols differently.
_SYMBOLS = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
            for suffix in ("64_", "") for prefix in ("scipy_openblas_", "openblas_")]

_lock = threading.Lock()
_found = None   # [(get_num_threads, set_num_threads)] once looked up
_open = 0       # blocks currently inside single_thread()
_saved = []     # each pool's count when the outermost block opened


def _find() -> list:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # address perms offset dev inode path; the path may hold spaces.
            paths = sorted({ln.split(maxsplit=5)[5].rstrip("\n")
                            for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


def pools() -> list:
    """(get_num_threads, set_num_threads) of every OpenBLAS pool found."""
    global _found
    with _lock:
        if _found is None:
            _found = _find()
        return _found


@contextmanager
def single_thread():
    """Run the block with every OpenBLAS pool at one thread."""
    global _open, _saved
    found = pools()
    with _lock:
        if _open == 0:
            _saved = [get() for get, _ in found]
            for _, put in found:
                put(1)
        _open += 1
    try:
        yield
    finally:
        with _lock:
            _open -= 1
            if _open == 0:
                for (_, put), n in zip(found, _saved):
                    put(n)

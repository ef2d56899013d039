"""Pin the OpenBLAS libraries loaded in the process to one thread.

OpenBLAS's thread count belongs to the process, not to the calling thread:
while ``one_thread()`` is active, every BLAS call in the process, from any
thread, runs on the thread that makes it.  ``verify.run_config`` holds the
pin for its whole run, so its suite threads do not oversubscribe the cores
and each BLAS reduction runs in one order.

The libraries are found in ``/proc/self/maps`` (Linux) and opened with
ctypes.  The symbols called are numpy's
``scipy_openblas_{get,set}_num_threads64_``, scipy's
``scipy_openblas_{get,set}_num_threads`` and a system OpenBLAS's
``openblas_{get,set}_num_threads``.  Where none is found (another platform
or another BLAS), the pin does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from pathlib import Path

_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
            "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")

_lock = threading.Lock()
_depth = 0
_saved: dict[str, tuple] = {}  # file name -> (get, set, count before)


def libraries() -> dict[str, tuple]:
    """{file name: (get, set)} for every OpenBLAS mapped into the process."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            put = getattr(lib, pattern.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found[Path(path).name] = (get, put)
                break
    return found


@contextmanager
def one_thread():
    """Run the body with every loaded OpenBLAS on one thread.

    Yields one ``{"library", "threads_before", "threads_pinned"}`` entry per
    library.  Overlapping pins from several threads share one saved state,
    and the counts are restored when the last of them exits, also when its
    body raises.
    """
    global _depth
    with _lock:
        for name, (get, put) in libraries().items():
            if name not in _saved:
                _saved[name] = (get, put, get())
                put(1)
        _depth += 1
        info = [{"library": name, "threads_before": before,
                 "threads_pinned": get()}
                for name, (get, _, before) in sorted(_saved.items())]
    try:
        yield info
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for _, put, before in _saved.values():
                    put(before)
                _saved.clear()

"""Host popcount ceiling: a tight XOR-popcount loop on the native instruction.

The loop is compiled with gcc the way the ``cnative`` kernel backend
compiles (``-O3 -shared -fPIC``), plus ``-mpopcnt`` so that
``__builtin_popcountll`` lowers to the hardware instruction.  Operands
are small enough to stay in L1, so the figure is the compute ceiling of
one core in word-ops (one 64-bit word XORed and counted) per second.
"""

from __future__ import annotations

import ctypes
import shutil
import subprocess
import time
from pathlib import Path

import numpy as np

_SOURCE = r"""
#include <stdint.h>
int64_t probe(const uint64_t *a, const uint64_t *b, int64_t n, int64_t reps) {
    int64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (int64_t r = 0; r < reps; ++r) {
        for (int64_t t = 0; t + 3 < n; t += 4) {
            s0 += __builtin_popcountll(a[t] ^ b[t]);
            s1 += __builtin_popcountll(a[t + 1] ^ b[t + 1]);
            s2 += __builtin_popcountll(a[t + 2] ^ b[t + 2]);
            s3 += __builtin_popcountll(a[t + 3] ^ b[t + 3]);
        }
        __asm__ volatile("" ::: "memory");
    }
    return s0 + s1 + s2 + s3;
}
"""

_WORDS = 256
_REPS = 4096


def _build(workdir: Path) -> ctypes.CDLL:
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise RuntimeError("popcount probe: no C compiler on PATH")
    src = workdir / "popcnt_probe.c"
    lib = workdir / "popcnt_probe.so"
    src.write_text(_SOURCE)
    subprocess.run([cc, "-O3", "-shared", "-fPIC", "-mpopcnt", "-o", str(lib), str(src)],
                   check=True, capture_output=True, timeout=120)
    dll = ctypes.CDLL(str(lib))
    dll.probe.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    dll.probe.restype = ctypes.c_int64
    return dll


def ceiling_gwordops(workdir: Path, seconds: float = 0.4) -> float:
    """Best single-core rate in 1e9 word-ops/s over a few timed bursts."""
    dll = _build(workdir)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2**63, size=_WORDS, dtype=np.uint64)
    b = rng.integers(0, 2**63, size=_WORDS, dtype=np.uint64)
    expected = int(np.bitwise_count(a ^ b).sum()) * _REPS
    best = 0.0
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        t0 = time.perf_counter()
        got = dll.probe(a.ctypes.data, b.ctypes.data, _WORDS, _REPS)
        elapsed = time.perf_counter() - t0
        if got != expected:
            raise RuntimeError("popcount probe: wrong sum")
        best = max(best, _WORDS * _REPS / elapsed / 1e9)
    return best


"""Hermetic child environments and the record of the host a run used."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
)


def child_env(cache_dir: Path) -> dict[str, str]:
    """The environment for one program process.

    Every ``REPRO_*`` variable is dropped (``REPRO_BACKEND`` among them),
    and all of the program's caches point at ``cache_dir``, which the
    caller makes fresh for each set-up: a persisted tuning record or
    compiled kernel from elsewhere cannot change what ``backend="auto"``
    resolves to.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cache_dir.mkdir(parents=True, exist_ok=True)
    env["XDG_CACHE_HOME"] = str(cache_dir)
    env["REPRO_TUNING_CACHE"] = str(cache_dir / "tuning")
    env["REPRO_KERNEL_CACHE"] = str(cache_dir / "kernels")
    env.pop("PYTHONPATH", None)
    return env


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def _cpu() -> tuple[str, list[str]]:
    model, flags = "unknown", []
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return model, flags
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "model name" and model == "unknown":
            model = value.strip()
        elif key == "flags" and not flags:
            wanted = ("popcnt", "avx2", "avx512f", "avx512_vpopcntdq", "bmi2", "sse4_2", "neon")
            flags = [f for f in value.split() if f in wanted]
    return model, flags


def record(root: Path) -> dict[str, Any]:
    """Commit, CPU, ISA flags, core count, numpy/BLAS build, thread variables."""
    import numpy as np

    model, flags = _cpu()
    blas: Any = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "commit": _commit(root),
        "source_digest": _source_digest(root),
        "cpu_model": model,
        "isa_flags": flags,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }

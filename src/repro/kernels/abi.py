"""Kernel ABI: the narrow compute contract every backend implements.

The paper's portability argument rests on one observation: the whole
SNP-comparison family needs only three primitives --

* ``pack``            -- genotypes to bit-words,
* ``bit_gemm_panel``  -- ``C[i, j] = sum_k POPC(op(A[i,k], B[j,k]))``
  over one row/column panel of packed words,
* ``popcount_reduce`` -- summed population count of a word array,

and everything else (blocking, sharding, streaming, resilience) is
orchestration *around* that contract.  This module pins the contract
down as :class:`KernelBackend` plus a :class:`BackendInfo` capability
descriptor, and keeps a process-wide registry so the engine, the gpu
executor, the autotuner and the CLI all resolve backends the same way.

Resolution rules (shared by every layer, all in
:func:`resolve_backend_name`):

* an explicit backend name must exist and be available, else
  :class:`~repro.errors.ConfigurationError` -- a requested backend is
  honoured or rejected, never silently replaced;
* ``"auto"`` resolves, in order: the ``REPRO_BACKEND`` environment
  variable (the CI backend matrix forces legs this way), the persisted
  host autotuner's measured winner (:mod:`repro.parallel.tuner`), then
  the size rule -- the ``numpy`` word-walk up to
  :data:`AUTO_WORD_WALK_MAX_OPS` word-ops, the ``blas`` identity GEMM
  above;
* :func:`backend_fingerprint` summarises the installed backend set
  (names + versions) so tuning records are invalidated when a backend
  appears, disappears, or changes version.

Backends accept any packed word dtype the drivers accept
(``uint8``/``uint16``/``uint32``/``uint64``); compiled backends
canonicalise operands to zero-padded ``uint64`` rows first --
:func:`canonicalize_words` -- which is popcount- and bitwise-op
neutral, so results stay bit-exact with the reference walk.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.blis.microkernel import ComparisonOp, get_microkernel
from repro.errors import ConfigurationError, PackingError
from repro.util.bitops import WORD_BITS_32, pack_bits, popcount

__all__ = [
    "REPRO_BACKEND_ENV",
    "DEFAULT_BACKEND_NAME",
    "AUTO_WORD_WALK_MAX_OPS",
    "OPCODES",
    "BackendInfo",
    "KernelBackend",
    "canonicalize_words",
    "check_panel_operands",
    "register_backend",
    "registered_backends",
    "available_backends",
    "backend_names",
    "get_backend",
    "backend_available",
    "env_backend_name",
    "resolve_backend",
    "resolve_backend_name",
    "backend_fingerprint",
]

#: Environment variable that forces the backend ``"auto"`` resolves to
#: (the CI backend matrix sets it per leg).
REPRO_BACKEND_ENV = "REPRO_BACKEND"

#: The reference backend (always available): the word-walk oracle, and
#: what untuned ``"auto"`` picks for small problems.
DEFAULT_BACKEND_NAME = "numpy"

#: The size rule untuned ``"auto"`` applies: problems up to this many
#: word-ops run the ``numpy`` word-walk, larger ones the ``blas``
#: identity GEMM, whose unpack + GEMM setup dominates small panels.
#: Measured on a 2-core AVX2 host (served search, 20,000 x 1,024
#: index): the word-walk wins at up to 8 query rows, ``blas`` from 16,
#: and a blanket ``blas`` default slows 1-query search from ~20 ms to
#: ~31 ms.  See docs/PERF.md.
AUTO_WORD_WALK_MAX_OPS = 1 << 21

#: The backend the size rule picks above :data:`AUTO_WORD_WALK_MAX_OPS`.
_LARGE_BACKEND_NAME = "blas"

#: Stable integer codes compiled backends dispatch the comparison op
#: on (AND_PRENEGATED is AND on pre-negated words by construction).
OPCODES: dict[ComparisonOp, int] = {
    ComparisonOp.AND: 0,
    ComparisonOp.XOR: 1,
    ComparisonOp.ANDNOT: 2,
    ComparisonOp.AND_PRENEGATED: 0,
}


@dataclass(frozen=True)
class BackendInfo:
    """Capability/availability descriptor of one registered backend.

    ``available`` means the backend can compute *at all* on this host
    (the Numba backend stays available through its pure-python
    fallback; the native-C backend goes unavailable when no C compiler
    is found).  ``compiled`` marks a machine-code inner loop -- the
    bench-regression speedup gate applies only to compiled backends.
    ``tunable`` backends are raced by the persisted host autotuner;
    the simulated-device registration opts out (it exists for ABI
    uniformity, not throughput).
    """

    name: str
    kind: str  # "reference" | "blas" | "jit" | "native" | "simulated"
    version: str
    available: bool
    compiled: bool
    tunable: bool
    description: str
    unavailable_reason: str | None = None


def check_panel_operands(
    a: np.ndarray, b: np.ndarray, op: ComparisonOp | str
) -> tuple[np.ndarray, np.ndarray, ComparisonOp]:
    """Validate one panel call; returns normalised ``(a, b, op)``.

    Same contract as the :mod:`repro.blis.gemm` drivers: 2-D packed
    words of a shared unsigned dtype with matching k extents.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    for name, arr in (("A", a), ("B", b)):
        if arr.ndim != 2:
            raise PackingError(
                f"bit_gemm_panel: {name} must be 2-D packed words"
            )
        if arr.dtype not in (np.uint8, np.uint16, np.uint32, np.uint64):
            raise PackingError(
                f"bit_gemm_panel: {name} has non-word dtype {arr.dtype}"
            )
    if a.dtype != b.dtype:
        raise PackingError(
            f"bit_gemm_panel: dtype mismatch ({a.dtype} vs {b.dtype})"
        )
    if a.shape[1] != b.shape[1]:
        raise PackingError(
            f"bit_gemm_panel: k mismatch (A has {a.shape[1]} words, "
            f"B has {b.shape[1]})"
        )
    return a, b, get_microkernel(op).op


def canonicalize_words(words: np.ndarray) -> np.ndarray:
    """Reinterpret packed rows as contiguous zero-padded ``uint64``.

    Narrow word dtypes are zero-padded to an 8-byte multiple per row
    and byte-reinterpreted.  Both steps preserve the multiset of set
    bits per row *and* positional alignment across operands, so AND /
    XOR / ANDNOT popcount sums over the canonical form equal the sums
    over the original words (padding contributes ``POPC(op(0, 0)) = 0``
    for every supported op).
    """
    w = np.ascontiguousarray(words)
    if w.ndim != 2:
        raise PackingError(
            f"canonicalize_words: expected 2-D packed words, got ndim={w.ndim}"
        )
    if w.dtype == np.uint64:
        return w
    if w.dtype not in (np.uint8, np.uint16, np.uint32):
        raise PackingError(
            f"canonicalize_words: unsupported dtype {w.dtype}"
        )
    per = 8 // w.dtype.itemsize
    rows, k = w.shape
    pad = (-k) % per
    if pad:
        padded = np.zeros((rows, k + pad), dtype=w.dtype)
        padded[:, :k] = w
        w = padded
    return np.ascontiguousarray(w).view(np.uint64)


class KernelBackend(ABC):
    """One implementation of the three-primitive compute contract.

    Subclasses must provide :attr:`info` and :meth:`bit_gemm_panel`;
    :meth:`pack` and :meth:`popcount_reduce` have reference defaults
    (NumPy) that backends may override with compiled equivalents.
    ``bit_gemm_panel`` must be thread-safe and release the GIL where it
    can -- the parallel engine calls it concurrently from pool threads.
    """

    @property
    @abstractmethod
    def info(self) -> BackendInfo:
        """The backend's capability/availability descriptor."""

    def pack(
        self,
        bits: np.ndarray,
        word_bits: int = WORD_BITS_32,
        pad_to_words: int | None = None,
    ) -> np.ndarray:
        """Pack a binary matrix row-wise into unsigned machine words."""
        return pack_bits(bits, word_bits, pad_to_words)

    @abstractmethod
    def bit_gemm_panel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        op: ComparisonOp | str = ComparisonOp.AND,
    ) -> np.ndarray:
        """``C[i, j] = sum_k POPC(op(A[i,k], B[j,k]))`` for one panel.

        Operands are row-major packed words: A is ``(m, k)``, B is
        ``(n, k)`` (row-per-output-column).  Returns ``(m, n)`` int64,
        bit-exact with :func:`repro.blis.gemm.bit_gemm_reference`.
        """

    def popcount_reduce(
        self, words: np.ndarray, axis: int | None = None
    ) -> np.ndarray | int:
        """Summed population count along ``axis`` (all elements if None)."""
        counts = popcount(np.asarray(words))
        result = counts.sum(axis=axis)
        return int(result) if axis is None else result

    def __repr__(self) -> str:
        info = self.info
        state = "available" if info.available else "unavailable"
        return f"<KernelBackend {info.name} ({info.kind}, {state})>"


# -- registry --------------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(
    backend: KernelBackend, replace: bool = False
) -> KernelBackend:
    """Add ``backend`` to the process-wide registry (returns it).

    Registration is by descriptor name; duplicate names raise unless
    ``replace=True`` (tests use replacement to shadow a backend).
    """
    name = backend.info.name
    with _REGISTRY_LOCK:
        if name in _REGISTRY and not replace:
            raise ConfigurationError(
                f"register_backend: backend {name!r} is already registered"
            )
        _REGISTRY[name] = backend
    return backend


def registered_backends() -> tuple[KernelBackend, ...]:
    """Every registered backend, registration order preserved."""
    with _REGISTRY_LOCK:
        return tuple(_REGISTRY.values())


def available_backends() -> tuple[KernelBackend, ...]:
    """Registered backends whose descriptors report availability."""
    return tuple(b for b in registered_backends() if b.info.available)


def backend_names() -> tuple[str, ...]:
    """Registered backend names (the CLI builds its choices from this)."""
    with _REGISTRY_LOCK:
        return tuple(_REGISTRY.keys())


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name``.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names
    (listing what is registered) -- misspelled ``--backend`` values and
    stale tuning records fail loudly instead of silently degrading.
    """
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown kernel backend {name!r} "
            f"(registered: {', '.join(backend_names()) or 'none'})"
        )
    return backend


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and reports availability."""
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    return backend is not None and backend.info.available


def env_backend_name() -> str | None:
    """The validated ``REPRO_BACKEND`` override, or ``None`` if unset.

    An unknown or unavailable name raises -- a CI leg that asks for a
    backend the container cannot provide must fail, not silently fall
    back to the reference path.
    """
    name = os.environ.get(REPRO_BACKEND_ENV)
    if not name or name == "auto":
        return None
    backend = get_backend(name)
    if not backend.info.available:
        raise ConfigurationError(
            f"{REPRO_BACKEND_ENV}={name!r} names an unavailable backend: "
            f"{backend.info.unavailable_reason or 'no reason recorded'}"
        )
    return name


def resolve_backend_name(
    name: str | None = None,
    word_ops: int | None = None,
    tuned: str | None = None,
) -> str:
    """Resolve a backend spec to a concrete, available registered name.

    Explicit names are validated for existence and availability.
    ``None``/``"auto"`` resolves, in order: the ``REPRO_BACKEND``
    override, the tuning record's measured winner ``tuned`` (skipped
    when that backend is no longer available), then the size rule on
    ``word_ops`` (the word-walk when unknown or at most
    :data:`AUTO_WORD_WALK_MAX_OPS`, ``blas`` above).
    """
    if name is None or name == "auto":
        env_name = env_backend_name()
        if env_name is not None:
            return env_name
        if tuned is not None and backend_available(tuned):
            return tuned
        if word_ops is None or word_ops <= AUTO_WORD_WALK_MAX_OPS:
            return DEFAULT_BACKEND_NAME
        return _LARGE_BACKEND_NAME
    backend = get_backend(name)
    if not backend.info.available:
        raise ConfigurationError(
            f"kernel backend {name!r} is unavailable on this host: "
            f"{backend.info.unavailable_reason or 'no reason recorded'}"
        )
    return name


def resolve_backend(name: str | None = None) -> KernelBackend:
    """:func:`resolve_backend_name`, returning the backend object."""
    return get_backend(resolve_backend_name(name))


def backend_fingerprint() -> str:
    """Name=version summary of the tunable backend set, sorted.

    Part of the tuning-cache key: installing Numba (or losing the C
    compiler) changes the fingerprint, so records measured against the
    old backend set stop matching instead of pinning a stale winner.
    Unavailable backends contribute their name with an ``!`` marker so
    availability flips alone also invalidate.
    """
    parts = []
    for backend in registered_backends():
        info = backend.info
        if not info.tunable:
            continue
        marker = "" if info.available else "!"
        parts.append(f"{info.name}{marker}={info.version}")
    return ",".join(sorted(parts))

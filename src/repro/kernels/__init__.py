"""``repro.kernels``: the kernel ABI and its registered backends.

See :mod:`repro.kernels.abi` for the contract and resolution rules,
and ``docs/KERNELS.md`` for the narrative.  Importing this package
registers the built-in backends:

* ``numpy``   -- the reference word-walk (always available);
* ``blas``    -- the popcount identities as one float BLAS GEMM over
  unpacked bits (always available);
* ``numba``   -- ``@njit`` compiled panel, pure-python fallback when
  Numba is absent;
* ``cnative`` -- C panel compiled with the host toolchain (unavailable
  without a C compiler);
* ``sim``     -- the simulated-device BLIS tile walk.

Registration is import-side-effect only; nothing is JIT- or
C-compiled until a backend is actually probed or used.
"""

from repro.kernels.abi import (
    AUTO_WORD_WALK_MAX_OPS,
    DEFAULT_BACKEND_NAME,
    OPCODES,
    REPRO_BACKEND_ENV,
    BackendInfo,
    KernelBackend,
    available_backends,
    backend_available,
    backend_fingerprint,
    backend_names,
    canonicalize_words,
    check_panel_operands,
    env_backend_name,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    resolve_backend_name,
)
from repro.kernels.blas_backend import BlasBackend
from repro.kernels.cnative_backend import CNativeBackend
from repro.kernels.numba_backend import HAVE_NUMBA, NumbaBackend
from repro.kernels.numpy_backend import NumPyBackend
from repro.kernels.sim_backend import SimulatedDeviceBackend

__all__ = [
    "AUTO_WORD_WALK_MAX_OPS",
    "DEFAULT_BACKEND_NAME",
    "OPCODES",
    "REPRO_BACKEND_ENV",
    "HAVE_NUMBA",
    "BackendInfo",
    "KernelBackend",
    "NumPyBackend",
    "BlasBackend",
    "NumbaBackend",
    "CNativeBackend",
    "SimulatedDeviceBackend",
    "available_backends",
    "backend_available",
    "backend_fingerprint",
    "backend_names",
    "canonicalize_words",
    "check_panel_operands",
    "env_backend_name",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "resolve_backend_name",
]

# Built-in registrations (idempotent under module re-execution because
# the registry lives in repro.kernels.abi, which is imported once).
if "numpy" not in backend_names():
    register_backend(NumPyBackend())
    register_backend(BlasBackend())
    register_backend(NumbaBackend())
    register_backend(CNativeBackend())
    register_backend(SimulatedDeviceBackend())

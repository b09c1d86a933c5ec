"""The fast-path quantization kernel subsystem.

Every quantization in the library — :func:`repro.core.quantize.bdr_quantize`,
the format adapters, the nn compute flow, and the Figure 7 sweep — dispatches
through a registered :class:`~repro.kernels.base.KernelBackend`:

* ``"numpy"`` (default): fused, allocation-lean kernels with plan-cached
  blocking and scratch reuse (:mod:`repro.kernels.numpy_backend`), whose
  pow2 nearest-rounding calls run a compiled C kernel when it built
  (:mod:`repro.kernels.compiled`);
* ``"reference"``: the original straight-line engine, kept as the
  bit-exactness oracle (:mod:`repro.kernels.reference`).

Select with ``REPRO_KERNEL_BACKEND``, :func:`set_backend`, or the
:func:`use_backend` context manager.  See ``docs/PERFORMANCE.md``.
"""

from .base import EPILOGUES, KernelBackend, QuantizeResult, gelu_reference
from .plan import (
    QuantPlan,
    checkout_scratch,
    clear_plan_cache,
    get_plan,
    plan_cache_info,
    release_scratch,
)
from .registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    get_backend,
    list_backends,
    register_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "KernelBackend",
    "QuantizeResult",
    "EPILOGUES",
    "gelu_reference",
    "QuantPlan",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_info",
    "checkout_scratch",
    "release_scratch",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "get_backend",
    "set_backend",
    "use_backend",
    "register_backend",
    "list_backends",
]

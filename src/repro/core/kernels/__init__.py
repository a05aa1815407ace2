"""Swappable kernels for the three query hot loops.

The online query path of the paper's HL method spends essentially all
its time in three loops: the highway-row distance decode
(landmark-to-vertex queries), the label-intersection upper bound
(Equation 4), and the bounded-BFS frontier expansion (Algorithm 2, plus
its stacked multi-target form in the batch engine). This package hosts
those loops as interchangeable backends behind one interface
(:class:`~repro.core.kernels.interface.KernelBackend`):

========  ========  ============  =======================================
name      compiled  releases GIL  availability
========  ========  ============  =======================================
numpy     no        no            always (the reference semantics)
cext      yes       yes           when a C compiler (cc/gcc/clang) exists
========  ========  ============  =======================================

Selection, in priority order:

1. an explicit ``kernel=`` argument (``make_oracle(..., kernel="cext")``,
   ``HighwayCoverOracle(kernel=...)``, or any of the search wrappers) —
   unknown names raise :class:`~repro.errors.KernelError`, unavailable
   backends raise :class:`~repro.errors.KernelUnavailableError`;
2. the ``REPRO_KERNEL`` environment variable (same strictness — setting
   it *is* an explicit request);
3. auto-detection: ``cext`` if a compiler is present, else ``numpy``.
   Auto-detection never raises; a backend that fails to initialize is
   skipped silently.

Every backend is asserted byte-identical to ``numpy`` by the conformance
gauntlet (``tests/test_kernels.py``) — swapping kernels is a pure
performance decision.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Union

from repro.core.kernels.interface import (
    KernelBackend,
    LabelState,
    Workspace,
    get_label_state,
    get_workspace,
)
from repro.errors import KernelError, KernelUnavailableError

__all__ = [
    "KernelBackend",
    "LabelState",
    "Workspace",
    "available_kernels",
    "get_kernel",
    "get_label_state",
    "get_workspace",
    "resolve_kernel",
]

#: Environment variable naming the default backend (an explicit request).
ENV_VAR = "REPRO_KERNEL"

#: Auto-detection preference order.
AUTO_ORDER = ("cext", "numpy")

#: Registered backend names, in documentation order.
KERNEL_NAMES = ("numpy", "cext")

_instances: Dict[str, KernelBackend] = {}
_auto_default: Optional[KernelBackend] = None


def _construct(name: str) -> KernelBackend:
    if name == "numpy":
        from repro.core.kernels.numpy_backend import NumpyKernel

        return NumpyKernel()
    if name == "cext":
        from repro.core.kernels.cext import CExtKernel

        return CExtKernel()
    raise KernelError(
        f"unknown kernel backend {name!r}; known: {sorted(KERNEL_NAMES)}"
    )


def get_kernel(name: Optional[str] = None) -> KernelBackend:
    """The backend named ``name`` (a cached singleton per process).

    ``None`` consults ``REPRO_KERNEL``, then auto-detects. Explicit
    names (argument or environment) raise :class:`KernelError` when
    unknown and :class:`KernelUnavailableError` when the backend cannot
    initialize here; auto-detection silently falls back from ``cext``
    to ``numpy``.
    """
    if name is None:
        env = os.environ.get(ENV_VAR)
        if env:
            name = env
        else:
            return _auto_detect()
    key = name.strip().lower()
    if key not in KERNEL_NAMES:
        raise KernelError(
            f"unknown kernel backend {name!r}; known: {sorted(KERNEL_NAMES)}"
        )
    backend = _instances.get(key)
    if backend is None:
        backend = _instances[key] = _construct(key)
    return backend


def _auto_detect() -> KernelBackend:
    global _auto_default
    if _auto_default is None:
        for candidate in AUTO_ORDER:
            try:
                _auto_default = get_kernel(candidate)
                break
            except KernelUnavailableError:
                continue
        assert _auto_default is not None  # numpy always constructs
    return _auto_default


def resolve_kernel(
    kernel: Union[KernelBackend, str, None],
) -> KernelBackend:
    """Coerce a ``kernel=`` argument (backend, name, or None) to a backend."""
    if isinstance(kernel, KernelBackend):
        return kernel
    return get_kernel(kernel)


def available_kernels() -> List[str]:
    """Names of the backends that can initialize in this environment."""
    names = []
    for name in KERNEL_NAMES:
        try:
            get_kernel(name)
        except KernelError:
            continue
        names.append(name)
    return names

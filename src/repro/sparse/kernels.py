"""The ``REPRO_KERNEL`` variant selector for the local kernels.

Every local kernel (SpGEMM, merge, elementwise) exists in two
implementations that produce **bit-identical** results:

``numpy`` (the default)
    Vectorised sort-and-reduce / key-intersection formulations — the fast
    path every run takes unless told otherwise.
``python``
    The literal per-column/per-entry reference implementations — the
    semantic oracle the property tests compare the fast path against.

Selection is **process-global** and never part of a
:class:`~repro.experiments.config.RunConfig`: the variant changes how fast a
result is produced, never what the result (or any modelled counter) is, so
it must not perturb config hashes.  :func:`set_kernel_variant` also writes
``REPRO_KERNEL`` into ``os.environ`` so pool workers forked/spawned by the
experiment engine inherit the caller's choice.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "KERNEL_VARIANTS",
    "resolve_kernel_variant",
    "set_kernel_variant",
    "kernel_variant",
]

#: accepted values of ``REPRO_KERNEL`` / ``--kernel``; the first is the default
KERNEL_VARIANTS = ("numpy", "python")

_ENV_VAR = "REPRO_KERNEL"

#: process-wide override installed by :func:`set_kernel_variant`
_forced: Optional[str] = None


def _validate(name: str) -> str:
    name = name.strip().lower() or KERNEL_VARIANTS[0]
    if name not in KERNEL_VARIANTS:
        raise ValueError(
            f"unknown kernel variant {name!r}; expected one of {KERNEL_VARIANTS}"
        )
    return name


def resolve_kernel_variant(name: Optional[str] = None) -> str:
    """Validate ``name``, or the process-wide selection when it is ``None``.

    The selection is the last :func:`set_kernel_variant`, else the
    ``REPRO_KERNEL`` environment variable, else ``numpy``.
    """
    if name is None:
        name = _forced if _forced is not None else os.environ.get(_ENV_VAR, "")
    return _validate(name)


def set_kernel_variant(name: str) -> str:
    """Install ``name`` as the process-wide variant; returns it validated.

    Also exported through ``os.environ`` so experiment-pool workers (fork or
    spawn) resolve the same variant as the parent process.
    """
    global _forced
    _forced = _validate(name)
    os.environ[_ENV_VAR] = _forced
    return _forced


@contextmanager
def kernel_variant(name: str) -> Iterator[str]:
    """Temporarily select a variant (tests and the contract suite use this)."""
    global _forced
    prev_forced = _forced
    prev_env = os.environ.get(_ENV_VAR)
    resolved = set_kernel_variant(name)
    try:
        yield resolved
    finally:
        _forced = prev_forced
        if prev_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = prev_env

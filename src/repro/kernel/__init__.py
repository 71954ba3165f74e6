"""The batched simulation kernel.

:mod:`repro.kernel.batch` is a second engine over the one tag-store
layout (:class:`~repro.cache.block.CacheBlock` objects grouped into
:class:`~repro.cache.set.CacheSet` objects): for probe-free, non-coherent
runs under a policy it inlines, it checks the blocks out as flat
Python lists, runs whole trace batches through one flattened reference
loop, and checks the result back into the same blocks. Every other run
takes the generic per-access path; both engines produce bit-identical
results.
"""

from __future__ import annotations


def batched_policy_names() -> tuple:
    """Policy names declared batched-kernel-eligible by the registry.

    The ground truth remains :func:`repro.kernel.batch.kernel_mode`
    (exact-type dispatch over a built policy instance); the registry
    carries the *declaration*, and the test suite asserts the two
    agree for every registered policy. New policies default to the
    generic path — they appear here only once both the declaration and
    a kernel mode exist.
    """
    from ..arena.registry import batched_names

    return batched_names()


__all__ = ["batched_policy_names"]

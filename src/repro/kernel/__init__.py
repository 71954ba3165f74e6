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
    """Registered policy names the batched kernel can run.

    Derived from :func:`repro.kernel.batch.kernel_mode` (exact-type
    dispatch over each policy's default instance), so a new policy
    takes the generic path until ``kernel.batch`` learns its flow.
    """
    from ..arena.registry import batched_names

    return batched_names()


__all__ = ["batched_policy_names"]

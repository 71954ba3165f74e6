"""Small shared helpers: power-of-two math, validation, formatting,
atomic file writes.

These utilities are deliberately dependency-free so every subpackage can
import them without cycles.
"""

from __future__ import annotations

import itertools
import os
import pathlib
from typing import Iterable, Sequence, Union

from .errors import ConfigurationError


def is_pow2(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Integer log2 of a power of two.

    Raises :class:`ConfigurationError` when ``value`` is not a positive
    power of two, because every caller uses this for address-bit
    slicing where a non-power-of-two geometry is a configuration bug.
    """
    if not is_pow2(value):
        raise ConfigurationError(f"expected a positive power of two, got {value!r}")
    return value.bit_length() - 1


def require_pow2(value: int, name: str) -> int:
    """Validate that a named configuration field is a power of two."""
    if not is_pow2(value):
        raise ConfigurationError(f"{name} must be a positive power of two, got {value!r}")
    return value


def require_positive(value: float, name: str) -> float:
    """Validate that a named configuration field is strictly positive."""
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def require_nonnegative(value: float, name: str) -> float:
    """Validate that a named configuration field is >= 0."""
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")
    return value


def align_down(addr: int, granularity: int) -> int:
    """Align ``addr`` down to a power-of-two ``granularity``."""
    return addr & ~(granularity - 1)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (used for normalised metrics)."""
    if not values:
        raise ValueError("geometric_mean of an empty sequence")
    product_log = 0.0
    import math

    for v in values:
        if v <= 0:
            raise ValueError(f"geometric_mean requires positive values, got {v!r}")
        product_log += math.log(v)
    return math.exp(product_log / len(values))


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input instead of returning NaN."""
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into [low, high]."""
    return max(low, min(high, value))


def chunked(seq: Sequence, size: int) -> Iterable[Sequence]:
    """Yield successive ``size``-length chunks of ``seq``."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size!r}")
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def fmt_bytes(num_bytes: int) -> str:
    """Human-readable byte count (binary units), e.g. ``8.0MB``."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            if unit == "B":
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}".replace(".0", "")
        value /= 1024
    raise AssertionError("unreachable")


#: With the pid, keeps concurrent writers (threads, processes sharing a
#: directory) from ever sharing a temp file.
_tmp_counter = itertools.count()


def atomic_write(path: Union[str, pathlib.Path], data: Union[str, bytes]) -> pathlib.Path:
    """Replace ``path`` with ``data`` (text or bytes) in one step.

    ``data`` goes to a unique dot-named ``.tmp`` file next to ``path``
    (out of ``*.json`` walks), then ``os.replace`` moves it over
    ``path``: a reader sees the old file or the new one, never a torn
    one. On failure the temp file is removed and the error propagates.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path

"""Unit tests for repro.utils."""

import math
import threading

import pytest

from repro.errors import ConfigurationError
from repro.utils import (
    align_down,
    atomic_write,
    chunked,
    clamp,
    fmt_bytes,
    geometric_mean,
    ilog2,
    is_pow2,
    mean,
    require_nonnegative,
    require_positive,
    require_pow2,
)


class TestPow2:
    @pytest.mark.parametrize("value", [1, 2, 4, 64, 1 << 20])
    def test_is_pow2_true(self, value):
        assert is_pow2(value)

    @pytest.mark.parametrize("value", [0, -1, 3, 6, 100, (1 << 20) + 1])
    def test_is_pow2_false(self, value):
        assert not is_pow2(value)

    @pytest.mark.parametrize("value,expected", [(1, 0), (2, 1), (64, 6), (1 << 16, 16)])
    def test_ilog2(self, value, expected):
        assert ilog2(value) == expected

    @pytest.mark.parametrize("value", [0, 3, -4])
    def test_ilog2_rejects_non_pow2(self, value):
        with pytest.raises(ConfigurationError):
            ilog2(value)

    def test_require_pow2_passes_through(self):
        assert require_pow2(128, "x") == 128

    def test_require_pow2_names_field(self):
        with pytest.raises(ConfigurationError, match="llc_size"):
            require_pow2(100, "llc_size")


class TestValidators:
    def test_require_positive_ok(self):
        assert require_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_require_positive_rejects(self, value):
        with pytest.raises(ConfigurationError):
            require_positive(value, "x")

    def test_require_nonnegative_accepts_zero(self):
        assert require_nonnegative(0, "x") == 0

    def test_require_nonnegative_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_nonnegative(-1, "x")


class TestAlignAndClamp:
    @pytest.mark.parametrize(
        "addr,gran,expected", [(0, 64, 0), (63, 64, 0), (64, 64, 64), (130, 64, 128)]
    )
    def test_align_down(self, addr, gran, expected):
        assert align_down(addr, gran) == expected

    def test_clamp_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_clamp_edges(self):
        assert clamp(-1, 0.0, 1.0) == 0.0
        assert clamp(2, 0.0, 1.0) == 1.0


class TestMeans:
    def test_geometric_mean_basic(self):
        assert math.isclose(geometric_mean([1, 4]), 2.0)

    def test_geometric_mean_single(self):
        assert math.isclose(geometric_mean([7.0]), 7.0)

    def test_geometric_mean_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_mean_basic(self):
        assert mean([1, 2, 3]) == 2

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])


class TestChunked:
    def test_even_chunks(self):
        assert list(chunked([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_ragged_tail(self):
        assert list(chunked([1, 2, 3], 2)) == [[1, 2], [3]]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            list(chunked([1], 0))


class TestFmtBytes:
    @pytest.mark.parametrize(
        "n,expected",
        [(64, "64B"), (2048, "2KB"), (8 * 1024 * 1024, "8MB"), (1536, "1.5KB")],
    )
    def test_formatting(self, n, expected):
        assert fmt_bytes(n) == expected


class TestAtomicWrite:
    def test_writes_text_and_bytes(self, tmp_path):
        target = tmp_path / "a.json"
        assert atomic_write(target, "{}\n") == target
        assert target.read_text() == "{}\n"
        atomic_write(str(target), b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_failure_removes_temp_and_keeps_old_file(self, tmp_path):
        target = tmp_path / "a.json"
        target.write_text("old")
        with pytest.raises(TypeError):
            atomic_write(target, 42)  # neither text nor bytes: write fails
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_failed_replace_removes_temp(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "child").write_text("x")
        with pytest.raises(OSError):
            atomic_write(target, "data")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_concurrent_writers_never_tear(self, tmp_path):
        target = tmp_path / "shared.txt"
        payloads = [str(i) * 50_000 for i in range(8)]
        threads = [
            threading.Thread(target=atomic_write, args=(target, text))
            for text in payloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.read_text() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["shared.txt"]

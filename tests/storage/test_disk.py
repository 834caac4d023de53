"""Unit tests for the host block device."""

import pytest

from repro.errors import StorageError
from repro.storage.disk import BlockDevice


class TestBlockDevice:
    def test_capacity_must_be_positive(self):
        with pytest.raises(StorageError):
            BlockDevice(0)

    def test_write_and_read_costs(self):
        device = BlockDevice(1000, write_mb_per_ms=1.0)
        assert device.write_file("a.snap", 100) == pytest.approx(100)

    def test_usage_tracking(self):
        device = BlockDevice(1000)
        device.write_file("a", 300)
        device.write_file("b", 200)
        assert device.used_mb == pytest.approx(500)
        assert device.free_mb == pytest.approx(500)

    def test_overwrite_replaces_size(self):
        device = BlockDevice(1000)
        device.write_file("a", 300)
        device.write_file("a", 100)
        assert device.used_mb == pytest.approx(100)

    def test_disk_full_raises(self):
        device = BlockDevice(100)
        device.write_file("a", 90)
        with pytest.raises(StorageError, match="disk full"):
            device.write_file("b", 20)

    def test_overwrite_counts_reclaimed_space(self):
        device = BlockDevice(100)
        device.write_file("a", 90)
        device.write_file("a", 95)  # fits: old copy is replaced
        assert device.used_mb == pytest.approx(95)

    def test_delete(self):
        device = BlockDevice(100)
        device.write_file("a", 50)
        device.delete_file("a")
        assert device.used_mb == 0
        with pytest.raises(StorageError):
            device.delete_file("a")

    def test_file_size_queries(self):
        device = BlockDevice(100)
        device.write_file("a", 42)
        assert device.has_file("a")
        assert device.file_size_mb("a") == pytest.approx(42)
        with pytest.raises(StorageError):
            device.file_size_mb("missing")

    def test_negative_sizes_raise(self):
        device = BlockDevice(100)
        with pytest.raises(StorageError):
            device.write_file("a", -1)

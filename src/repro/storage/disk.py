"""Host block device: capacity tracking and sequential transfer costs.

Used by the snapshot store (§6 discusses snapshot disk-space overhead) and by
the REAP-style prefetcher, which reads snapshot images sequentially.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import StorageError


class BlockDevice:
    """A host SSD with named files and a simple transfer-rate model."""

    def __init__(self, capacity_mb: float, read_mb_per_ms: float = 2.0,
                 write_mb_per_ms: float = 1.0, name: str = "ssd") -> None:
        if capacity_mb <= 0:
            raise StorageError(f"capacity must be positive, got {capacity_mb}")
        self.name = name
        self.capacity_mb = capacity_mb
        self.read_mb_per_ms = read_mb_per_ms
        self.write_mb_per_ms = write_mb_per_ms
        self._files: Dict[str, float] = {}

    # -- capacity -------------------------------------------------------------
    @property
    def used_mb(self) -> float:
        return sum(self._files.values())

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self.used_mb

    def has_file(self, path: str) -> bool:
        """Whether *path* exists on this device."""
        return path in self._files

    def file_size_mb(self, path: str) -> float:
        """Size of *path*; StorageError if absent."""
        if path not in self._files:
            raise StorageError(f"no such file: {path!r}")
        return self._files[path]

    # -- operations -----------------------------------------------------------
    def write_file(self, path: str, size_mb: float) -> float:
        """Create/overwrite *path*; returns the simulated write time in ms."""
        if size_mb < 0:
            raise StorageError(f"negative file size {size_mb}")
        existing = self._files.get(path, 0.0)
        if self.used_mb - existing + size_mb > self.capacity_mb:
            raise StorageError(
                f"disk full: {size_mb:.0f} MiB into {self.free_mb:.0f} free")
        self._files[path] = size_mb
        return size_mb / self.write_mb_per_ms

    def read_cost_ms(self, size_mb: float) -> float:
        """Time to sequentially read *size_mb* from this device."""
        if size_mb < 0:
            raise StorageError(f"negative read size {size_mb}")
        return size_mb / self.read_mb_per_ms

    def delete_file(self, path: str) -> None:
        """Remove *path*; StorageError if absent."""
        if path not in self._files:
            raise StorageError(f"delete of missing file {path!r}")
        del self._files[path]

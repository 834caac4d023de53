"""Tiered snapshot storage with a remote backend (§6).

§6: *"thousands of serverless functions ... disk space overhead could be
high.  Previous works using a snapshot-based approach leverage remote
storage."*  This module implements that option: a small local LRU cache in
front of an unbounded remote object store.  A restore that misses locally
first fetches the image over the network (rtt + size/bandwidth), then
proceeds as a local restore.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import SnapshotNotFoundError, StorageError
from repro.storage.disk import BlockDevice
from repro.storage.snapshot_store import SnapshotStore, StorableImage


class RemoteObjectStore:
    """The unbounded remote tier (S3-like), with a transfer-cost model."""

    def __init__(self, rtt_ms: float = 8.0,
                 bandwidth_mb_per_ms: float = 1.2) -> None:
        if bandwidth_mb_per_ms <= 0:
            raise StorageError("remote bandwidth must be positive")
        self.rtt_ms = rtt_ms
        self.bandwidth_mb_per_ms = bandwidth_mb_per_ms
        self._objects: Dict[str, StorableImage] = {}

    def upload(self, key: str, image: StorableImage) -> float:
        """Store *image* remotely; returns the upload time in ms."""
        self._objects[key] = image
        return self.rtt_ms + image.size_mb / self.bandwidth_mb_per_ms

    def download(self, key: str) -> Tuple[StorableImage, float]:
        """Fetch *key*; returns (image, download time in ms)."""
        if key not in self._objects:
            raise SnapshotNotFoundError(f"remote store has no {key!r}")
        image = self._objects[key]
        return image, self.rtt_ms + image.size_mb / self.bandwidth_mb_per_ms

    def contains(self, key: str) -> bool:
        """Whether *key* is stored here."""
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)


class TieredSnapshotStore:
    """Local LRU cache backed by a remote object store.

    ``put`` writes through to both tiers; ``get`` returns
    ``(image, extra_ms)`` where ``extra_ms`` is 0 on a local hit and the
    download + local write time on a miss.
    """

    def __init__(self, local_device: BlockDevice,
                 remote: RemoteObjectStore,
                 local_capacity_images: int = 8) -> None:
        self.local = SnapshotStore(local_device,
                                   capacity_images=local_capacity_images)
        self.remote = remote

    def put(self, key: str, image: StorableImage) -> float:
        """Write-through install; returns the total write time in ms."""
        local_ms = self.local.put(key, image)
        remote_ms = self.remote.upload(key, image)
        return local_ms + remote_ms

    def get(self, key: str) -> Tuple[StorableImage, float]:
        """Fetch *key*, pulling from the remote tier on a local miss."""
        if self.local.contains(key):
            return self.local.get(key), 0.0
        image, download_ms = self.remote.download(key)
        write_ms = self.local.put(key, image)
        return image, download_ms + write_ms

    def contains(self, key: str) -> bool:
        """Whether *key* is stored here."""
        return self.local.contains(key) or self.remote.contains(key)

    def evict_local(self, key: str) -> None:
        """Drop the local copy (capacity pressure); remote copy remains."""
        self.local.remove(key)

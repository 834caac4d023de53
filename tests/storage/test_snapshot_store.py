"""Unit tests for the LRU snapshot store (§6 replacement policy)."""

import pytest

from repro.errors import SnapshotNotFoundError, StorageError
from repro.storage.disk import BlockDevice
from repro.storage.snapshot_store import SnapshotStore


class FakeImage:
    """Minimal StorableImage."""

    def __init__(self, size_mb: float) -> None:
        self.size_mb = size_mb
        self.evicted = False

    def on_evicted(self) -> None:
        self.evicted = True


@pytest.fixture
def store():
    return SnapshotStore(BlockDevice(1000), capacity_images=3)


class TestBasics:
    def test_put_get_roundtrip(self, store):
        image = FakeImage(100)
        write_ms = store.put("fn", image)
        assert write_ms > 0
        assert store.get("fn") is image
        assert store.contains("fn")

    def test_missing_key_raises(self, store):
        with pytest.raises(SnapshotNotFoundError):
            store.get("nope")

    def test_overwrite_same_key(self, store):
        first = FakeImage(10)
        store.put("fn", first)
        store.put("fn", FakeImage(20))
        assert first.evicted
        assert len(store) == 1

    def test_remove(self, store):
        image = FakeImage(10)
        store.put("fn", image)
        store.remove("fn")
        assert image.evicted
        assert not store.contains("fn")
        with pytest.raises(SnapshotNotFoundError):
            store.remove("fn")

    def test_capacity_must_be_positive(self):
        with pytest.raises(StorageError):
            SnapshotStore(BlockDevice(100), capacity_images=0)


class TestLru:
    def test_evicts_least_recently_used(self, store):
        images = {key: FakeImage(10) for key in ("a", "b", "c")}
        for key, image in images.items():
            store.put(key, image)
        store.get("a")  # refresh a; b becomes LRU
        store.put("d", FakeImage(10))
        assert images["b"].evicted
        assert store.contains("a")
        assert store.evictions == 1

    def test_evicts_for_disk_space(self):
        store = SnapshotStore(BlockDevice(250), capacity_images=100)
        first = FakeImage(170)
        store.put("a", first)
        store.put("b", FakeImage(170))
        assert first.evicted
        assert store.contains("b")

    def test_disk_usage_tracks_images(self, store):
        store.put("a", FakeImage(100))
        store.put("b", FakeImage(50))
        assert store.disk_used_mb == pytest.approx(150)

    def test_keys_in_lru_order(self, store):
        for key in ("a", "b", "c"):
            store.put(key, FakeImage(1))
        store.get("a")
        assert list(store.keys()) == ["b", "c", "a"]


class TestOversizeImage:
    """Regression: an image larger than the device used to drain the whole
    store through futile LRU evictions before the write finally failed."""

    def test_oversize_put_raises_without_evicting(self, store):
        keepers = {key: FakeImage(100) for key in ("a", "b")}
        for key, image in keepers.items():
            store.put(key, image)
        with pytest.raises(StorageError):
            store.put("huge", FakeImage(5000))
        # The store survives intact: nothing evicted, nothing lost.
        assert store.evictions == 0
        assert all(not image.evicted for image in keepers.values())
        assert sorted(store.keys()) == ["a", "b"]
        assert not store.contains("huge")

    def test_oversize_put_on_empty_store_raises(self, store):
        with pytest.raises(StorageError):
            store.put("huge", FakeImage(5000))
        assert len(store) == 0

    def test_exactly_device_sized_image_fits(self, store):
        store.put("fits", FakeImage(1000))
        assert store.contains("fits")


class TestPartialResidency:
    def test_partial_put_tracks_resident_bytes(self, store):
        store.put("fn", FakeImage(100), resident_mb=30)
        assert store.contains("fn")
        assert not store.is_complete("fn")
        assert store.resident_mb("fn") == pytest.approx(30)
        assert store.missing_mb("fn") == pytest.approx(70)
        assert store.disk_used_mb == pytest.approx(30)

    def test_full_put_is_complete(self, store):
        store.put("fn", FakeImage(100))
        assert store.is_complete("fn")
        assert store.missing_mb("fn") == 0.0
        assert store.resident_mb("fn") == pytest.approx(100)

    def test_resident_mb_bounds_validated(self, store):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError):
            store.put("fn", FakeImage(100), resident_mb=-1)
        with pytest.raises(ValidationError):
            store.put("fn", FakeImage(100), resident_mb=101)

    def test_extend_resident_lands_bytes(self, store):
        store.put("fn", FakeImage(100), resident_mb=30)
        store.extend_resident("fn", 40)
        assert store.resident_mb("fn") == pytest.approx(70)
        assert not store.is_complete("fn")
        store.extend_resident("fn", 30)
        assert store.is_complete("fn")
        assert store.disk_used_mb == pytest.approx(100)

    def test_extend_past_size_clamps_and_completes(self, store):
        store.put("fn", FakeImage(100), resident_mb=90)
        store.extend_resident("fn", 500)
        assert store.is_complete("fn")
        assert store.resident_mb("fn") == pytest.approx(100)

    def test_extend_on_complete_image_is_noop(self, store):
        store.put("fn", FakeImage(100))
        assert store.extend_resident("fn", 50) == 0.0
        assert store.resident_mb("fn") == pytest.approx(100)

    def test_missing_key_raises(self, store):
        with pytest.raises(SnapshotNotFoundError):
            store.resident_mb("nope")
        with pytest.raises(SnapshotNotFoundError):
            store.is_complete("nope")
        with pytest.raises(SnapshotNotFoundError):
            store.extend_resident("nope", 5)
        assert store.missing_mb("nope") == 0.0

    def test_discard_clears_partial_state(self, store):
        store.put("fn", FakeImage(100), resident_mb=30)
        store.remove("fn")
        # Re-adding the key fully resident must not inherit stale
        # partial-residency bookkeeping.
        store.put("fn", FakeImage(100))
        assert store.is_complete("fn")

    def test_clear_drops_partial_state(self, store):
        store.put("fn", FakeImage(100), resident_mb=30)
        assert store.clear() == 1
        store.put("fn", FakeImage(100))
        assert store.is_complete("fn")

    def test_extend_evicts_others_but_protects_self(self):
        store = SnapshotStore(BlockDevice(200), capacity_images=10)
        victim = FakeImage(120)
        store.put("victim", victim)
        store.put("fn", FakeImage(150), resident_mb=50)
        # Landing the residual needs 100 MiB; only 30 are free, so the
        # victim goes — but never the still-streaming image itself.
        store.extend_resident("fn", 100)
        assert victim.evicted
        assert store.contains("fn")
        assert store.is_complete("fn")

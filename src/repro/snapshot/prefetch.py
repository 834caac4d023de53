"""REAP-style working-set recording and prefetch (§7 extension).

REAP [54] observes that restoring a snapshot by demand paging faults in a
small, *stable* working set with expensive random reads; it records the set
of pages an invocation actually touches and, on later restores, prefetches
exactly those pages with one sequential read.

The paper notes Fireworks "can also employ REAP's prefetching to further
reduce the overhead for reading snapshots from disk" — this module is that
employment:

* :class:`ReapRecorder` captures a per-function working-set profile from a
  worker after its invocation, including the *chunk set* covering the
  working set on the image's :class:`~repro.snapshot.chunks.ChunkMap`;
* :class:`Restorer` (see :mod:`repro.snapshot.restorer`) consults the
  recorder under ``POLICY_REAP`` (scalar prefetch of the recorded bytes)
  and ``POLICY_LAZY`` (prefetch exactly the recorded chunks, demand-fault
  the rest); without a profile both fall back to conservative
  first-invocation behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import StateError
from repro.sandbox.worker import Worker
from repro.snapshot.chunks import DEFAULT_CHUNK_MB
from repro.snapshot.image import SnapshotImage

#: Fraction of clean (shared, executed-over) pages an invocation touches
#: beyond what it dirties — text and read-only data of the hot path.
CLEAN_TOUCH_FRACTION = 0.10


@dataclass(frozen=True)
class WorkingSetProfile:
    """The recorded pages one invocation of a function touches."""

    image_key: str
    generation: int
    working_set_mb: float
    recorded_at_ms: float
    #: Chunk indices (on a ``ChunkMap(image.size_mb, chunk_size_mb)``)
    #: covering the working set — what POLICY_LAZY prefetches and what a
    #: streaming cross-host transfer ships first.
    chunks: Tuple[int, ...] = field(default=())
    chunk_size_mb: float = DEFAULT_CHUNK_MB

    def matches(self, image: SnapshotImage) -> bool:
        """A profile is only valid for the generation it was recorded on —
        regeneration (ASLR, §6) changes the page layout."""
        return (self.image_key == image.key
                and self.generation == image.generation)

    def chunk_bytes_mb(self, image: SnapshotImage) -> float:
        """MiB covered by the recorded chunk set (>= working_set_mb:
        chunk-granular prefetch rounds the set up to whole chunks)."""
        if not self.chunks:
            return 0.0
        return image.chunk_map(self.chunk_size_mb).bytes_mb(self.chunks)


class ReapRecorder:
    """Records and serves working-set profiles, keyed by function."""

    def __init__(self, chunk_size_mb: float = DEFAULT_CHUNK_MB) -> None:
        self.chunk_size_mb = chunk_size_mb
        self._profiles: Dict[str, WorkingSetProfile] = {}
        self.recordings = 0

    def record(self, image: SnapshotImage, worker: Worker,
               now_ms: float) -> WorkingSetProfile:
        """Capture the working set of *worker* after an invocation.

        The working set is what the invocation actually touched: its
        private (CoW-broken + fresh) pages plus the hot fraction of the
        still-clean mapped pages it executed over.  The covering chunk set
        is derived on the image's chunk map with the recorder's
        granularity — or, when the previous profile was recorded on the
        same image generation with the same granularity and the same
        working set, reused from it: the set is a pure function of those.
        """
        if worker.invocations == 0:
            raise StateError(
                "cannot record a working set before any invocation ran")
        space = worker.sandbox.space
        vmm_mb = (space.region_rss_mb("vmm")
                  if space.has_region("vmm") else 0.0)
        uss_mb = space.uss_mb()
        private_mb = uss_mb - vmm_mb
        clean_mb = space.rss_mb() - uss_mb
        working_set_mb = max(0.0, private_mb
                             + clean_mb * CLEAN_TOUCH_FRACTION)
        previous = self._profiles.get(image.key)
        if (previous is not None and previous.matches(image)
                and previous.chunk_size_mb == self.chunk_size_mb
                and previous.working_set_mb == working_set_mb):
            chunks = previous.chunks
        else:
            chunks = image.chunk_map(self.chunk_size_mb).spread(
                working_set_mb)
        profile = WorkingSetProfile(
            image_key=image.key,
            generation=image.generation,
            working_set_mb=working_set_mb,
            recorded_at_ms=now_ms,
            chunks=chunks,
            chunk_size_mb=self.chunk_size_mb,
        )
        self._profiles[image.key] = profile
        self.recordings += 1
        return profile

    def profile_for(self, image: SnapshotImage
                    ) -> Optional[WorkingSetProfile]:
        """The valid profile for *image*, or None (record first / stale
        generation)."""
        profile = self._profiles.get(image.key)
        if profile is None or not profile.matches(image):
            return None
        return profile

    def invalidate(self, image_key: str) -> None:
        """Drop a profile (e.g. after the function is reinstalled)."""
        self._profiles.pop(image_key, None)

    def __len__(self) -> int:
        return len(self._profiles)

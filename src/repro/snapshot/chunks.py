"""Chunk-granular view of a snapshot image (REAP / fastpull direction).

A snapshot image file is logically divided into fixed-size chunks — the
unit of lazy loading.  REAP [54] records which guest pages an invocation
touches and prefetches exactly those on later restores; lazy-loading
snapshotters (fastpull-style) pull only the chunks a start actually needs
and stream the rest in the background.  :class:`ChunkMap` is the shared
arithmetic both use: a pure value object mapping ``(size_mb,
chunk_size_mb)`` to chunk indices and byte counts, with no simulation
state.

Determinism notes:

* chunk selection (:meth:`ChunkMap.spread`) uses integer arithmetic
  (``(i * n) // k``), never ``hash()`` — results are independent of
  ``PYTHONHASHSEED``;
* the last chunk is sized so the per-chunk sizes ledger back to the image
  size by construction (``size - (n-1) * chunk``), not by accumulation;
* :meth:`ChunkMap.bytes_mb` is bit-identical to an exactly rounded
  ``math.fsum`` of the per-chunk sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Tuple

from repro.errors import ValidationError

#: Default lazy-loading granularity.  2 MiB matches a hugepage / typical
#: lazy-snapshotter block: coarse enough that per-chunk overheads stay
#: small, fine enough that a 170 MiB image has ~85 chunks to be lazy about.
DEFAULT_CHUNK_MB = 2.0


@dataclass(frozen=True)
class ChunkMap:
    """Fixed-size logical chunks over a snapshot image's regions.

    The map is defined by the image's total size: region boundaries do not
    matter for transfer/prefetch cost, only bytes do, so chunk ``i`` covers
    ``[i * chunk_size_mb, min((i + 1) * chunk_size_mb, size_mb))``.
    """

    size_mb: float
    chunk_size_mb: float = DEFAULT_CHUNK_MB
    #: Number of chunks; the last one may be partial.  The map is a
    #: frozen value, so this and the tail size are derived once.
    n_chunks: int = field(init=False, repr=False, compare=False)
    _last_mb: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_mb <= 0.0:
            raise ValidationError(
                f"chunk map needs a positive image size, got {self.size_mb}")
        if self.chunk_size_mb <= 0.0:
            raise ValidationError(
                f"chunk size must be positive, got {self.chunk_size_mb}")
        n = max(1, int(math.ceil(self.size_mb / self.chunk_size_mb
                                 - 1e-12)))
        object.__setattr__(self, "n_chunks", n)
        object.__setattr__(self, "_last_mb",
                           self.size_mb - self.chunk_size_mb * (n - 1))

    def chunk_mb(self, index: int) -> float:
        """Size of chunk *index* in MiB (the last chunk may be partial)."""
        n = self.n_chunks
        if not 0 <= index < n:
            raise ValidationError(
                f"chunk index {index} out of range [0, {n})")
        return self.chunk_size_mb if index < n - 1 else self._last_mb

    def bytes_mb(self, indices: Iterable[int]) -> float:
        """Total MiB covered by *indices* (each counted once).

        Equal (``==``) to ``math.fsum`` of :meth:`chunk_mb` over the set:
        without the tail chunk the sum is ``count`` equal terms, and the
        rounded product ``count * chunk_size_mb`` is that exact sum
        rounded once, as ``fsum`` rounds it.  With the tail the product
        could round before the add, so that case still sums exactly.
        """
        chosen = set(indices)
        if not chosen:
            return 0.0
        n = self.n_chunks
        low = min(chosen)
        high = max(chosen)
        if low < 0 or high >= n:
            bad = low if low < 0 else high
            raise ValidationError(
                f"chunk index {bad} out of range [0, {n})")
        count = len(chosen)
        if high < n - 1:
            return count * self.chunk_size_mb
        return math.fsum([self.chunk_size_mb] * (count - 1)
                         + [self._last_mb])

    def spread(self, want_mb: float) -> Tuple[int, ...]:
        """A deterministic chunk set covering at least *want_mb*.

        A working set is scattered across the image (text here, heap
        there), so the recorded chunks are spread evenly over the index
        space with pure integer arithmetic: ``k`` chunks out of ``n`` at
        positions ``(i * n) // k`` — strictly increasing for ``k <= n``,
        stable across processes and hash seeds.
        """
        if want_mb <= 0.0:
            return ()
        n = self.n_chunks
        if want_mb >= self.size_mb:
            return tuple(range(n))
        k = min(n, int(math.ceil(want_mb / self.chunk_size_mb)))
        chunks = tuple((i * n) // k for i in range(k))
        # Rounding down to full chunks can leave the set short of want_mb
        # when the tail (partial) chunk was picked; top up from the front.
        if self.bytes_mb(chunks) < want_mb and len(chunks) < n:
            missing = sorted(set(range(n)) - set(chunks))
            chunks = tuple(sorted(chunks + (missing[0],)))
        return chunks

    def all_chunks(self) -> Tuple[int, ...]:
        """Every chunk index (whole-image transfer/prefetch)."""
        return tuple(range(self.n_chunks))

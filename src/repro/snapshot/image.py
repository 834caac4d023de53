"""Snapshot images: serialized guest memory + device state + runtime state.

An image captures, per §3.3 and Figure 4: guest kernel, libraries, language
runtime, app code, heap, and — for post-JIT snapshots — the JITted machine
code, plus the guest's network identity (which clones inherit, §3.5) and the
runtime's JIT tier state (what makes the restored function "already
compiled").

On the host, the image file's page cache is modeled as one
:class:`SharedSegment` per region; every restored microVM maps those
segments MAP_PRIVATE (§3.1: "FIREWORKS uses private mapping for the
snapshot").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import SnapshotNotFoundError
from repro.mem.host_memory import HostMemory
from repro.mem.segments import SharedSegment
from repro.net.address import IpAddress, MacAddress
from repro.runtime.interpreter import AppCode
from repro.runtime.jit import FunctionJitState
from repro.snapshot.chunks import DEFAULT_CHUNK_MB, ChunkMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.snapshot.restorer import CloneTemplate

# Snapshot stages (Fig 11/12 factor analysis).
STAGE_OS = "os"              # after guest OS boot + runtime agent launch
STAGE_POST_LOAD = "post-load"  # after the function is loaded (no forced JIT)
STAGE_POST_JIT = "post-jit"  # after loading AND JITting — Fireworks proper

_VALID_STAGES = (STAGE_OS, STAGE_POST_LOAD, STAGE_POST_JIT)


@dataclass
class SnapshotImage:
    """One VM-level snapshot of an installed function (or boot template)."""

    key: str
    language: str
    stage: str
    regions_mb: Dict[str, float]
    guest_ip: IpAddress
    guest_mac: MacAddress
    app: Optional[AppCode] = None
    jit_state: Dict[str, FunctionJitState] = field(default_factory=dict)
    created_at_ms: float = 0.0
    generation: int = 1      # bumped by ASLR-driven regeneration (§6)
    _segments: Dict[str, SharedSegment] = field(default_factory=dict)
    _host: Optional[HostMemory] = None
    #: What every clone of the materialised segments is built from
    #: (set by the restorer); goes with them.
    template: Optional["CloneTemplate"] = field(default=None, init=False,
                                                compare=False)
    #: Image file size: all snapshotted guest memory, summed once (the
    #: regions are fixed at construction).
    size_mb: float = field(default=0.0, init=False, repr=False,
                           compare=False)

    def __post_init__(self) -> None:
        if self.stage not in _VALID_STAGES:
            raise SnapshotNotFoundError(
                f"invalid snapshot stage {self.stage!r}")
        self.size_mb = sum(self.regions_mb.values())

    def chunk_map(self, chunk_size_mb: float = DEFAULT_CHUNK_MB) -> ChunkMap:
        """The fixed-size chunk view of this image file (lazy loading)."""
        return ChunkMap(self.size_mb, chunk_size_mb)

    # -- page cache management --------------------------------------------------
    def materialize(self, host: HostMemory) -> Dict[str, SharedSegment]:
        """Fault the image into the host page cache (first restore).

        Idempotent: later restores reuse the same segments — that reuse *is*
        the memory sharing of Figure 4.
        """
        if not self._segments:
            self._host = host
            for region, mb in self.regions_mb.items():
                segment = host.create_segment(
                    mb, kind=region,
                    name=f"{self.key}.g{self.generation}.{region}")
                segment.pin()  # the store's file copy keeps it cached
                self._segments[region] = segment
        return dict(self._segments)

    @property
    def materialized(self) -> bool:
        return bool(self._segments)

    def on_evicted(self) -> None:
        """Store eviction hook: drop the page-cache pin, and the clone
        template with the segments it maps."""
        for segment in self._segments.values():
            segment.unpin()
        self._segments.clear()
        self.template = None

    def clone_for_transfer(self) -> "SnapshotImage":
        """A same-generation replica for another host's snapshot store.

        Page-cache segments are per-host (``materialize`` pins them on one
        ``HostMemory``), so a cross-host copy must be a distinct image
        object that materializes its own segments on the destination.  The
        key and generation are unchanged: it is the same snapshot file, so
        recorded working-set profiles keyed on them still match.
        """
        return SnapshotImage(
            key=self.key,
            language=self.language,
            stage=self.stage,
            regions_mb=dict(self.regions_mb),
            guest_ip=self.guest_ip,
            guest_mac=self.guest_mac,
            app=self.app,
            jit_state={name: state.clone()
                       for name, state in self.jit_state.items()},
            created_at_ms=self.created_at_ms,
            generation=self.generation,
        )

    def clone_for_regeneration(self) -> "SnapshotImage":
        """A fresh-generation image (periodic ASLR re-randomization, §6)."""
        return SnapshotImage(
            key=self.key,
            language=self.language,
            stage=self.stage,
            regions_mb=dict(self.regions_mb),
            guest_ip=self.guest_ip,
            guest_mac=self.guest_mac,
            app=self.app,
            jit_state={name: state.clone()
                       for name, state in self.jit_state.items()},
            created_at_ms=self.created_at_ms,
            generation=self.generation + 1,
        )

    def __repr__(self) -> str:
        return (f"<SnapshotImage {self.key} stage={self.stage} "
                f"{self.size_mb:.0f}MiB gen={self.generation}>")

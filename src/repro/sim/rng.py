"""Named, independently-seeded random streams.

Every stochastic choice in the simulator draws from a *named* stream so that
adding a new consumer of randomness never perturbs the draws seen by existing
components — the property that keeps regression numbers stable.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A family of :class:`random.Random` streams derived from one seed."""

    def __init__(self, root_seed: int) -> None:
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it deterministically."""
        if name not in self._streams:
            self._streams[name] = random.Random(
                _derive_seed(self.root_seed, name))
        return self._streams[name]

    def fork(self, name: str) -> "RngStreams":
        """A child family whose streams are independent of this family's."""
        return RngStreams(_derive_seed(self.root_seed, f"fork:{name}"))

#!/usr/bin/env python3
"""Print the canonical hash of every catalog experiment's result.

Usage: ``python tools/catalog_hashes.py > tools/catalog_hashes.json``

Runs ``run_experiments(["all"], jobs=2)`` at the default seed and
parameters (through the result cache, so after a ``figure all`` run it
only decodes cached shards) and prints ``{experiment id: sha256}`` as
JSON, in catalog order.  Each hash is
:func:`repro.bench.serialization.canonical_hash` of the merged result,
the hash the golden figure tests pin.  ``tools/catalog_hashes.json`` is
the committed manifest; CI diffs this script's output against it, so a
change that moves any result must change the manifest too.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def main() -> int:
    from repro.bench.engine import run_experiments
    from repro.bench.serialization import canonical_hash
    results = run_experiments(["all"], jobs=2).results
    hashes = {experiment_id: canonical_hash(result)
              for experiment_id, result in results.items()}
    print(json.dumps(hashes, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

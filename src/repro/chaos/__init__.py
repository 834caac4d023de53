"""Cluster-wide chaos engine: scheduled host failures, failover, retry,
and budgeted operation faults.

The plan (:mod:`repro.chaos.plan`) is data; the controller
(:mod:`repro.chaos.controller`) applies it to a live platform on the
simulation clock.  See docs/chaos.md for the fault taxonomy and the
determinism story.
"""

from repro.chaos.controller import ChaosEventRecord, HostFailureController
from repro.chaos.plan import (BUDGET_KINDS, KIND_BUS_PARTITION,
                              KIND_DB_TIMEOUT, KIND_HOST_CRASH,
                              KIND_HOST_DEGRADED, KIND_HOST_RECOVER,
                              KIND_PARAM_FETCH_TIMEOUT,
                              KIND_RESTORE_CORRUPTION, KIND_SLOW_RESTORE,
                              KIND_STORE_LOSS, KINDS, ChaosEvent, ChaosPlan)

__all__ = [
    "BUDGET_KINDS",
    "ChaosEvent",
    "ChaosEventRecord",
    "ChaosPlan",
    "HostFailureController",
    "KINDS",
    "KIND_BUS_PARTITION",
    "KIND_DB_TIMEOUT",
    "KIND_HOST_CRASH",
    "KIND_HOST_DEGRADED",
    "KIND_HOST_RECOVER",
    "KIND_PARAM_FETCH_TIMEOUT",
    "KIND_RESTORE_CORRUPTION",
    "KIND_SLOW_RESTORE",
    "KIND_STORE_LOSS",
]

"""Heavy-traffic serving layer: admission control + warm-pool autoscaling.

The paper's latency figures measure one-shot invocations; sustained
open-loop traffic additionally needs a *serving layer*:

* :class:`AdmissionQueue` — a bounded FIFO ahead of each host's capacity
  gate.  Requests that cannot start immediately wait in the queue (the
  wait is a first-class ``admission`` span); requests that arrive to a
  full queue, or wait longer than their budget, are **shed**
  with :class:`~repro.errors.InvocationSheddedError` (a 429, not a
  failure), counted in the platform ledger's ``shed``.
* :class:`WarmPoolAutoscaler` — a per-cluster control loop that
  pre-provisions warm workers per host, either reactively (on observed
  queue pressure) or predictively (from the same arrival-gap histograms
  the hybrid keep-alive policy maintains).

Everything is gated on ``CalibratedParameters.autoscale.enabled``; with
the default (disabled) config the invoke path is byte-identical to the
pre-serving-layer behaviour.
"""

from repro.autoscale.admission import AdmissionQueue
from repro.autoscale.scaler import WarmPoolAutoscaler

__all__ = [
    "AdmissionQueue",
    "WarmPoolAutoscaler",
]

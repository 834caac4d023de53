"""Extension: provider economics (§1).

The user pays for execution only; start-up time is resource-time the
provider eats.  Fireworks' billable efficiency approaches 1 because there
are no cold starts to eat.  (Invoker scheduling, Figure 1, is
``test_cluster_scheduling.py``.)
"""

from repro.billing import run_billing_analysis

from conftest import emit


def test_billing_analysis(benchmark):
    reports = benchmark.pedantic(
        lambda: run_billing_analysis(invocations=20, cold_every=5),
        rounds=1, iterations=1)
    emit("Extension — provider economics (§1: start-up is not charged)",
         "\n".join(report.as_line() for report in reports.values()))

    fireworks = reports["fireworks"]
    openwhisk = reports["openwhisk"]
    # Fireworks bills nearly all of its resource-time.
    assert fireworks.billable_efficiency > 0.85
    # The cold-sprinkled baseline gives a chunk of resource-time away.
    assert openwhisk.billable_efficiency < \
        fireworks.billable_efficiency - 0.1
    # Same user revenue (same executions billed)...
    assert abs(fireworks.revenue_usd - openwhisk.revenue_usd) / \
        openwhisk.revenue_usd < 0.35
    # ...from strictly less hardware time.
    assert fireworks.resource_ms < openwhisk.resource_ms


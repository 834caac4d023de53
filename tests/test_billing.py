"""Unit tests for the pay-as-you-go billing model (§1)."""

import pytest

from repro.billing import (BillingLine, bill_invocation, bill_records,
                           run_billing_analysis)
from repro.errors import PlatformError
from repro.platforms.base import InvocationRecord


def _record(startup=100.0, exec_ms=50.0, other=5.0, function="fn"):
    record = InvocationRecord(function=function, platform="p",
                              mode="cold", submitted_ms=0.0)
    record.startup_ms = startup
    record.exec_ms = exec_ms
    record.other_ms = other
    return record


class TestBillInvocation:
    def test_user_pays_exec_only(self):
        line = bill_invocation(_record(startup=1000.0, exec_ms=50.0))
        assert line.billed_ms == 50.0
        assert line.resource_ms == pytest.approx(1055.0)
        assert line.unbilled_ms == pytest.approx(1005.0)

    def test_granularity_rounds_up(self):
        line = bill_invocation(_record(exec_ms=101.0),
                               granularity_ms=100.0)
        assert line.billed_ms == 200.0

    def test_bad_granularity_raises(self):
        with pytest.raises(PlatformError):
            bill_invocation(_record(), granularity_ms=0)

    def test_charge_scales_with_memory(self):
        small = bill_invocation(_record(), memory_gb=0.5)
        big = bill_invocation(_record(), memory_gb=1.0)
        assert big.charge_usd == pytest.approx(2 * small.charge_usd)


class TestBillRecords:
    def test_chains_flattened(self):
        parent = _record(function="a")
        parent.children.append(_record(function="b"))
        report = bill_records("p", [parent])
        assert {line.function for line in report.lines} == {"a", "b"}

    def test_chains_excluded_on_request(self):
        parent = _record(function="a")
        parent.children.append(_record(function="b"))
        report = bill_records("p", [parent], include_chains=False)
        assert len(report.lines) == 1

    def test_efficiency_bounds(self):
        report = bill_records("p", [_record(startup=0.0, other=0.0)])
        assert report.billable_efficiency == 1.0
        slow = bill_records("p", [_record(startup=10000.0)])
        assert slow.billable_efficiency < 0.01

    def test_empty_report(self):
        report = bill_records("p", [])
        assert report.billable_efficiency == 1.0
        assert report.revenue_usd == 0.0

    def test_as_line_renders(self):
        line = bill_records("fireworks", [_record()]).as_line()
        assert "fireworks" in line and "efficiency" in line


class TestBillingAnalysis:
    @pytest.fixture(scope="class")
    def reports(self):
        return run_billing_analysis(invocations=10, cold_every=3)

    def test_fireworks_efficiency_near_one(self, reports):
        """§1: Fireworks bills almost all of its resource time."""
        assert reports["fireworks"].billable_efficiency > 0.85

    def test_openwhisk_loses_time_to_cold_starts(self, reports):
        assert reports["openwhisk"].billable_efficiency < \
            reports["fireworks"].billable_efficiency - 0.1

    def test_unbilled_time_is_the_startup_gap(self, reports):
        openwhisk = reports["openwhisk"]
        assert openwhisk.unbilled_ms > 0
        assert openwhisk.unbilled_ms == pytest.approx(
            openwhisk.resource_ms - openwhisk.billed_ms)


class TestBillingAnalysisSparseColdStarts:
    """One cold start every five of 20 invocations."""

    @pytest.fixture(scope="class")
    def reports(self):
        return run_billing_analysis(invocations=20, cold_every=5)

    def test_fireworks_bills_nearly_all_resource_time(self, reports):
        assert reports["fireworks"].billable_efficiency > 0.85
        assert reports["openwhisk"].billable_efficiency < \
            reports["fireworks"].billable_efficiency - 0.1

    def test_same_revenue_from_less_hardware_time(self, reports):
        fireworks, openwhisk = reports["fireworks"], reports["openwhisk"]
        assert abs(fireworks.revenue_usd - openwhisk.revenue_usd) / \
            openwhisk.revenue_usd < 0.35
        assert fireworks.resource_ms < openwhisk.resource_ms

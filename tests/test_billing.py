"""Unit tests for the pay-as-you-go billing model (§1): billed time in the
platform ledger and the ``billing`` experiment that reads it."""

import io
import math

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.bench.engine import run_experiments
from repro.bench.faasdom_experiments import (BILLING, MEMORY_GB,
                                             RATE_PER_GB_S, BillingReport,
                                             run_billing)
from repro.core import FireworksPlatform
from repro.platforms.base import InvocationRecord
from repro.platforms.ledger import InvocationLedger
from repro.workloads import alexa_skills_chain


def _record(startup=100.0, exec_ms=50.0, other=5.0, function="fn"):
    record = InvocationRecord(function=function, platform="p",
                              mode="cold", submitted_ms=0.0)
    record.startup_ms = startup
    record.exec_ms = exec_ms
    record.other_ms = other
    return record


def _report(*records, platform="p"):
    ledger = InvocationLedger()
    for record in records:
        ledger.fold(record)
    return BillingReport.of(platform, ledger)


class TestBillInvocation:
    def test_user_pays_exec_only(self):
        report = _report(_record(startup=1000.0, exec_ms=50.0))
        assert report.billed_ms == 50.0
        assert report.resource_ms == pytest.approx(1055.0)
        assert report.unbilled_ms == pytest.approx(1005.0)

    def test_exec_rounds_up_to_the_millisecond(self):
        report = _report(_record(exec_ms=101.2), _record(exec_ms=7.0))
        assert report.billed_ms == 102 + 7

    def test_round_up_never_makes_unbilled_time_negative(self):
        report = _report(_record(startup=0.0, exec_ms=0.2, other=0.0))
        assert report.billed_ms == 1
        assert report.resource_ms == pytest.approx(0.2)
        assert report.unbilled_ms == 0.0
        assert report.billable_efficiency == 1.0

    def test_revenue_is_billed_gb_seconds_at_the_rate(self):
        report = _report(_record(exec_ms=1500.0), _record(exec_ms=499.5))
        assert report.billed_ms == 2000
        assert report.revenue_usd == pytest.approx(
            2.0 * MEMORY_GB * RATE_PER_GB_S)

    def test_every_completion_is_an_invocation(self):
        report = _report(_record(function="a"), _record(function="a"),
                         _record(function="b"))
        assert report.invocations == 3


class TestBillRecords:
    def test_a_platforms_chain_hops_billed_once(self):
        # The platform folds each hop of a chain into its ledger once,
        # whether or not the tracer keeps the chain's tree.
        platform = fresh_platform(FireworksPlatform)
        chain = alexa_skills_chain()
        install_all(platform, chain.functions)
        entry = invoke_once(platform, chain.entry,
                            payload={"skill": "fact"})
        hops = entry.chain_records()
        ledger = platform.ledger
        assert sorted(hop.function for hop in hops) == \
            ["alexa-fact", "alexa-frontend"]
        assert ledger.completed == 2
        assert ledger.billed_ms == sum(math.ceil(hop.exec_ms)
                                       for hop in hops)

    def test_efficiency_bounds(self):
        report = _report(_record(startup=0.0, other=0.0))
        assert report.billable_efficiency == 1.0
        slow = _report(_record(startup=10000.0))
        assert slow.billable_efficiency < 0.01

    def test_empty_report(self):
        report = _report()
        assert report.billable_efficiency == 1.0
        assert report.revenue_usd == 0.0

    def test_as_line_renders(self):
        line = _report(_record(), platform="fireworks").as_line()
        assert "fireworks" in line and "efficiency" in line

    def test_as_line_prints_every_figure(self):
        line = _report(_record(startup=100.0, exec_ms=50.0, other=5.0),
                       platform="openwhisk").as_line()
        assert line.split() == [
            "openwhisk", "billed=", "50.0ms", "resource=", "155.0ms",
            "unbilled=", "105.0ms", "efficiency=", "32.3%",
            "revenue=$0.000000"]


class TestBillingAnalysis:
    @pytest.fixture(scope="class")
    def reports(self):
        return {platform: run_billing(platform, invocations=10,
                                      cold_every=3)
                for platform in ("openwhisk", "fireworks")}

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

    def test_same_numbers_as_the_record_list_analysis(self, reports):
        """Billed and resource time as summed over each invocation's
        record before the ledger folded them."""
        assert {name: report.billed_ms for name, report in reports.items()} \
            == {"openwhisk": 6214, "fireworks": 5010}
        assert reports["openwhisk"].resource_ms == pytest.approx(
            12646.19658518518, rel=1e-9)
        assert reports["fireworks"].resource_ms == pytest.approx(
            5222.528500000001, rel=1e-9)


class TestBillingAnalysisSparseColdStarts:
    """The ``billing`` experiment: one cold start every five of 20
    invocations."""

    @pytest.fixture(scope="class")
    def reports(self):
        return run_experiments(["billing"], use_cache=False).results[
            "billing"]

    def test_one_shard_per_platform(self, reports):
        assert list(reports) == ["openwhisk", "fireworks"]
        assert [report.invocations for report in reports.values()] == \
            [20, 20]

    def test_fireworks_bills_nearly_all_resource_time(self, reports):
        assert reports["fireworks"].billable_efficiency > 0.85
        assert reports["openwhisk"].billable_efficiency < \
            reports["fireworks"].billable_efficiency - 0.1

    def test_same_revenue_from_less_hardware_time(self, reports):
        fireworks, openwhisk = reports["fireworks"], reports["openwhisk"]
        assert abs(fireworks.revenue_usd - openwhisk.revenue_usd) / \
            openwhisk.revenue_usd < 0.35
        assert fireworks.resource_ms < openwhisk.resource_ms

    def test_same_numbers_as_the_record_list_analysis(self, reports):
        assert {name: report.billed_ms for name, report in reports.items()} \
            == {"openwhisk": 11224, "fireworks": 10020}
        assert reports["openwhisk"].resource_ms == pytest.approx(
            18229.20798518519, rel=1e-9)
        assert reports["fireworks"].resource_ms == pytest.approx(
            10445.056999999975, rel=1e-9)

    def test_renders_one_line_per_platform(self, reports):
        out = io.StringIO()
        BILLING.render(reports, out)
        lines = out.getvalue().splitlines()
        assert [line.split()[0] for line in lines] == ["openwhisk",
                                                       "fireworks"]
        assert "efficiency= 61.6%" in lines[0]
        assert "efficiency= 95.9%" in lines[1]

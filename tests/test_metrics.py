"""Unit tests for the operational numbers of a platform: the ledger's
counts by start mode, and the start-up share of real invocations."""

from repro.bench import fresh_platform, install_all, invoke_once
from repro.core import FireworksPlatform
from repro.platforms import FirecrackerPlatform
from repro.platforms.base import InvocationRecord
from repro.platforms.ledger import InvocationLedger
from repro.workloads import alexa_skills_chain, faasdom_spec


def _record(function="fn", mode="cold", startup=100.0, exec_ms=50.0):
    record = InvocationRecord(function=function, platform="p", mode=mode,
                              submitted_ms=0.0)
    record.startup_ms = startup
    record.exec_ms = exec_ms
    return record


def _ledger(records):
    ledger = InvocationLedger()
    for record in records:
        ledger.fold(record)
    return ledger


def _startup_share(records):
    return (sum(record.startup_ms for record in records)
            / sum(record.total_ms for record in records))


class TestSummarize:
    def test_counts_by_mode(self):
        records = [_record(mode="cold"), _record(mode="warm"),
                   _record(mode="warm")]
        ledger = _ledger(records)
        assert ledger.completed == 3
        assert ledger.by_mode == {"cold": 1, "warm": 2}


class TestOnRealPlatforms:
    def test_fireworks_startup_share_tiny(self):
        platform = fresh_platform(FireworksPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        records = [invoke_once(platform, spec.name) for _ in range(3)]
        assert platform.ledger.by_mode == {"snapshot": 3}
        assert _startup_share(records) < 0.06

    def test_firecracker_cold_startup_dominates(self):
        platform = fresh_platform(FirecrackerPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        record = invoke_once(platform, spec.name, mode="cold")
        assert _startup_share([record]) > 0.6

    def test_chain_functions_all_appear(self):
        platform = fresh_platform(FireworksPlatform)
        chain = alexa_skills_chain()
        install_all(platform, chain.functions)
        record = invoke_once(platform, chain.entry,
                             payload={"skill": "fact"})
        # The platform folds both hops; each counts once.
        assert [hop.function for hop in record.chain_records()] == \
            ["alexa-frontend", "alexa-fact"]
        assert platform.ledger.completed == 2
        assert list(platform.ledger.total_ms) == \
            [hop.total_ms for hop in reversed(record.chain_records())]

"""Unit tests for the operational numbers the platform ledger folds:
counts by start mode, per-function counts and start-up share."""

import pytest

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


def _invocations(function_ledger):
    return sum(function_ledger.modes.values())


def _startup_share(function_ledger):
    return function_ledger.startup_sum / function_ledger.total_sum


class TestSummarize:
    def test_counts_by_mode(self):
        records = [_record(mode="cold"), _record(mode="warm"),
                   _record(mode="warm")]
        ledger = _ledger(records)
        assert ledger.completed == 3
        assert ledger.by_mode == {"cold": 1, "warm": 2}

    def test_per_function_grouping(self):
        records = [_record("a"), _record("a"), _record("b")]
        ledger = _ledger(records)
        assert _invocations(ledger.functions["a"]) == 2
        assert _invocations(ledger.functions["b"]) == 1
        with pytest.raises(KeyError):
            ledger.functions["ghost"]

    def test_startup_share(self):
        ledger = _ledger([_record(startup=75.0, exec_ms=25.0)])
        assert _startup_share(ledger.functions["fn"]) == pytest.approx(0.75)


class TestOnRealPlatforms:
    def test_fireworks_startup_share_tiny(self):
        platform = fresh_platform(FireworksPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        for _ in range(3):
            invoke_once(platform, spec.name)
        ledger = platform.ledger
        assert ledger.by_mode == {"snapshot": 3}
        assert _startup_share(ledger.functions[spec.name]) < 0.06

    def test_firecracker_cold_startup_dominates(self):
        platform = fresh_platform(FirecrackerPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        invoke_once(platform, spec.name, mode="cold")
        assert _startup_share(platform.ledger.functions[spec.name]) > 0.6

    def test_chain_functions_all_appear(self):
        platform = fresh_platform(FireworksPlatform)
        chain = alexa_skills_chain()
        install_all(platform, chain.functions)
        invoke_once(platform, chain.entry, payload={"skill": "fact"})
        # The platform folds both hops; each counts once.
        ledger = platform.ledger
        counts = {name: _invocations(entry)
                  for name, entry in ledger.functions.items()}
        assert counts == {"alexa-frontend": 1, "alexa-fact": 1}
        assert ledger.completed == 2

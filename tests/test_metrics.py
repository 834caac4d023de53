"""Unit tests for the operational metrics summaries."""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.core import FireworksPlatform
from repro.metrics import summarize, summarize_ledger
from repro.platforms import FirecrackerPlatform
from repro.platforms.base import InvocationRecord
from repro.workloads import alexa_skills_chain, faasdom_spec


def _record(function="fn", mode="cold", startup=100.0, exec_ms=50.0):
    record = InvocationRecord(function=function, platform="p", mode=mode,
                              submitted_ms=0.0)
    record.startup_ms = startup
    record.exec_ms = exec_ms
    return record


class TestSummarize:
    def test_counts_by_mode(self):
        records = [_record(mode="cold"), _record(mode="warm"),
                   _record(mode="warm")]
        metrics = summarize("p", records)
        assert metrics.total_invocations == 3
        assert metrics.by_mode == {"cold": 1, "warm": 2}

    def test_per_function_grouping(self):
        records = [_record("a"), _record("a"), _record("b")]
        metrics = summarize("p", records)
        assert metrics.function("a").invocations == 2
        assert metrics.function("b").invocations == 1
        with pytest.raises(KeyError):
            metrics.function("ghost")

    def test_startup_share(self):
        metrics = summarize("p", [_record(startup=75.0, exec_ms=25.0)])
        assert metrics.function("fn").startup_share == pytest.approx(0.75)

    def test_chains_flattened_by_default(self):
        parent = _record("a")
        parent.children.append(_record("b"))
        metrics = summarize("p", [parent])
        assert metrics.total_invocations == 2
        shallow = summarize("p", [parent], include_chains=False)
        assert shallow.total_invocations == 1

    def test_as_table(self):
        table = summarize("fireworks", [_record()]).as_table()
        assert "fireworks" in table and "startup-share" in table


class TestOnRealPlatforms:
    def test_fireworks_startup_share_tiny(self):
        platform = fresh_platform(FireworksPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        for _ in range(3):
            invoke_once(platform, spec.name)
        metrics = summarize(platform.name, platform.records)
        assert metrics.by_mode == {"snapshot": 3}
        assert metrics.function(spec.name).startup_share < 0.06

    def test_firecracker_cold_startup_dominates(self):
        platform = fresh_platform(FirecrackerPlatform)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        invoke_once(platform, spec.name, mode="cold")
        metrics = summarize(platform.name, platform.records)
        assert metrics.function(spec.name).startup_share > 0.6

    def test_chain_functions_all_appear(self):
        platform = fresh_platform(FireworksPlatform)
        chain = alexa_skills_chain()
        install_all(platform, chain.functions)
        invoke_once(platform, chain.entry, payload={"skill": "fact"})
        # The platform's records hold both hops; each counts once.
        metrics = summarize(platform.name, platform.records)
        counts = {entry.function: entry.invocations
                  for entry in metrics.functions}
        assert counts == {"alexa-frontend": 1, "alexa-fact": 1}
        assert metrics.total_invocations == 2
        assert summarize_ledger(platform.name, platform.ledger) == metrics

"""Integration tests: function chains and database triggers (§5.3)."""

import pytest

from repro.bench import fresh_platform, install_chain, invoke_once
from repro.core import FireworksPlatform
from repro.platforms import OpenWhiskPlatform
from repro.workloads import (WAGES_DB, alexa_skills_chain,
                             data_analysis_chain)

from tests.helpers import invoked_functions


@pytest.fixture(params=[OpenWhiskPlatform, FireworksPlatform],
                ids=["openwhisk", "fireworks"])
def chain_platform(request):
    return fresh_platform(request.param)


class TestAlexaChain:
    def test_frontend_invokes_selected_skill(self, chain_platform):
        chain = alexa_skills_chain()
        install_chain(chain_platform, chain)
        record = invoke_once(chain_platform, chain.entry,
                             payload={"skill": "reminder"})
        assert [child.function for child in record.children] == \
            ["alexa-reminder"]

    def test_chain_records_nest(self, chain_platform):
        chain = alexa_skills_chain()
        install_chain(chain_platform, chain)
        record = invoke_once(chain_platform, chain.entry,
                             payload={"skill": "fact"})
        all_records = record.chain_records()
        assert [r.function for r in all_records] == \
            ["alexa-frontend", "alexa-fact"]
        assert record.chain_total_ms() > record.total_ms

    def test_reminder_skill_touches_couchdb(self, chain_platform):
        chain = alexa_skills_chain()
        install_chain(chain_platform, chain)
        record = invoke_once(chain_platform, chain.entry,
                             payload={"skill": "reminder"})
        child = record.children[0]
        assert child.guest.db_ms > 0


class TestDataAnalysisChain:
    def test_insertion_runs_both_functions(self, chain_platform):
        chain = data_analysis_chain()
        install_chain(chain_platform, chain)
        record = invoke_once(chain_platform, chain.entry,
                             payload={"name": "a", "id": "1"})
        assert [r.function for r in record.chain_records()] == \
            ["da-input", "da-format"]

    def test_db_trigger_fires_analysis(self, chain_platform):
        chain = data_analysis_chain()
        install_chain(chain_platform, chain)
        chain_platform.register_db_trigger(WAGES_DB, "da-analyze")
        invoke_once(chain_platform, chain.entry,
                    payload={"name": "a", "id": "1"})
        chain_platform.sim.run()
        functions = invoked_functions(chain_platform)
        assert "da-analyze" in functions
        assert "da-stats" in functions

    def test_no_trigger_without_registration(self, chain_platform):
        chain = data_analysis_chain()
        install_chain(chain_platform, chain)
        invoke_once(chain_platform, chain.entry,
                    payload={"name": "a", "id": "1"})
        chain_platform.sim.run()
        functions = invoked_functions(chain_platform)
        assert functions == ["da-input", "da-format"]


class TestFig9Shape:
    def test_fireworks_chain_beats_openwhisk(self):
        chain = alexa_skills_chain()
        results = {}
        for platform_cls in (OpenWhiskPlatform, FireworksPlatform):
            platform = fresh_platform(platform_cls)
            install_chain(platform, chain)
            record = invoke_once(platform, chain.entry,
                                 payload={"skill": "smarthome"})
            results[platform.name] = record
        ow, fw = results["openwhisk"], results["fireworks"]
        assert fw.chain_startup_ms() < ow.chain_startup_ms() / 10
        assert fw.chain_exec_ms() < ow.chain_exec_ms()

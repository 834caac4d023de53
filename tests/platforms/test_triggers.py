"""Unit tests for platform database triggers."""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.core import FireworksPlatform
from repro.errors import FunctionNotFoundError
from repro.workloads import alexa_skills_chain, faasdom_spec
from repro.workloads.serverlessbench import REMINDER_DB

from tests.helpers import invoke_roots, invoked_functions


@pytest.fixture
def platform():
    platform = fresh_platform(FireworksPlatform)
    install_all(platform, [faasdom_spec("faas-netlatency", "nodejs")])
    return platform


FN = "faas-netlatency-nodejs"


class TestDbTriggerRegistration:
    def test_unknown_function_rejected(self, platform):
        with pytest.raises(FunctionNotFoundError):
            platform.register_db_trigger("wages", "ghost")

    def test_multiple_triggers_per_database(self, platform):
        spec2 = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec2])
        platform.register_db_trigger("events", FN)
        platform.register_db_trigger("events", spec2.name)
        platform.note_db_write("events")
        platform.sim.run()
        assert sorted(invoked_functions(platform)) == sorted([FN, spec2.name])

    def test_write_to_untriggered_db_is_quiet(self, platform):
        platform.note_db_write("nobody-cares")
        platform.sim.run()
        assert invoked_functions(platform) == []
        assert platform.ledger.completed == 0


class TestDbTriggerFiring:
    """Guest writes drive the triggers (Fig 8(b)): one firing per write."""

    @pytest.fixture
    def writer(self, platform):
        """``alexa-reminder``, which writes the reminders database once
        per invocation."""
        (reminder,) = [spec for spec in alexa_skills_chain().functions
                       if spec.name == "alexa-reminder"]
        install_all(platform, [reminder])
        return reminder.name

    def test_every_guest_write_fires_the_trigger(self, platform, writer):
        platform.register_db_trigger(REMINDER_DB, FN)
        invoke_once(platform, writer)
        invoke_once(platform, writer)
        platform.sim.run()
        assert invoked_functions(platform).count(FN) == 2

    def test_guest_writes_land_under_sequenced_ids(self, platform, writer):
        invoke_once(platform, writer)
        invoke_once(platform, writer)
        database = platform.couch.database(REMINDER_DB)
        assert [doc.doc_id for doc in database.all_docs()] == \
            [f"{writer}-1", f"{writer}-2"]
        assert database.last_seq == 2

    def test_firing_waits_for_the_simulation(self, platform):
        platform.register_db_trigger("events", FN)
        platform.note_db_write("events")
        assert platform.ledger.completed == 0
        platform.sim.run()
        assert platform.ledger.completed == 1

    def test_a_runner_replaces_the_single_invocation(self, platform):
        calls = []

        def runner(function, database):
            calls.append((function, database))
            yield platform.sim.timeout(1.0)

        platform.register_db_trigger("events", FN, runner=runner)
        platform.note_db_write("events")
        platform.sim.run()
        assert calls == [(FN, "events")]
        assert platform.ledger.completed == 0

    def test_the_firing_is_traced_back_to_its_invocation(self, platform):
        platform.register_db_trigger("events", FN)
        platform.note_db_write("events")
        platform.sim.run()
        (record,) = invoke_roots(platform)
        (firing,) = [root for root in platform.sim.tracer.traces()
                     if root.kind == "db-trigger"]
        assert firing.trace_id == f"{record.trace_id}-trigger"
        assert firing.attrs == {"database": "events", "function": FN,
                                "status": "ok",
                                "invocation": record.trace_id}

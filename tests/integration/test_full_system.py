"""Full-system scenario: everything wired together at once.

One Fireworks deployment serving: an authenticated gateway, the data-
analysis chain with its CouchDB trigger, a periodic health check,
injected faults mid-stream, retained-worker memory accounting, and billing
— the kind of day a real deployment has.
"""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.bench.faasdom_experiments import BillingReport
from repro.chaos import (KIND_PARAM_FETCH_TIMEOUT, KIND_RESTORE_CORRUPTION,
                         ChaosEvent, ChaosPlan, HostFailureController)
from repro.core import FireworksPlatform
from repro.platforms.gateway import STATUS_SUCCESS, ApiGateway
from repro.workloads import (WAGES_DB, data_analysis_chain, faasdom_spec)
from tests.helpers import invoke_roots, invoked_functions, run


@pytest.fixture
def system():
    platform = fresh_platform(FireworksPlatform)
    chain = data_analysis_chain()
    install_all(platform, chain.functions)
    install_all(platform, [faasdom_spec("faas-netlatency", "nodejs")])
    platform.register_db_trigger(WAGES_DB, "da-analyze")
    gateway = ApiGateway(platform)
    api_key = gateway.create_namespace("payroll")
    return platform, gateway, api_key


class TestFullScenario:
    def test_a_day_in_production(self, system):
        platform, gateway, api_key = system
        sim = platform.sim

        # Three wage insertions through the gateway; the second hits a
        # corrupted snapshot and a broker hiccup and must still succeed.
        activations = []
        for index in range(3):
            if index == 1:
                now = sim.now
                controller = HostFailureController(platform, ChaosPlan([
                    ChaosEvent(now, KIND_RESTORE_CORRUPTION,
                               key="da-input"),
                    ChaosEvent(now, KIND_PARAM_FETCH_TIMEOUT,
                               key="da-format")]))
            activation = run(sim, gateway.handle_request(
                api_key, "da-input",
                payload={"name": f"user{index}", "id": str(index)}))
            activations.append(activation)
        # The health check runs three times.
        for _ in range(3):
            invoke_once(platform, "faas-netlatency-nodejs")
        platform.sim.run()

        # Every gateway request succeeded despite the injected faults.
        assert all(a.status == STATUS_SUCCESS for a in activations)
        assert platform.restore_failures == 1
        assert platform.param_fetch_retries == 1
        assert controller.fired == {
            (KIND_RESTORE_CORRUPTION, "da-input"): 1,
            (KIND_PARAM_FETCH_TIMEOUT, "da-format"): 1}
        assert platform.ledger.failed == 0

        # Each insertion fired the db-triggered analysis chain.
        functions = invoked_functions(platform)
        assert functions.count("da-analyze") == 3
        assert functions.count("da-stats") == 3

        # The three health checks ran.
        assert functions.count("faas-netlatency-nodejs") == 3

        # The analysis chain wrote its statistics back to CouchDB.
        assert len(platform.couch.database("wage-stats")) >= 1

        # No leaked network wiring or sandboxes after the dust settles.
        # (The store's *current* images — including da-input's fault-
        # recovery regeneration — are the only resident memory left.)
        assert platform.bridge.endpoint_count() == 0
        assert platform.image_for("da-input").generation == 2
        image_cache_mb = sum(
            platform.image_for(key).size_mb
            for key in list(platform.store.keys())
            if platform.image_for(key).materialized)
        assert platform.host_memory.used_mb == pytest.approx(
            image_cache_mb)

        # Billing: even with several near-trivial executions (the health
        # checks bill ~3 ms against ~20 ms of restore), the deployment
        # bills the majority of its resource time.
        report = BillingReport.of(platform.name, platform.ledger)
        assert report.billable_efficiency > 0.5
        # The ledger holds every chain hop: each is billed once.
        assert any(len(root.find_all("invoke")) > 1
                   for root in invoke_roots(platform))
        assert report.invocations == len(functions)

    def test_gateway_activations_match_platform_records(self, system):
        platform, gateway, api_key = system
        sim = platform.sim
        for _ in range(2):
            run(sim, gateway.handle_request(api_key, "da-input",
                                            payload={"name": "x",
                                                     "id": "1"}))
        platform.sim.run()
        activations = gateway.list_activations("payroll")
        assert len(activations) == 2
        assert [a.record.function for a in activations] == ["da-input"] * 2
        assert invoked_functions(platform).count("da-input") == 2

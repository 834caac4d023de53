"""Unit tests for the API gateway and activation records."""

import pytest

from repro.bench import fresh_platform, install_all
from repro.chaos import (KIND_RESTORE_CORRUPTION, ChaosEvent, ChaosPlan,
                         HostFailureController)
from repro.core import FireworksPlatform
from repro.errors import FunctionNotFoundError, PlatformError
from repro.platforms.gateway import (MAX_PAYLOAD_KB, STATUS_ERROR,
                                     STATUS_SUCCESS, ApiGateway,
                                     AuthenticationError,
                                     PayloadTooLargeError)
from repro.workloads import faasdom_spec
from tests.helpers import run

FN = "faas-netlatency-nodejs"


@pytest.fixture
def gateway():
    platform = fresh_platform(FireworksPlatform)
    install_all(platform, [faasdom_spec("faas-netlatency", "nodejs")])
    gw = ApiGateway(platform)
    key = gw.create_namespace("alice")
    return gw, key, platform


class TestAuthentication:
    def test_valid_key_accepted(self, gateway):
        gw, key, platform = gateway
        activation = run(platform.sim, gw.handle_request(key, FN))
        assert activation.status == STATUS_SUCCESS
        assert activation.namespace == "alice"

    def test_invalid_key_rejected(self, gateway):
        gw, _key, platform = gateway
        with pytest.raises(AuthenticationError):
            run(platform.sim, gw.handle_request("bogus", FN))
        assert gw.list_activations("alice") == []
        assert platform.ledger.completed == 0

    def test_keys_are_per_namespace(self, gateway):
        gw, alice_key, platform = gateway
        bob_key = gw.create_namespace("bob")
        assert alice_key != bob_key
        activation = run(platform.sim, gw.handle_request(bob_key, FN))
        assert activation.namespace == "bob"
        assert gw.list_activations("alice") == []

    def test_duplicate_namespace_rejected(self, gateway):
        gw, _key, _platform = gateway
        with pytest.raises(PlatformError):
            gw.create_namespace("alice")

    def test_truncated_key_rejected(self, gateway):
        """A prefix of a real key must not authenticate."""
        gw, key, platform = gateway
        with pytest.raises(AuthenticationError):
            run(platform.sim, gw.handle_request(key[:-1], FN))
        assert gw.list_activations("alice") == []

    def test_lookup_scales_past_first_namespace(self, gateway):
        """Key lookup is by dict, not scan order: a later namespace's key
        authenticates as that namespace even with many earlier ones."""
        gw, _alice_key, platform = gateway
        keys = {name: gw.create_namespace(name)
                for name in ("bob", "carol", "dave")}
        activation = run(platform.sim,
                         gw.handle_request(keys["dave"], FN))
        assert activation.namespace == "dave"
        assert gw.list_activations("dave") == [activation]


class TestValidation:
    def test_unknown_function_404s(self, gateway):
        gw, key, platform = gateway
        with pytest.raises(FunctionNotFoundError):
            run(platform.sim, gw.handle_request(key, "ghost"))

    def test_404s_record_no_activation(self, gateway):
        gw, key, platform = gateway
        for _ in range(2):
            with pytest.raises(FunctionNotFoundError):
                run(platform.sim, gw.handle_request(key, "ghost"))
        assert gw.list_activations("alice") == []
        assert platform.ledger.completed == 0

    def test_payload_cap(self, gateway):
        gw, key, platform = gateway
        with pytest.raises(PayloadTooLargeError):
            run(platform.sim, gw.handle_request(
                key, FN, payload_kb=MAX_PAYLOAD_KB + 1))
        assert gw.list_activations("alice") == []
        assert platform.ledger.completed == 0


class TestActivations:
    def test_activation_ids_unique_and_queryable(self, gateway):
        gw, key, platform = gateway
        first = run(platform.sim, gw.handle_request(key, FN))
        second = run(platform.sim, gw.handle_request(key, FN))
        assert first.activation_id != second.activation_id
        assert gw.activation("alice", first.activation_id) is first

    def test_duration_matches_record(self, gateway):
        gw, key, platform = gateway
        activation = run(platform.sim, gw.handle_request(key, FN))
        assert activation.duration_ms == pytest.approx(
            activation.record.total_ms, rel=0.01)

    def test_list_filters_by_function(self, gateway):
        gw, key, platform = gateway
        install_all(platform, [faasdom_spec("faas-fact", "nodejs")])
        run(platform.sim, gw.handle_request(key, FN))
        run(platform.sim, gw.handle_request(key, "faas-fact-nodejs"))
        assert len(gw.list_activations("alice")) == 2
        assert len(gw.list_activations("alice", function=FN)) == 1

    def test_unknown_activation_raises(self, gateway):
        gw, _key, _platform = gateway
        with pytest.raises(PlatformError):
            gw.activation("alice", "act-ghost")
        with pytest.raises(PlatformError):
            gw.list_activations("nobody")

    def test_application_error_recorded_not_raised(self):
        platform = fresh_platform(FireworksPlatform)
        spec = faasdom_spec("faas-netlatency", "nodejs")
        install_all(platform, [spec])
        gw = ApiGateway(platform)
        key = gw.create_namespace("alice")
        # Exhaust all restore attempts -> the invocation fails -> the
        # gateway records the failure instead of raising it.
        HostFailureController(platform, ChaosPlan([ChaosEvent(
            platform.sim.now, KIND_RESTORE_CORRUPTION, key=spec.name,
            count=5)]))
        activation = run(platform.sim, gw.handle_request(key, spec.name))
        assert activation.status == STATUS_ERROR
        assert "injected" in activation.error
        assert activation.record is None
        assert platform.ledger.failed == 1

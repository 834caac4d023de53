"""Cross-host snapshot transfer on the Fireworks platform."""

import dataclasses

import pytest

from repro.bench import fresh_cluster_platform, install_all, invoke_once
from repro.config import default_parameters
from repro.core import FireworksPlatform
from repro.errors import HostDownError
from repro.policy.placement import POLICY_ROUND_ROBIN, home_index
from repro.workloads import faasdom_spec


@pytest.fixture
def spec():
    return faasdom_spec("faas-netlatency", "nodejs")


@pytest.fixture
def platform(spec):
    platform = fresh_cluster_platform(FireworksPlatform, n_hosts=2,
                                      policy=POLICY_ROUND_ROBIN)
    install_all(platform, [spec])
    return platform


class TestCrossHostTransfer:
    def test_install_seeds_only_the_home_host(self, platform, spec):
        home = home_index(spec.name, 2)
        assert platform.cluster.host(home).store.contains(spec.name)
        assert not platform.cluster.host(1 - home).store.contains(spec.name)

    def test_miss_on_other_host_pays_one_transfer(self, platform, spec):
        # Round-robin alternates hosts; one of the first two requests
        # lands off the home host and must copy the image across.
        invoke_once(platform, spec.name)
        invoke_once(platform, spec.name)
        assert platform.cross_host_transfers == 1
        assert platform.local_restores == 1
        # The replica is now resident, so the next round is all-local.
        invoke_once(platform, spec.name)
        invoke_once(platform, spec.name)
        assert platform.cross_host_transfers == 1
        assert platform.local_restores == 3

    def test_transfer_span_records_route_and_cost(self, platform, spec):
        home = home_index(spec.name, 2)
        first = invoke_once(platform, spec.name)
        second = invoke_once(platform, spec.name)
        transferred = second if home == 0 else first
        transfer = transferred.span.find("snapshot-transfer")
        assert transfer is not None
        assert transfer.attrs["src"] == home
        assert transfer.attrs["dst"] == 1 - home
        cfg = platform.params.cluster
        expected = (cfg.snapshot_transfer_base_ms
                    + cfg.snapshot_transfer_per_mb_ms
                    * transfer.attrs["size_mb"])
        assert transfer.duration_ms == pytest.approx(expected)
        # The local restore on the other host never paid a transfer.
        local = first if home == 0 else second
        assert local.span.find("snapshot-transfer") is None

    def test_replica_shares_key_and_generation(self, platform, spec):
        invoke_once(platform, spec.name)
        invoke_once(platform, spec.name)
        home = home_index(spec.name, 2)
        original = platform.cluster.host(home).store.get(spec.name)
        replica = platform.cluster.host(1 - home).store.get(spec.name)
        assert replica is not original
        assert replica.key == original.key
        assert replica.generation == original.generation


def _off_home_host(platform, spec):
    """The first host that does not hold *spec*'s image yet."""
    return next(host for host in platform.cluster.hosts
                if not host.store.contains(spec.name))


class TestTransferRace:
    """Regression: the post-transfer world must be re-checked after the
    network wait — a concurrent transfer or a host crash during the copy
    used to clobber the landed replica / seed a dead host's store."""

    def test_concurrent_transfers_land_one_replica(self, platform, spec):
        sim = platform.sim
        off = _off_home_host(platform, spec)
        results = []

        def fetch():
            image = yield from platform._fetch_image_to_host(spec.name, off)
            results.append(image)

        sim.process(fetch(), name="fetch-a")
        sim.process(fetch(), name="fetch-b")
        sim.run()
        # Both copies paid the wait; the loser adopts the landed replica
        # instead of clobbering it and double counting.
        transfers = [root for root in sim.tracer.traces()
                     if root.name == "snapshot-transfer"]
        assert len(transfers) == 2
        assert platform.cross_host_transfers == 1
        assert len(results) == 2
        assert results[0] is results[1]
        assert off.store.get(spec.name) is results[0]

    def test_host_down_mid_transfer_raises_and_does_not_seed_store(
            self, platform, spec):
        sim = platform.sim
        off = _off_home_host(platform, spec)
        errors = []

        def fetch():
            try:
                yield from platform._fetch_image_to_host(spec.name, off)
            except HostDownError as error:
                errors.append(error)

        def crash():
            yield sim.timeout(1.0)  # well inside the transfer window
            off.mark_down()

        sim.process(fetch(), name="fetch")
        sim.process(crash(), name="crash")
        sim.run()
        assert len(errors) == 1
        assert errors[0].host_id == off.host_id
        assert errors[0].stage == "snapshot-transfer"
        # The dead host's store must NOT hold a replica that would
        # silently survive its recovery.
        assert not off.store.contains(spec.name)
        assert platform.cross_host_transfers == 0


@pytest.fixture
def streaming_platform(spec):
    """3-host round-robin cluster with streaming transfers enabled and a
    recorded working-set profile (one completed invocation)."""
    params = default_parameters()
    tuned = dataclasses.replace(
        params, cluster=dataclasses.replace(params.cluster,
                                            stream_transfers=True))
    platform = fresh_cluster_platform(FireworksPlatform, tuned, n_hosts=3,
                                      policy=POLICY_ROUND_ROBIN)
    install_all(platform, [spec])
    invoke_once(platform, spec.name)  # records the working-set profile
    platform.sim.run()  # drain any background residual from that invoke
    return platform


class TestStreamingTransfer:
    def test_working_set_lands_first_then_residual(self, streaming_platform,
                                                   spec):
        platform = streaming_platform
        sim = platform.sim
        target = _off_home_host(platform, spec)
        image = platform.image_for(spec.name)
        ws_mb = platform._transfer_working_set_mb(image)
        assert ws_mb is not None and 0 < ws_mb < image.size_mb

        proc = sim.process(platform._fetch_image_to_host(spec.name, target),
                           name="fetch")
        sim.run(proc)
        # The fetch returned as soon as the working set landed: the
        # replica is resident but partial, residual still in flight.
        assert target.store.contains(spec.name)
        assert not target.store.is_complete(spec.name)
        assert target.store.resident_mb(spec.name) == pytest.approx(ws_mb)
        assert platform.streamed_transfers == 1
        before_background = platform.transfer_background_mb
        sim.run()
        assert target.store.is_complete(spec.name)
        assert platform.transfer_background_mb - before_background == \
            pytest.approx(image.size_mb - ws_mb)

    def test_streamed_invoke_span_shape(self, streaming_platform, spec):
        platform = streaming_platform
        for _ in range(3):
            record = invoke_once(platform, spec.name)
            transfer = record.span.find("snapshot-transfer")
            if transfer is not None and transfer.attrs.get("streamed"):
                break
        else:
            pytest.fail("no streamed transfer in three invocations")
        ws = transfer.find("transfer-working-set")
        assert ws is not None
        assert 0 < ws.attrs["mb"] < transfer.attrs["size_mb"]
        assert transfer.attrs["foreground_mb"] == ws.attrs["mb"]
        cfg = platform.params.cluster
        assert transfer.duration_ms == pytest.approx(
            cfg.snapshot_transfer_base_ms
            + ws.attrs["mb"] * cfg.snapshot_transfer_per_mb_ms)
        platform.sim.run()  # drain the background residual cleanly

    def test_residual_abandoned_when_host_dies(self, streaming_platform,
                                               spec):
        platform = streaming_platform
        sim = platform.sim
        target = _off_home_host(platform, spec)
        before_background = platform.transfer_background_mb
        proc = sim.process(platform._fetch_image_to_host(spec.name, target),
                           name="fetch")
        sim.run(proc)
        target.mark_down()
        sim.run()
        # The background stream noticed the crash and landed nothing.
        assert platform.transfer_background_mb == before_background
        assert not target.store.is_complete(spec.name)

    def test_residual_abandoned_when_replica_evicted(self, streaming_platform,
                                                     spec):
        platform = streaming_platform
        sim = platform.sim
        target = _off_home_host(platform, spec)
        before_background = platform.transfer_background_mb
        proc = sim.process(platform._fetch_image_to_host(spec.name, target),
                           name="fetch")
        sim.run(proc)
        target.store.remove(spec.name)
        sim.run()
        assert platform.transfer_background_mb == before_background
        assert not target.store.contains(spec.name)

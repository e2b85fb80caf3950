"""Staging predictions honor the data plane's crash quarantine.

The transfer scheduler prefers online source replicas; the scalar and
vector staging predictions must cost transfers over the same candidate set
(``DataPlane.staging_sources``), and a quarantine change must bump the
replica-set generation so location-stamped caches invalidate.
"""

from repro.data import remote_file
from repro.data.transfer import SimulatedTransferBackend
from repro.dataplane.plane import DataPlane
from repro.sim.network import NetworkModel

from tests.sched.conftest import EndpointSpec, build_context, input_file


def bundle_with_plane(published=False):
    bundle = build_context(
        {"a": EndpointSpec(), "b": EndpointSpec(), "c": EndpointSpec()}
    )
    network = NetworkModel.uniform(
        ["a", "b", "c"], bandwidth_mbps=100.0, jitter=0.0, seed=0
    )
    plane = DataPlane(
        SimulatedTransferBackend(bundle.kernel, network),
        bundle.kernel.clock,
        published=published,
    )
    bundle.context.data_manager = plane
    return bundle, plane


class TestStagingSources:
    def test_plain_data_manager_uses_all_replicas(self):
        bundle = build_context({"a": EndpointSpec(), "b": EndpointSpec()})
        f = input_file(100.0, "a")
        f.add_location("b")
        assert bundle.data_manager.staging_sources(f) == ["a", "b"]

    def test_quarantined_replicas_are_not_prediction_sources(self):
        _, plane = bundle_with_plane()
        f = input_file(100.0, "a")
        f.add_location("c")
        assert plane.staging_sources(f) == ["a", "c"]
        plane.on_endpoint_crashed("c")
        assert plane.staging_sources(f) == ["a"]
        plane.on_endpoint_rejoined("c")
        assert plane.staging_sources(f) == ["a", "c"]

    def test_all_replicas_offline_falls_back_to_the_full_set(self):
        # Like DataPlane._pick_source: demand degrades to a quarantined copy
        # when nothing online remains, so predictions must too.
        _, plane = bundle_with_plane()
        f = input_file(100.0, "a")
        f.add_location("c")
        plane.on_endpoint_crashed("a")
        plane.on_endpoint_crashed("c")
        assert plane.staging_sources(f) == ["a", "c"]

    def test_the_published_policy_prices_the_primary_replica(self):
        _, plane = bundle_with_plane(published=True)
        f = input_file(100.0, "c")
        f.add_location("a")
        assert plane.staging_sources(f) == ["a"]
        f.remove_location("a")
        f.remove_location("c")
        assert plane.staging_sources(f) == []


class TestQuarantineInvalidation:
    def test_crash_and_rejoin_bump_the_replica_generation(self):
        _, plane = bundle_with_plane()
        before = remote_file.location_version()
        plane.on_endpoint_crashed("c")
        after_crash = remote_file.location_version()
        assert after_crash > before
        plane.on_endpoint_crashed("c")  # idempotent: no spurious invalidation
        assert remote_file.location_version() == after_crash
        plane.on_endpoint_rejoined("c")
        assert remote_file.location_version() > after_crash

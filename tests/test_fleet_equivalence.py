"""Cross-process differential test: the fleet is observationally transparent.

The tentpole guarantee of the process-fleet layer, pinned as a test: the
*same* seeded multi-tenant schedule the thread-cluster equivalence suite
plays (honest traffic, repeated payloads, adversarial proposers, forced
challenges — see ``test_cluster_equivalence``) is run through

* the plain single-process :class:`~repro.protocol.service.TAOService`,
* a thread :class:`~repro.cluster.cluster.TAOCluster`, and
* a :class:`~repro.fleet.fleet.ProcessFleet` of real worker *processes*
  driven over the serialized RPC transport — with and without a failover
  injected mid-schedule (the busiest worker is drained with requests still
  queued, so they are withdrawn and re-dispatched to the ring successor),

and every deployment must produce **byte-identical per-request verdicts**
(statuses, execution-commitment bytes, dispute localizations) and an
**exactly equal ledger** — float equality, no tolerance.  Settlement never
leaves the parent: workers reach the one shared chain through nested
``chain_call`` messages, which is precisely what makes this exactness
possible across process boundaries.

Worker replies carry only what changed since the previous reply, so the
parent's coordinator mirror and statistics are pinned against the plain
service after every cycle, with ``stats()`` calls interleaved.

The worker pool is also the fleet's Merkle backend:
``commit_weights_parallel`` must reproduce the serial
:func:`~repro.merkle.commitments.commit_weights` root byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from repro.cluster import TAOCluster
from repro.fleet import ProcessFleet
from repro.fleet.wire import encode_perturbation
from repro.merkle.commitments import commit_weights
from repro.merkle.tree import verify_proof
from repro.protocol import TAOService
from repro.protocol.service import ServiceCore, ServiceStats
from repro.utils.serialization import canonical_bytes

from test_cluster_equivalence import (  # noqa: F401 - fixture re-export
    _fingerprint,
    _ledger,
    _schedule,
    _victim,
    reference,
    tenant_graphs,
)


#: ServiceStats fields that count work exactly (the rest are seconds).
STATS_COUNTERS = ("requests_submitted", "requests_completed", "cache_hits",
                  "batched_requests", "disputes_opened", "dispute_rounds",
                  "pipelined_drains", "status_counts")


def stats_counters(stats: ServiceStats) -> Dict[str, Any]:
    """The exact counters of ``stats`` plus its number of latency samples."""
    counters = {name: getattr(stats, name) for name in STATS_COUNTERS}
    counters["latency_samples"] = len(stats.latencies_s)
    return counters


def coordinator_rows(coordinator) -> Dict[str, Dict[int, Tuple]]:
    """Task and dispute rows of a live coordinator or a fleet snapshot."""
    return {
        "tasks": {task_id: (task.model_name, task.status.value, task.dispute_id)
                  for task_id, task in coordinator.tasks.items()},
        "disputes": {dispute_id: (dispute.task_id, dispute.phase.value,
                                  dispute.adjudication_path,
                                  coordinator.dispute_gas(dispute_id))
                     for dispute_id, dispute in coordinator.disputes.items()},
    }


def _cheat_spec(graph, payload_seed: int) -> Dict[str, Any]:
    """The wire twin of session.make_adversarial_proposer(...): same name,
    same delta, rebuilt inside the worker."""
    return {
        "type": "adversarial",
        "name": f"{graph.name}-cheat-{payload_seed}",
        "perturbations": {
            _victim(graph): encode_perturbation(np.float32(0.05)),
        },
    }


def _drive_fleet(fleet: ProcessFleet, graphs, thresholds, input_factory,
                 drain_midway: bool = False) -> List:
    """Play the shared schedule through a fleet; actors travel as specs."""
    for graph in graphs:
        fleet.register_model(graph, threshold_table=thresholds)

    events = _schedule()
    half = len(events) // 2
    request_ids: List[int] = []

    def submit(chunk):
        for tenant, payload_seed, kind in chunk:
            graph = graphs[tenant]
            proposer = (_cheat_spec(graph, payload_seed) if kind == "cheat"
                        else None)
            request_ids.append(fleet.submit(
                graph.name, input_factory(payload_seed),
                proposer=proposer, force_challenge=(kind == "force"),
            ))

    submit(events[:half])
    fleet.process()
    submit(events[half:])
    if drain_midway:
        busiest = max(
            fleet._pending,
            key=lambda sid: (len(fleet._pending[sid]), sid),
        )
        fleet.drain_worker(busiest)
    fleet.process()
    return [fleet.request(request_id) for request_id in request_ids]


def _assert_equivalent(reference_service: ServiceCore, service_requests,
                       fleet: ProcessFleet, fleet_requests) -> None:
    assert len(fleet_requests) == len(service_requests)
    for index, (expected, got) in enumerate(zip(service_requests,
                                                fleet_requests)):
        assert _fingerprint(got) == _fingerprint(expected), f"request {index}"

    expected_balances, expected_minted = _ledger(reference_service)
    got_balances, got_minted = dict(fleet.chain.balances), fleet.chain.minted
    assert got_balances == expected_balances
    assert got_minted == expected_minted
    assert sum(got_balances.values()) == got_minted


@pytest.mark.parametrize("num_workers,drain", [(1, False), (2, False), (4, True)],
                         ids=["1-worker", "2-worker", "4-worker-failover"])
def test_fleet_matches_plain_service(reference, tenant_graphs, mlp_thresholds,
                                     mlp_input_factory, num_workers, drain):
    service, service_requests = reference
    fleet = ProcessFleet(num_workers=num_workers, n_way=2)
    try:
        fleet_requests = _drive_fleet(fleet, tenant_graphs, mlp_thresholds,
                                      mlp_input_factory, drain_midway=drain)
        _assert_equivalent(service, service_requests, fleet, fleet_requests)
        if drain:
            # The failover actually happened: requests moved workers.
            assert fleet.failovers >= 1
            assert fleet.redispatched_requests >= 1
            drained = [sid for sid, handle in fleet.workers.items()
                       if handle.drained]
            assert drained
            for name in fleet.model_names:
                assert fleet.location(name) not in drained
        # Wall-clock accounting is live on the measured path.
        stats = fleet.stats()
        assert stats.workers == num_workers
        assert stats.measured_wall_s > 0.0
        assert stats.requests_completed == len(fleet_requests)
    finally:
        fleet.close()


def test_delta_replies_keep_the_parent_mirror_exact(tenant_graphs,
                                                   mlp_thresholds,
                                                   mlp_input_factory):
    """Changed-rows-only replies rebuild the worker's state exactly.

    A 1-worker fleet and a plain service play the shared schedule (cheats
    and forced challenges included) in lockstep cycles.  After every
    ``process()`` the parent's coordinator mirror must equal the service's
    coordinator row for row, dispute gas included; the ``stats()`` call
    that follows must report the service's counters and as many latency
    samples.  The stats reply consumes the worker's changed set and moves
    the latency cursor, so the next cycle's reply is a delta on top of it.
    """
    service = TAOService(n_way=2)
    fleet = ProcessFleet(num_workers=1, n_way=2)
    try:
        sessions = {}
        for graph in tenant_graphs:
            sessions[graph.name] = service.register_model(
                graph, threshold_table=mlp_thresholds)
            fleet.register_model(graph, threshold_table=mlp_thresholds)
        events = _schedule()
        for cycle, start in enumerate(range(0, len(events), 8)):
            for tenant, payload_seed, kind in events[start:start + 8]:
                graph = tenant_graphs[tenant]
                inputs = mlp_input_factory(payload_seed)
                spec = proposer = None
                if kind == "cheat":
                    spec = _cheat_spec(graph, payload_seed)
                    proposer = sessions[graph.name].make_adversarial_proposer(
                        spec["name"], {_victim(graph): np.float32(0.05)})
                service.submit(graph.name, inputs, proposer=proposer,
                               force_challenge=(kind == "force"))
                fleet.submit(graph.name, inputs, proposer=spec,
                             force_challenge=(kind == "force"))
            service.process()
            fleet.process()
            (snapshot,) = fleet.coordinators()
            assert coordinator_rows(snapshot) == \
                coordinator_rows(service.coordinator), f"cycle {cycle}"
            assert stats_counters(fleet.stats()) == \
                stats_counters(service.stats()), f"cycle {cycle}"
        # The schedule exercised the dispute rows, not only optimistic ones.
        assert service.coordinator.disputes
        assert snapshot.disputes.keys() == service.coordinator.disputes.keys()
    finally:
        fleet.close()


def test_fleet_matches_thread_cluster(reference, tenant_graphs, mlp_thresholds,
                                      mlp_input_factory):
    """Three-way pin: plain service, thread cluster and process fleet agree.

    (The cluster suite already pins cluster == plain; driving both shared
    front-ends here closes the triangle on one schedule in one process.)
    """
    from test_cluster_equivalence import _drive

    service, service_requests = reference
    cluster = TAOCluster(num_shards=2, n_way=2)
    cluster_requests = _drive(cluster, tenant_graphs, mlp_thresholds,
                              mlp_input_factory)
    fleet = ProcessFleet(num_workers=2, n_way=2)
    try:
        fleet_requests = _drive_fleet(fleet, tenant_graphs, mlp_thresholds,
                                      mlp_input_factory)
        _assert_equivalent(service, service_requests, fleet, fleet_requests)
        for index, (expected, got) in enumerate(zip(cluster_requests,
                                                    fleet_requests)):
            assert _fingerprint(got) == _fingerprint(expected), \
                f"request {index}"
        cluster_balances, cluster_minted = _ledger(cluster)
        assert dict(fleet.chain.balances) == cluster_balances
        assert fleet.chain.minted == cluster_minted
    finally:
        fleet.close()


def test_parallel_merkle_root_byte_identical(tenant_graphs):
    """Chunk-parallel weight commitment reproduces the serial root exactly."""
    parameters = tenant_graphs[0].parameters
    serial_tree, serial_index = commit_weights(parameters)
    fleet = ProcessFleet(num_workers=3, n_way=2)
    try:
        tree, index = fleet.commit_weights_parallel(parameters)
        assert bytes(tree.root) == bytes(serial_tree.root)
        assert index == serial_index
        # Membership proofs assembled from worker-hashed leaves verify
        # against the serial root: the trees are the same object shape.
        name = sorted(parameters)[0]
        payload = canonical_bytes({"name": name,
                                   "tensor": np.asarray(parameters[name])})
        assert verify_proof(payload, tree.prove(index[name]), serial_tree.root)

        # The chunking adapts to fleet topology: after a drain the root is
        # still byte-identical (only the chunk boundaries move).
        fleet.drain_worker(fleet._live_workers()[0])
        tree_after, index_after = fleet.commit_weights_parallel(parameters)
        assert bytes(tree_after.root) == bytes(serial_tree.root)
        assert index_after == serial_index
    finally:
        fleet.close()

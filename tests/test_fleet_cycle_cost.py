"""A fleet cycle costs the same at request 10 as at request 10,000.

A 1-worker fleet serves identically shaped, all-cache-hit cycles.  Each
``process`` reply carries only the rows and latency samples that changed
since the previous reply, and the parent journals only what recovery reads
back, so the bytes one cycle moves and journals must not grow with the
cycles before it — in both recovery modes.

Every count here is exact and host-independent.  Bytes are measured with
every number encoded as ``0``: latencies and stage timings are wall-clock
floats whose shortest repr varies by a byte or two, and ids gain a digit
per decade of history.  What remains is exactly the size that follows a
reply's structure — the thing that used to grow with every cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List

import pytest

from repro.fleet import ProcessFleet
from repro.utils.serialization import canonical_bytes, decode_canonical

REQUESTS_PER_CYCLE = 4
CYCLES = 30


def _zero_numbers(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return 0
    if isinstance(value, dict):
        return {key: _zero_numbers(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_zero_numbers(item) for item in value]
    return value


def _shape_bytes(values: List[Any]) -> int:
    """Encoded size of ``values`` with every number written as ``0``."""
    return sum(len(canonical_bytes(_zero_numbers(value))) for value in values)


def _journal_shape_bytes(journal) -> int:
    chain = [decode_canonical(blob) for blob in journal._chain.values()]
    return (_shape_bytes(journal.spec_entries()) + _shape_bytes(journal.commands())
            + _shape_bytes(chain))


def _run_cycles(recovery: str, graph, thresholds, input_factory) -> Dict[str, Any]:
    """A warm-up cycle, then ``CYCLES`` measured ones; bytes per cycle,
    indexed from 1."""
    fleet = ProcessFleet(num_workers=1, n_way=2, recovery=recovery)
    try:
        fleet.register_model(graph, threshold_table=thresholds)
        (shard_id,) = fleet.workers
        channel = fleet.workers[shard_id].channel
        responses: List[Dict[str, Any]] = []
        recv = channel.recv

        def counting_recv():
            message = recv()
            if message.get("kind") == "response":
                responses.append(message)
            return message

        channel.recv = counting_recv
        payload = input_factory(7)
        fleet.submit(graph.name, payload)
        fleet.process()  # warm the result cache
        journal = fleet.journal_for(shard_id)
        reply_bytes = [0]
        journal_bytes = [0]
        for _ in range(CYCLES):
            before = _journal_shape_bytes(journal)
            request_ids = [fleet.submit(graph.name, payload)
                           for _ in range(REQUESTS_PER_CYCLE)]
            responses.clear()
            fleet.process()
            journal_bytes.append(_journal_shape_bytes(journal) - before)
            (reply,) = responses
            reply_bytes.append(_shape_bytes([reply]))
            for request_id in request_ids:
                request = fleet.request(request_id)
                assert request.status == "finalized" and request.cache_hit
        return {"reply_bytes": reply_bytes, "journal_bytes": journal_bytes,
                "journal": journal, "stats": fleet.stats()}
    finally:
        fleet.close()


@pytest.mark.parametrize("recovery", ["failover", "journal"])
def test_cycle_bytes_do_not_grow_with_history(recovery, mlp_graph,
                                              mlp_thresholds,
                                              mlp_input_factory):
    run = _run_cycles(recovery, mlp_graph, mlp_thresholds, mlp_input_factory)
    reply_bytes, journal_bytes = run["reply_bytes"], run["journal_bytes"]
    assert reply_bytes[3] > 0 and journal_bytes[3] > 0
    assert reply_bytes[CYCLES] <= reply_bytes[3], reply_bytes
    assert journal_bytes[CYCLES] <= journal_bytes[3], journal_bytes
    stats = run["stats"]
    assert stats.requests_completed == len(stats.latencies_s) \
        == 1 + CYCLES * REQUESTS_PER_CYCLE

    journal = run["journal"]
    assert journal.spec_entry_count > 0
    assert journal.chain_tail > 0
    if recovery == "failover":
        # Nothing replays a failover-mode worker: only the spec stream
        # (read by J1 and the forfeited-dispute report) is kept.
        assert journal.command_count == 0
        assert journal.chain_entry_count == 0
    else:
        # Replay reads a submit's local id and nothing of any other reply.
        for entry in journal.commands():
            if entry["payload"]["op"] == "submit":
                assert entry["value"]["local_id"] >= 0
            else:
                assert entry["value"] is None

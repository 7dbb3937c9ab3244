"""The traced run: which public functions are wrapped, and what they yield.

Layer names follow the ``repro`` packages.  ``install`` wraps each layer's
public entry points; ``per_layer_metrics`` turns the recorded spans and the
program's own counters into the per-layer metrics listed in ``PER_LAYER``
(the same list ``BENCHMARK.json`` declares).  ``LAYER_MAP`` records, for
each layer, the end-to-end metric and workload it should move, written down
before any optimisation claims a gain.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from perfbench.tracer import SpanStats, Tracer

#: ``(name, unit, better)`` of every per-layer metric, in output order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("engine.run_calls", "count", "lower"),
    ("engine.requests_per_batch", "count", "higher"),
    ("engine.self_s", "s", "lower"),
    ("graph.interpreter_runs", "count", "lower"),
    ("graph.self_s", "s", "lower"),
    ("merkle.hash_calls", "count", "lower"),
    ("merkle.bytes_hashed", "B", "lower"),
    ("merkle.hash_s", "s", "lower"),
    ("merkle.hash_cache_hit_frac", "frac", "higher"),
    ("merkle.subgraph_records", "count", "lower"),
    ("merkle.verify_subgraph_s", "s", "lower"),
    ("merkle.commit_model_s", "s", "lower"),
    ("calibration.calibrate_s", "s", "lower"),
    ("roles.execute_s", "s", "lower"),
    ("roles.verify_s", "s", "lower"),
    ("roles.partition_s", "s", "lower"),
    ("roles.select_s", "s", "lower"),
    ("dispute.opened", "count", "lower"),
    ("dispute.rounds_per_dispute", "count", "lower"),
    ("dispute.step_s", "s", "lower"),
    ("adjudication.theoretical_calls", "count", "lower"),
    ("adjudication.committee_calls", "count", "lower"),
    ("adjudication.s", "s", "lower"),
    ("chain.txs_per_request", "count", "lower"),
    ("chain.gas", "gas", "lower"),
    ("service.cache_hit_frac", "frac", "higher"),
    ("service.stage_busy_s.hash", "s", "lower"),
    ("service.stage_busy_s.execute", "s", "lower"),
    ("service.stage_busy_s.settle", "s", "lower"),
    ("service.stage_busy_s.dispute", "s", "lower"),
    ("pipeline.pipelined_drains", "count", "higher"),
    ("pipeline.overlap", "ratio", "higher"),
    ("fleet.codec.decode_s", "s", "lower"),
    ("fleet.codec.encode_s", "s", "lower"),
    ("fleet.codec.bytes_in_per_request", "B", "lower"),
    ("fleet.transport.frames_per_request", "count", "lower"),
    ("fleet.transport.recv_wait_s", "s", "lower"),
    ("fleet.chain_rpcs_per_request", "count", "lower"),
    ("fleet.journal.records", "count", "lower"),
    ("fleet.journal.bytes", "B", "lower"),
    ("fleet.cycle_s.q1", "s", "lower"),
    ("fleet.cycle_s.q4", "s", "lower"),
    ("trace.traced_requests", "count", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)

#: Layer -> the prefixes of its metrics, the end-to-end metrics it should
#: move, on which workloads, and where it should leave them unchanged.
LAYER_MAP: Dict[str, Dict[str, object]] = {
    "engine/graph/tensorlib": {
        "metrics": ["engine.", "graph."],
        "moves": ["throughput_rps", "latency_p50_s", "latency_tail_s"],
        "on": ["zoo_interactive"],
        "no_change": ["tenants_fleet"],
    },
    "merkle": {
        "metrics": ["merkle."],
        "moves": ["throughput_rps", "setup_s"],
        "on": ["zoo_interactive", "zoo_disputes_bulk"],
        "no_change": [],
    },
    "calibration": {
        "metrics": ["calibration."],
        "moves": ["setup_s"],
        "on": ["zoo_interactive", "zoo_disputes_bulk"],
        "no_change": [],
    },
    "protocol (roles, dispute, adjudication, chain, service)": {
        "metrics": ["roles.", "dispute.", "adjudication.", "chain.", "service."],
        "moves": ["throughput_rps"],
        "on": ["zoo_disputes_bulk"],
        "no_change": ["zoo_interactive"],
    },
    "pipeline": {
        "metrics": ["pipeline."],
        "moves": ["throughput_rps"],
        "on": ["zoo_disputes_bulk"],
        "no_change": ["zoo_interactive", "tenants_fleet"],
    },
    "fleet (parent side)": {
        "metrics": ["fleet."],
        "moves": ["throughput_rps", "latency_tail_s", "peak_rss_mb"],
        "on": ["tenants_fleet"],
        "no_change": ["zoo_interactive", "zoo_disputes_bulk"],
    },
}

#: Span groups compared by the dominant-layer check, by top-level span time.
SHARE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "engine/graph": ("engine.", "graph."),
    "dispute/adjudication/subgraph": ("dispute.", "adjudication.", "roles.partition",
                                      "roles.select", "merkle.subgraph_record",
                                      "merkle.verify_subgraph"),
    "fleet codec/transport": ("fleet.",),
    "merkle hashing": ("merkle.hash_tensor", "merkle.stream_hash", "merkle.input_hash",
                       "merkle.execution_commitment", "merkle.commit_model"),
    "roles execute/verify": ("roles.execute", "roles.verify"),
    "calibration": ("calibration.",),
}

#: The group each workload is built to stress.
INTENDED_DOMINANT = {
    "zoo_interactive": "engine/graph",
    "zoo_disputes_bulk": "dispute/adjudication/subgraph",
    "tenants_fleet": "fleet codec/transport",
}


def _nbytes(args, kwargs, result) -> float:
    return float(np.asarray(args[0]).nbytes)


def _batch_len(args, kwargs, result) -> float:
    inputs_list = args[2] if len(args) > 2 else kwargs["inputs_list"]
    return float(len(inputs_list))


def _data_len(args, kwargs, result) -> float:
    return float(len(args[0]))


def _chain_call(args, kwargs, result) -> float:
    return 1.0 if isinstance(result, dict) and result.get("kind") == "chain_call" else 0.0


def install(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics read."""
    # Loads every repro module that binds a patched function by name.
    import repro  # noqa: F401
    from repro.calibration.calibrator import Calibrator
    from repro.engine.engine import ExecutionEngine
    from repro.fleet.journal import ShardJournal
    from repro.fleet.transport import MessageChannel
    from repro.graph.interpreter import Interpreter
    from repro.merkle import cache, commitments
    from repro.merkle.cache import HashCache
    from repro.protocol import adjudication
    from repro.protocol.dispute import DisputeGame
    from repro.protocol.roles import Challenger, Proposer
    from repro.utils import serialization

    for method, name, units in (("run", "engine.run", None),
                                ("run_batch", "engine.run_batch", _batch_len)):
        tracer.patch_method(ExecutionEngine, method, name, units)
    for method in ("run", "run_reference", "run_single_operator"):
        tracer.patch_method(Interpreter, method, f"graph.{method}")
    tracer.patch_method(HashCache, "hash_tensor", "merkle.hash_tensor")
    tracer.patch_function(cache, "streaming_tensor_hash", "merkle.stream_hash", _nbytes)
    for function, name in (("execution_input_hash", "merkle.input_hash"),
                           ("make_execution_commitment", "merkle.execution_commitment"),
                           ("make_subgraph_record", "merkle.subgraph_record"),
                           ("verify_subgraph_record", "merkle.verify_subgraph"),
                           ("commit_model", "merkle.commit_model")):
        tracer.patch_function(commitments, function, name)
    tracer.patch_method(Calibrator, "calibrate", "calibration.calibrate")
    tracer.patch_method(Proposer, "execute", "roles.execute")
    tracer.patch_method(Proposer, "partition", "roles.partition")
    tracer.patch_method(Challenger, "verify_result", "roles.verify")
    tracer.patch_method(Challenger, "verify_with_trace", "roles.verify")
    tracer.patch_method(Challenger, "select_offending", "roles.select")
    for method, name in (("open", "dispute.open"), ("step_round", "dispute.step"),
                         ("conclude", "dispute.conclude")):
        tracer.patch_method(DisputeGame, method, name)
    for function, name in (("theoretical_bound_check", "adjudication.theoretical"),
                           ("committee_vote", "adjudication.committee"),
                           ("route_and_adjudicate", "adjudication.route")):
        tracer.patch_function(adjudication, function, name)
    tracer.patch_method(MessageChannel, "send", "fleet.transport.send")
    tracer.patch_method(MessageChannel, "recv", "fleet.transport.recv", _chain_call)
    # Only the fleet's bindings: elsewhere canonical_bytes is hashing input.
    tracer.patch_function(serialization, "canonical_bytes", "fleet.codec.encode",
                          aliases=("repro.fleet.transport", "repro.fleet.journal"))
    tracer.patch_function(serialization, "decode_canonical", "fleet.codec.decode",
                          _data_len, aliases=("repro.fleet.transport",))
    for method in ("record_spec", "record_chain", "record_command"):
        tracer.patch_method(ShardJournal, method, "fleet.journal.record")


def _sum(spans: Dict[str, SpanStats], field: str, *names: str) -> float:
    return float(sum(getattr(spans[name], field) for name in names if name in spans))


def _layer_entry(spans: Dict[str, SpanStats], prefix: str) -> float:
    return float(sum(span.layer_entry_s for name, span in spans.items()
                     if name.startswith(prefix)))


def group_shares(spans: Dict[str, SpanStats]) -> Dict[str, float]:
    """Share of top-level span time per group (work done on behalf of it)."""
    totals = {group: sum(span.top_s for name, span in spans.items()
                         if name.startswith(prefixes))
              for group, prefixes in SHARE_GROUPS.items()}
    whole = sum(totals.values())
    return {group: (value / whole if whole else 0.0) for group, value in totals.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(spans: Dict[str, SpanStats], edges: Dict[Tuple[str, str], int],
                      setup_spans: Dict[str, SpanStats], counters: Dict[str, float],
                      ) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from spans and program counters.

    ``spans``/``edges`` cover the traced rounds, ``setup_spans`` one traced
    set-up; ``counters`` holds program-counter deltas over the traced rounds
    plus the untraced cycle times and throughputs.
    """
    requests = counters["traced_requests"]
    stream_in_cache = edges.get(("merkle.hash_tensor", "merkle.stream_hash"), 0)
    engine_in_batch = edges.get(("engine.run_batch", "engine.run"), 0)
    hash_tensor_calls = _sum(spans, "calls", "merkle.hash_tensor")
    batch_calls = _sum(spans, "calls", "engine.run_batch")
    values = {
        "engine.run_calls": batch_calls + _sum(spans, "calls", "engine.run") - engine_in_batch,
        "engine.requests_per_batch": _ratio(_sum(spans, "units", "engine.run_batch"),
                                            batch_calls),
        "engine.self_s": _sum(spans, "self_s", "engine.run", "engine.run_batch"),
        "graph.interpreter_runs": _sum(spans, "calls", "graph.run", "graph.run_reference"),
        "graph.self_s": _sum(spans, "self_s", "graph.run", "graph.run_reference",
                             "graph.run_single_operator"),
        "merkle.hash_calls": hash_tensor_calls + _sum(spans, "calls", "merkle.stream_hash")
        - stream_in_cache,
        "merkle.bytes_hashed": _sum(spans, "units", "merkle.stream_hash"),
        "merkle.hash_s": _sum(spans, "self_s", "merkle.hash_tensor", "merkle.stream_hash",
                              "merkle.input_hash", "merkle.execution_commitment"),
        "merkle.hash_cache_hit_frac": 1.0 - _ratio(stream_in_cache, hash_tensor_calls)
        if hash_tensor_calls else 0.0,
        "merkle.subgraph_records": _sum(spans, "calls", "merkle.subgraph_record"),
        "merkle.verify_subgraph_s": _sum(spans, "total_s", "merkle.verify_subgraph"),
        "merkle.commit_model_s": _sum(setup_spans, "total_s", "merkle.commit_model"),
        "calibration.calibrate_s": _sum(setup_spans, "total_s", "calibration.calibrate"),
        "roles.execute_s": _sum(spans, "total_s", "roles.execute"),
        "roles.verify_s": _sum(spans, "total_s", "roles.verify"),
        "roles.partition_s": _sum(spans, "total_s", "roles.partition"),
        "roles.select_s": _sum(spans, "total_s", "roles.select"),
        "dispute.opened": counters["disputes_opened"],
        "dispute.rounds_per_dispute": _ratio(counters["dispute_rounds"], counters["disputes_opened"]),
        "dispute.step_s": _sum(spans, "total_s", "dispute.step"),
        "adjudication.theoretical_calls": _sum(spans, "calls", "adjudication.theoretical"),
        "adjudication.committee_calls": _sum(spans, "calls", "adjudication.committee"),
        "adjudication.s": _layer_entry(spans, "adjudication."),
        "chain.txs_per_request": _ratio(counters["chain_txs"], requests),
        "chain.gas": counters["chain_gas"],
        "service.cache_hit_frac": _ratio(counters["cache_hits"], requests),
        "service.stage_busy_s.hash": counters["stage_busy_s.hash"],
        "service.stage_busy_s.execute": counters["stage_busy_s.execute"],
        "service.stage_busy_s.settle": counters["stage_busy_s.settle"],
        "service.stage_busy_s.dispute": counters["stage_busy_s.dispute"],
        "pipeline.pipelined_drains": counters["pipelined_drains"],
        "pipeline.overlap": _ratio(counters["busy_cpu_s"], counters["processing_time_s"]),
        "fleet.codec.decode_s": _sum(spans, "self_s", "fleet.codec.decode"),
        "fleet.codec.encode_s": _sum(spans, "self_s", "fleet.codec.encode"),
        "fleet.codec.bytes_in_per_request": _ratio(_sum(spans, "units", "fleet.codec.decode"),
                                                   requests),
        "fleet.transport.frames_per_request": _ratio(
            _sum(spans, "calls", "fleet.transport.send", "fleet.transport.recv"), requests),
        "fleet.transport.recv_wait_s": _sum(spans, "self_s", "fleet.transport.recv"),
        "fleet.chain_rpcs_per_request": _ratio(_sum(spans, "units", "fleet.transport.recv"),
                                               requests),
        "fleet.journal.records": _sum(spans, "calls", "fleet.journal.record"),
        "fleet.journal.bytes": counters["journal_bytes"],
        "fleet.cycle_s.q1": counters["cycle_s.q1"],
        "fleet.cycle_s.q4": counters["cycle_s.q4"],
        "trace.traced_requests": requests,
        "trace.overhead_frac": _ratio(counters["untraced_rps"], counters["traced_rps"]) - 1.0,
    }
    return {name: float(values[name]) for name, _, _ in PER_LAYER}


def quarter_means(cycle_s: List[float]) -> Tuple[float, float]:
    """Mean cycle time of the first and of the last quarter of cycles."""
    if not cycle_s:
        return 0.0, 0.0
    quarter = max(1, len(cycle_s) // 4)
    return float(np.mean(cycle_s[:quarter])), float(np.mean(cycle_s[-quarter:]))

"""Self-tests of the benchmark's own accounting, tracing and declaration.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  They exercise
only the benchmark's code and the ledger types; no workload is run.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import types

import pytest

from perfbench import accounting, layers
from perfbench.accounting import Outcome
from perfbench.run import END_TO_END
from perfbench.tracer import Tracer
from repro.protocol.chain import SimulatedChain
from repro.protocol.service import ServiceCore, ServiceStats, TAOService

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- tail percentile rule -------------------------------------------------

@pytest.mark.parametrize("samples, fraction", [
    (20, 0.5), (99, 0.5), (100, 0.9), (999, 0.9), (1000, 0.99),
    (9999, 0.99), (10000, 0.999), (100000, 0.9999),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(samples, fraction):
    assert accounting.tail_percentile(samples) == fraction


def test_tail_needs_ten_samples_beyond_the_median():
    with pytest.raises(ValueError):
        accounting.tail_percentile(19)


def test_latency_summary_reads_the_chosen_percentile():
    summary = accounting.summarize_latencies([float(v) for v in range(1, 101)])
    assert summary.samples == 100
    assert summary.tail_label == "p90"
    assert summary.p50_s == pytest.approx(50.5)
    assert summary.tail_s == pytest.approx(90.1)


def test_throughput_is_the_median_block_rate():
    # Five blocks of two rounds; one block ran at half speed.
    walls = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    assert accounting.block_median_rate(walls, [8] * 10) == pytest.approx(8.0)
    assert accounting.block_median_rate([2.0, 4.0], [150, 150]) == pytest.approx(56.25)
    assert accounting.block_median_rate([], []) == 0.0


# -- verdict classification ---------------------------------------------

def _outcome(status, victim=None, challenged=False, localized=None, task_status="same",
             error=None, request_id=0):
    return Outcome(request_id=request_id, model="m", victim=victim, status=status,
                   error=error, task_status=status if task_status == "same" else task_status,
                   challenged=challenged, localized=localized)


@pytest.mark.parametrize("outcome, reason", [
    (_outcome("finalized"), None),
    (_outcome("challenger_slashed", challenged=True), None),  # false alarm, resolved
    (_outcome("proposer_slashed", challenged=True), "honest_slashed"),
    (_outcome("rejected", task_status=None, error="bad payload"), "error"),
    (_outcome("stranded", task_status="pending"), "non_terminal"),
    (_outcome("queued", task_status=None), "non_terminal"),
    (_outcome("proposer_slashed", victim="linear", challenged=True, localized="linear"), None),
    (_outcome("finalized", victim="linear"), None),  # escaped cheat: not a failure
])
def test_failure_reason(outcome, reason):
    assert accounting.failure_reason(outcome) == reason


def test_verdict_summary_counts_cheats_false_alarms_and_failures():
    outcomes = [
        _outcome("finalized", request_id=0),
        _outcome("challenger_slashed", challenged=True, request_id=1),
        _outcome("proposer_slashed", challenged=True, request_id=2),
        _outcome("proposer_slashed", victim="a", challenged=True, localized="a", request_id=3),
        _outcome("proposer_slashed", victim="b", challenged=True, localized="c", request_id=4),
        _outcome("finalized", victim="d", request_id=5),
        _outcome("challenger_slashed", victim="e", challenged=True, request_id=6),
    ]
    summary = accounting.summarize_verdicts(outcomes)
    assert (summary.attempted, summary.failed) == (7, 1)
    assert summary.failures == {"honest_slashed": 1}
    assert (summary.cheats, summary.cheats_slashed, summary.mislocalized) == (4, 2, 1)
    assert summary.cheat_slashed_frac == pytest.approx(0.5)
    assert (summary.honest, summary.false_alarms) == (3, 2)
    assert summary.errors == []


def test_verdict_errors_flag_contradicted_statuses():
    mismatch = _outcome("finalized", task_status="proposer_slashed")
    unchallenged = _outcome("proposer_slashed", victim="a", challenged=False, localized=None)
    assert len(accounting.verdict_errors(mismatch)) == 1
    assert len(accounting.verdict_errors(unchallenged)) == 1
    assert accounting.summarize_verdicts([mismatch, unchallenged]).errors


def test_fingerprint_tracks_ordered_statuses():
    first = [_outcome("finalized", request_id=0), _outcome("finalized", request_id=1)]
    same = [_outcome("finalized", request_id=0), _outcome("finalized", request_id=1)]
    changed = [_outcome("finalized", request_id=0),
               _outcome("challenger_slashed", challenged=True, request_id=1)]
    assert accounting.verdict_fingerprint(first) == accounting.verdict_fingerprint(same)
    assert accounting.verdict_fingerprint(first) != accounting.verdict_fingerprint(changed)


# -- ledger conservation ------------------------------------------------

class _StubCore(ServiceCore):
    """A front end that only owns a ledger, like the fleet parent."""

    def __init__(self) -> None:
        self.chain = SimulatedChain()

    def register_model(self, graph_module, calibration_inputs=None,
                       threshold_table=None, **session_kwargs):
        raise NotImplementedError

    def model(self, name):
        raise NotImplementedError

    def submit(self, model_name, inputs, proposer=None, force_challenge=False,
               challenger=None):
        raise NotImplementedError

    def request(self, request_id):
        raise NotImplementedError

    def process(self, max_requests=None):
        return []

    def stats(self):
        return ServiceStats()


def test_conservation_holds_through_funding_and_transfers():
    core = _StubCore()
    core.chain.fund("user", 10_000.0)
    core.chain.fund("user", 30.0)
    core.chain.transfer("user", "proposer", 10.0)
    assert accounting.conservation_error(core) is None


def test_conservation_flags_value_created_outside_fund():
    core = _StubCore()
    core.chain.fund("user", 100.0)
    core.chain.balances["proposer"] = 0.5  # minted without chain.fund
    error = accounting.conservation_error(core)
    assert error is not None and "minted" in error


def test_ledger_of_reads_a_coordinator_backed_service():
    service = TAOService()
    service.coordinator.chain.fund("user", 5.0)
    assert accounting.ledger_of(service) is service.coordinator.chain
    assert accounting.conservation_error(service) is None


def test_quartile_spread_is_relative_to_the_median():
    assert accounting.quartile_spread([10.0] * 5) == 0.0
    assert accounting.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- tracer ---------------------------------------------------------------

def _fake_module(name: str) -> types.ModuleType:
    module = types.ModuleType(name)
    exec(
        "def leaf(n):\n"
        "    return sum(range(n))\n"
        "def outer(n):\n"
        "    return leaf(n) + leaf(n)\n"
        "def countdown(k):\n"
        "    return 0 if k == 0 else countdown(k - 1)\n",
        module.__dict__,
    )
    return module


@pytest.fixture
def fake_modules():
    home = _fake_module("perfbench_fake_home")
    alias = types.ModuleType("perfbench_fake_alias")
    alias.leaf_alias = home.leaf
    sys.modules[home.__name__] = home
    sys.modules[alias.__name__] = alias
    yield home, alias
    del sys.modules[home.__name__], sys.modules[alias.__name__]


def test_self_time_excludes_children_and_aliases_are_patched(fake_modules):
    home, alias = fake_modules
    original_leaf = home.leaf
    tracer = Tracer()
    tracer.patch_function(home, "leaf", "layer_a.leaf",
                          units=lambda args, kwargs, result: float(args[0]),
                          aliases=(home.__name__, alias.__name__))
    tracer.patch_function(home, "outer", "layer_b.outer", aliases=(home.__name__,))
    tracer.enabled = True
    home.outer(50_000)
    alias.leaf_alias(10)
    tracer.enabled = False
    spans, edges = tracer.snapshot()
    leaf, outer = spans["layer_a.leaf"], spans["layer_b.outer"]
    assert leaf.calls == 3 and leaf.units == 100_010.0
    assert edges == {("layer_b.outer", "layer_a.leaf"): 2, ("", "layer_b.outer"): 1,
                     ("", "layer_a.leaf"): 1}
    assert outer.self_s == pytest.approx(outer.total_s - (leaf.total_s - leaf.top_s), abs=1e-6)
    assert leaf.layer_entry_s == pytest.approx(leaf.total_s)
    tracer.uninstall()
    assert home.leaf is original_leaf and alias.leaf_alias is original_leaf


def test_recursion_counts_inclusive_time_once(fake_modules):
    home, _ = fake_modules
    tracer = Tracer()
    tracer.patch_function(home, "countdown", "layer.countdown", aliases=(home.__name__,))
    tracer.enabled = True
    home.countdown(5)
    tracer.enabled = False
    span = tracer.snapshot()[0]["layer.countdown"]
    assert span.calls == 6
    assert span.total_s == pytest.approx(span.top_s)
    assert span.self_s == pytest.approx(span.total_s, abs=1e-6)
    tracer.uninstall()


def test_spans_are_recorded_only_when_enabled_and_in_the_installing_process(fake_modules):
    home, _ = fake_modules
    tracer = Tracer()
    tracer.patch_function(home, "leaf", "layer.leaf", aliases=(home.__name__,))
    home.leaf(3)
    assert tracer.snapshot()[0] == {}
    tracer.enabled = True
    tracer.pid = -1  # as seen from a forked fleet worker
    assert home.leaf(3) == 3
    assert tracer.snapshot()[0] == {}
    tracer.uninstall()


def test_each_thread_keeps_its_own_span_stack(fake_modules):
    home, _ = fake_modules
    tracer = Tracer()
    tracer.patch_function(home, "leaf", "layer_a.leaf", aliases=(home.__name__,))
    tracer.patch_function(home, "outer", "layer_b.outer", aliases=(home.__name__,))
    tracer.enabled = True
    worker = threading.Thread(target=home.leaf, args=(10,))

    def outer_with_thread(n):
        worker.start()
        worker.join(timeout=10)
        return n

    wrapped = tracer.wrap("layer_b.spawner", outer_with_thread)
    wrapped(1)
    assert not worker.is_alive()
    edges = tracer.snapshot()[1]
    assert edges[("", "layer_a.leaf")] == 1  # not a child of the main thread's span
    tracer.uninstall()


def test_patching_an_unbound_function_fails_loudly(fake_modules):
    home, _ = fake_modules
    with pytest.raises(RuntimeError):
        Tracer().patch_function(home, "leaf", "layer.leaf", aliases=())


# -- declaration --------------------------------------------------------

def test_benchmark_json_declares_what_the_runs_print():
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, cls.why) for name, cls in WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_map_covers_every_per_layer_metric():
    prefixes = [prefix for claim in layers.LAYER_MAP.values() for prefix in claim["metrics"]]
    for name, _, _ in layers.PER_LAYER:
        assert name.startswith("trace.") or name.startswith(tuple(prefixes)), name

#!/usr/bin/env python3
"""One seeded end-to-end run of the verification benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload zoo_interactive --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers active;
``--trace 1`` wraps each layer's public functions and reports per-layer
metrics, tracing every other round so the untraced rounds give the tracing
overhead.  Both modes check every verdict against the workload's ground
truth and the ledger's conservation, print a readable report, and end with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when a verdict or the ledger is wrong.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(name, unit)`` of every end-to-end metric, as in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("gas_per_request", "gas"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal measuring time; sizes the request count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _vm_hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def peak_rss_mb(worker_pids: List[int]) -> float:
    """Parent peak RSS plus the largest worker's."""
    parent = _vm_hwm_mb(os.getpid())
    if parent is None:
        import resource
        parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = [mb for mb in (_vm_hwm_mb(pid) for pid in worker_pids) if mb is not None]
    return parent + max(workers, default=0.0)


def provenance() -> str:
    from benchmarks.reporting import host_provenance

    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
        with open(path, "rb") as source:
            digest.update(source.read())
    return f"{host_provenance()} | commit {commit} | src sha256 {digest.hexdigest()[:16]}"


def _probe(core, chain) -> Dict[str, float]:
    """Program counters read around a traced round."""
    stats = core.stats()
    values = {
        "cache_hits": stats.cache_hits,
        "disputes_opened": stats.disputes_opened,
        "dispute_rounds": stats.dispute_rounds,
        "pipelined_drains": stats.pipelined_drains,
        "busy_cpu_s": stats.busy_cpu_s,
        "processing_time_s": stats.processing_time_s,
        "chain_gas": chain.total_gas(),
        "chain_txs": len(chain.transactions),
        "journal_bytes": sum(journal.size_bytes()
                             for journal in getattr(core, "journals", {}).values()),
    }
    for stage in ("hash", "execute", "settle", "dispute"):
        values[f"stage_busy_s.{stage}"] = stats.stage_busy_s.get(stage, 0.0)
    return {key: float(value) for key, value in values.items()}


def measure(workload, core, plan, tracer) -> Dict[str, object]:
    """The closed loop: submit a round, wait for its verdicts, repeat."""
    from perfbench.accounting import Outcome, ledger_of

    chain = ledger_of(core)
    gas_before = chain.total_gas()
    outcomes: List[Outcome] = []
    errors: List[str] = []
    #: ``(traced, wall seconds, requests)`` per round.
    rounds: List[Tuple[bool, float, int]] = []
    counters: Dict[str, float] = {}
    for index, planned in enumerate(plan):
        traced = tracer is not None and index % 2 == 0
        before = _probe(core, chain) if traced else None
        if traced:
            tracer.enabled = True
        start = perf_counter()
        submitted = []
        for request in planned:
            submitted_at = perf_counter()
            submitted.append((workload.submit(core, request), submitted_at, request))
        processed = core.process()
        done = perf_counter()
        if traced:
            tracer.enabled = False
            for key, value in _probe(core, chain).items():
                counters[key] = counters.get(key, 0.0) + value - before[key]
        rounds.append((traced, done - start, len(planned)))
        returned = sorted(request.request_id for request in processed)
        if returned != sorted(request_id for request_id, _, _ in submitted):
            errors.append(f"round {index}: submitted {len(submitted)} requests, "
                          f"process returned {len(returned)} others")
        for request_id, submitted_at, request in submitted:
            record = core.request(request_id)
            report = record.report
            dispute = report.dispute if report is not None else None
            outcomes.append(Outcome(
                request_id=request_id, model=request.model, victim=request.victim,
                status=record.status, error=record.error,
                task_status=report.task.status.value if report is not None else None,
                challenged=bool(report is not None and report.challenged),
                localized=dispute.localized_operator if dispute is not None else None,
                latency_s=done - submitted_at,
            ))
    return {
        "outcomes": outcomes, "errors": errors, "rounds": rounds,
        "gas": chain.total_gas() - gas_before, "counters": counters,
    }


def _rounds(result, traced: bool) -> Tuple[List[float], List[int]]:
    """Walls and sizes of the traced or of the untraced rounds."""
    picked = [(wall, size) for flag, wall, size in result["rounds"] if flag == traced]
    return [wall for wall, _ in picked], [size for _, size in picked]


def run(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: {ROOT} holds no src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import accounting, layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS
    from repro.fleet import ProcessFleet

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)

    setup_s: List[float] = []
    core = None
    try:
        for attempt in range(workload.setup_repeats):
            if core is not None:
                core.close()
                core = None
                gc.collect()
            if tracer is not None and attempt == workload.setup_repeats - 1:
                tracer.enabled = True
            started = perf_counter()
            core = workload.setup()
            setup_s.append(perf_counter() - started)
            if tracer is not None:
                tracer.enabled = False
        setup_spans = tracer.snapshot()[0] if tracer is not None else {}
        plan = workload.plan(workload.rounds_for(args.seconds, minimum=2 if tracer else 1))
        workload.fund(core, plan)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        result = measure(workload, core, plan, tracer)
        peak_mb = peak_rss_mb(workload.worker_pids(core))
    finally:
        if core is not None:
            core.close()

    outcomes = result["outcomes"]
    verdicts = accounting.summarize_verdicts(outcomes)
    errors = list(result["errors"]) + verdicts.errors
    ledger_error = accounting.conservation_error(core)
    if ledger_error is not None:
        errors.append(ledger_error)
    latency = accounting.summarize_latencies([o.latency_s for o in outcomes])
    untraced_walls, untraced_sizes = _rounds(result, traced=False)

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} requests={verdicts.attempted} rounds={len(plan)}x"
          f"{workload.round_size}")
    print(f"  provenance: {provenance()}")
    print(f"  workload: {workload.why}")
    print(f"  setup_s runs: {', '.join(f'{s:.3f}' for s in setup_s)}")
    print(f"  failed: {verdicts.failed}/{verdicts.attempted} "
          f"(failed_frac {verdicts.failed_frac:.6f}; {verdicts.failures or 'none'})")
    cheat = verdicts.cheat_slashed_frac
    print(f"  cheat_slashed_frac: "
          + (f"{cheat:.6f} ({verdicts.cheats_slashed}/{verdicts.cheats}; "
             f"{verdicts.mislocalized} localized at another operator than planted)"
             if cheat is not None else "n/a (no cheats)"))
    print(f"  false_alarm_frac: {verdicts.false_alarm_frac or 0.0:.6f} "
          f"({verdicts.false_alarms}/{verdicts.honest} honest requests disputed)")
    print(f"  latency tail: {latency.tail_label} over {latency.samples} samples")
    print(f"  verdict fingerprint: {accounting.verdict_fingerprint(outcomes)}")
    print(f"  ledger: {ledger_error or 'sum(balances) == minted'}")
    for error in errors[:20]:
        print(f"  ERROR {error}")

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_s),
            "throughput_rps": accounting.block_median_rate(untraced_walls, untraced_sizes),
            "latency_p50_s": latency.p50_s,
            "latency_tail_s": latency.tail_s,
            "gas_per_request": result["gas"] / verdicts.attempted,
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        spans, edges = tracer.snapshot()
        counters = dict(result["counters"])
        traced_walls, traced_sizes = _rounds(result, traced=True)
        counters["traced_requests"] = sum(traced_sizes)
        counters["cycle_s.q1"], counters["cycle_s.q4"] = \
            layers.quarter_means(untraced_walls) \
            if isinstance(core, ProcessFleet) else (0.0, 0.0)
        counters["traced_rps"] = accounting.block_median_rate(traced_walls, traced_sizes)
        counters["untraced_rps"] = accounting.block_median_rate(untraced_walls, untraced_sizes)
        values = layers.per_layer_metrics(spans, edges, setup_spans, counters)
        shares = layers.group_shares(spans)
        dominant = max(shares, key=shares.get)
        intended = layers.INTENDED_DOMINANT[workload.name]
        print(f"  throughput_rps untraced {counters['untraced_rps']:.3f} "
              f"traced {counters['traced_rps']:.3f}")
        print("  top-level span share: " + ", ".join(
            f"{group} {share:.3f}" for group, share in
            sorted(shares.items(), key=lambda item: -item[1])))
        print(f"  dominant layer: {dominant} (intended {intended}: "
              f"{'confirmed' if dominant == intended else 'NOT confirmed'})")
        for layer, claim in layers.LAYER_MAP.items():
            print(f"  layer {layer}: should move {', '.join(claim['moves'])} on "
                  f"{', '.join(claim['on'])}"
                  + (f"; no change on {', '.join(claim['no_change'])}"
                     if claim["no_change"] else ""))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")

    correct = not errors
    print(json.dumps({"correct": correct, "attempted": verdicts.attempted,
                      "failed": verdicts.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run())

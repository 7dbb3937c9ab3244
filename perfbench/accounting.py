"""The benchmark's own accounting: latency summary, verdict ground truth, ledger.

Kept free of workload and tracing code so its rules are self-tested in
``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Statuses after which no protocol step is pending.
TERMINAL_STATUSES = frozenset({"finalized", "proposer_slashed", "challenger_slashed"})

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999)

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_MIN_BEYOND = 10


def tail_percentile(sample_count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    chosen = None
    for fraction in TAIL_LADDER:
        if sample_count * (1.0 - fraction) >= TAIL_MIN_BEYOND - 1e-9:
            chosen = fraction
    if chosen is None:
        raise ValueError(
            f"{sample_count} samples leave fewer than {TAIL_MIN_BEYOND} beyond "
            "the median; a run needs at least 20 requests")
    return chosen


@dataclass(frozen=True)
class LatencySummary:
    p50_s: float
    tail_s: float
    tail_fraction: float
    samples: int

    @property
    def tail_label(self) -> str:
        return f"p{self.tail_fraction * 100:g}"


def summarize_latencies(latencies_s: Sequence[float]) -> LatencySummary:
    values = np.asarray(latencies_s, dtype=np.float64)
    fraction = tail_percentile(len(values))
    return LatencySummary(
        p50_s=float(np.percentile(values, 50.0)),
        tail_s=float(np.percentile(values, fraction * 100.0)),
        tail_fraction=fraction,
        samples=len(values),
    )


#: Contiguous blocks of rounds whose rates the throughput is the median of.
THROUGHPUT_BLOCKS = 5


def block_median_rate(round_walls_s: Sequence[float], round_sizes: Sequence[int],
                      blocks: int = THROUGHPUT_BLOCKS) -> float:
    """Median over contiguous blocks of rounds of requests per wall second.

    The host's speed drifts over seconds (other tenants share the cores), so
    the median of a few block rates is steadier than one overall rate while
    still charging every round, disputes included, to its block.
    """
    if not round_walls_s:
        return 0.0
    groups = np.array_split(np.arange(len(round_walls_s)), min(blocks, len(round_walls_s)))
    walls = np.asarray(round_walls_s, dtype=np.float64)
    sizes = np.asarray(round_sizes, dtype=np.float64)
    return float(statistics.median(sizes[g].sum() / walls[g].sum() for g in groups))


@dataclass
class Outcome:
    """Ground truth and verdict of one measured request."""

    request_id: int
    model: str
    #: Operator the benchmark perturbed, or None for an honest request.
    victim: Optional[str]
    status: str
    error: Optional[str] = None
    #: Status of the request's coordinator task (None if it never got one).
    task_status: Optional[str] = None
    challenged: bool = False
    localized: Optional[str] = None
    latency_s: float = 0.0

    @property
    def cheated(self) -> bool:
        return self.victim is not None


def failure_reason(outcome: Outcome) -> Optional[str]:
    """Why a request counts as failed, or None.

    A request fails when it errored, ended in a non-terminal status, or
    slashed an honest proposer.  A cheat that escapes is not a failure of
    the request; it shows in the cheat-slashed share.
    """
    if outcome.status == "rejected" or outcome.error:
        return "error"
    if outcome.status not in TERMINAL_STATUSES:
        return "non_terminal"
    if not outcome.cheated and outcome.status == "proposer_slashed":
        return "honest_slashed"
    return None


def verdict_errors(outcome: Outcome) -> List[str]:
    """Contradictions between a verdict and the protocol state behind it.

    These mean the program reported something untrue, so the run is not
    correct, unlike a failure, which is a true report of a bad outcome.
    """
    errors = []
    if outcome.task_status is not None and outcome.status in TERMINAL_STATUSES \
            and outcome.task_status != outcome.status:
        errors.append(f"request {outcome.request_id}: status {outcome.status!r} "
                      f"but its task is {outcome.task_status!r}")
    if outcome.status == "proposer_slashed" and not outcome.challenged:
        errors.append(f"request {outcome.request_id}: proposer slashed without a dispute")
    return errors


@dataclass
class VerdictSummary:
    attempted: int
    failed: int
    failures: Dict[str, int]
    cheats: int
    cheats_slashed: int
    honest: int
    false_alarms: int
    #: Slashed cheats whose dispute localized another operator than the
    #: planted one: the verdict stands, its provenance is off.
    mislocalized: int
    errors: List[str]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def cheat_slashed_frac(self) -> Optional[float]:
        return self.cheats_slashed / self.cheats if self.cheats else None

    @property
    def false_alarm_frac(self) -> Optional[float]:
        return self.false_alarms / self.honest if self.honest else None


def summarize_verdicts(outcomes: Sequence[Outcome]) -> VerdictSummary:
    failures: Dict[str, int] = {}
    errors: List[str] = []
    cheats = slashed = honest = false_alarms = mislocalized = 0
    for outcome in outcomes:
        reason = failure_reason(outcome)
        if reason is not None:
            failures[reason] = failures.get(reason, 0) + 1
        errors.extend(verdict_errors(outcome))
        if outcome.cheated:
            cheats += 1
            slashed += outcome.status == "proposer_slashed"
            mislocalized += (outcome.status == "proposer_slashed"
                             and outcome.localized != outcome.victim)
        else:
            honest += 1
            false_alarms += outcome.challenged
    return VerdictSummary(
        attempted=len(outcomes), failed=sum(failures.values()), failures=failures,
        cheats=cheats, cheats_slashed=slashed, honest=honest,
        false_alarms=false_alarms, mislocalized=mislocalized, errors=errors,
    )


def verdict_fingerprint(outcomes: Sequence[Outcome]) -> str:
    """Digest of the ordered statuses: equal across repeats of one seed."""
    text = "\n".join(f"{o.request_id}:{o.model}:{o.status}" for o in outcomes)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def ledger_of(core):
    """The settlement chain behind a front end (fleet parent or coordinator)."""
    chain = getattr(core, "chain", None)
    return chain if chain is not None else core.coordinator.chain


def conservation_error(core) -> Optional[str]:
    """None when ``sum(balances) == minted`` holds exactly on the ledger."""
    chain = ledger_of(core)
    total = sum(chain.balances.values())
    if total != chain.minted:
        return f"ledger not conserved: sum(balances)={total!r} minted={chain.minted!r}"
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median

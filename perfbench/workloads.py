"""The three seeded workloads, each a closed loop of one in-process client.

Every request input (payloads, which requests cheat and where, which tenant
each request goes to) is generated here from the workload seed before the
program sees it; set-up inputs (weights, calibration data) are fixed.
A run is sized by request count: ``rounds_for(seconds)`` turns the requested
measuring time into a number of rounds at the workload's nominal rate, so a
faster program does the same work in less time instead of more work (fleet
cycles get dearer as history grows, so a time-bounded run would penalise a
faster commit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import TAOService, get_model_spec
from repro.fleet import ProcessFleet
from repro.protocol.service import ServiceCore
from repro.utils.rng import derive_seed, seeded_rng

from benchmarks.test_cluster_scaling import NUM_TENANTS
from benchmarks.test_cluster_scaling import _workload as cluster_scaling_tenants
from perfbench.accounting import ledger_of

ZOO_MODELS = ("bert_mini", "qwen_mini", "resnet_mini", "diffusion_mini")
#: Calibration inputs per model and their seed, as ``benchmarks/conftest.py``
#: prepares the zoo.  The seed is fixed: the committed thresholds set the
#: false-alarm rate, and each extra dispute costs tenths of a second, so a
#: seeded calibration would re-draw the workload's cost on every seed.
CALIBRATION_SAMPLES = 12
CALIBRATION_SEED = 17
#: ``TAOSession.make_user``'s fee and the coordinator's proposer bond.
FEE = 10.0
PROPOSER_BOND = 100.0
#: Operators with a reduction inside, where planted noise is adjudicated
#: against an accumulated floating-point tolerance.
REDUCTION_OPS = frozenset({"linear", "bmm", "conv2d", "layer_norm", "rms_norm",
                           "group_norm", "batch_norm", "softmax"})
#: Per-element noise of a cheat, as in ``fig8_dispute_scaling``.
NOISE_SCALE = 0.02


@dataclass
class PlannedRequest:
    model: str
    inputs: Dict[str, np.ndarray]
    #: Operator a cheating proposer perturbs; None for an honest request.
    victim: Optional[str] = None


class Workload:
    """Set-up, request plan and submission of one workload."""

    name = ""
    why = ""
    #: Requests the client submits before waiting for their verdicts.
    round_size = 1
    #: Requests planned per second of ``--seconds`` (rounded to whole
    #: rounds).  Only sizes the run, never read back as a result; on the
    #: 2-core reference host a 12 s run measures for 11 to 17 s.
    nominal_rps = 1.0
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def rounds_for(self, seconds: float, minimum: int = 1) -> int:
        return max(minimum, round(seconds * self.nominal_rps / self.round_size))

    def setup(self) -> ServiceCore:
        raise NotImplementedError

    def plan(self, rounds: int) -> List[List[PlannedRequest]]:
        raise NotImplementedError

    def fund(self, core: ServiceCore, plan: List[List[PlannedRequest]]) -> None:
        """Mint what the measured phase will spend, before it starts.

        Each tenant's user starts with 10,000 units and pays a fee per
        request, so long runs would end in ``insufficient balance``.  Funding
        goes through ``chain.fund``, which counts into ``minted``.
        """
        chain = ledger_of(core)
        for model, count in _count_by(plan, lambda r: r.model).items():
            chain.fund(f"{model}-user", FEE * count)

    def submit(self, core: ServiceCore, request: PlannedRequest) -> int:
        return core.submit(request.model, request.inputs)

    def worker_pids(self, core: ServiceCore) -> List[int]:
        return []


def _count_by(plan: List[List[PlannedRequest]], key) -> Dict:
    counts: Dict = {}
    for planned in plan:
        for request in planned:
            counts[key(request)] = counts.get(key(request), 0) + 1
    return counts


class _Zoo(Workload):
    """The four zoo models on one in-process ``TAOService`` with defaults."""

    round_size = 8
    setup_repeats = 2

    def setup(self) -> TAOService:
        service = TAOService()
        self.models = {}
        for name in ZOO_MODELS:
            spec = get_model_spec(name)
            module = spec.build_module()
            graph = spec.trace(module, batch_size=1)
            service.register_model(graph, calibration_inputs=spec.dataset(
                module, CALIBRATION_SAMPLES, seed=CALIBRATION_SEED, batch_size=1))
            victims = [node.name for node in graph.graph.operators
                       if node.target in REDUCTION_OPS]
            self.models[name] = (spec, module, victims)
        # Warm-up: plan compilation and batch certification, two per model.
        for index, name in enumerate(ZOO_MODELS * 2):
            service.submit(name, self._inputs(name, "warm-up", index))
        service.process()
        return service

    def _inputs(self, model: str, label: str, index: int) -> Dict[str, np.ndarray]:
        spec, module, _ = self.models[model]
        return spec.sample_inputs(module, 1, derive_seed(self.seed, label, index))


class ZooInteractive(_Zoo):
    name = "zoo_interactive"
    why = ("honest requests on the four zoo models: engine and hashing work "
           "dominate; disputes, pipeline and fleet codec are nearly idle")
    nominal_rps = 75.0

    def plan(self, rounds: int) -> List[List[PlannedRequest]]:
        return [[PlannedRequest(model, self._inputs(model, "request", r * self.round_size + i))
                 for i, model in enumerate(ZOO_MODELS * 2)]
                for r in range(rounds)]


class ZooDisputesBulk(_Zoo):
    name = "zoo_disputes_bulk"
    why = ("half the requests cheat at a seeded reduction operator: bisection, "
           "subgraph records and leaf adjudication dominate; drains overlap cycles")
    #: Two default protocol cycles (3600 s / 12 s / 4 = 75 requests each).
    round_size = 150
    nominal_rps = 20.0

    def plan(self, rounds: int) -> List[List[PlannedRequest]]:
        rng = seeded_rng(derive_seed(self.seed, "plan"))
        plan = []
        for r in range(rounds):
            cheats = set(rng.permutation(self.round_size)[:self.round_size // 2].tolist())
            drain = []
            for i in range(self.round_size):
                model = ZOO_MODELS[i % len(ZOO_MODELS)]
                victim = None
                if i in cheats:
                    victims = self.models[model][2]
                    victim = victims[int(rng.integers(len(victims)))]
                drain.append(PlannedRequest(
                    model, self._inputs(model, "request", r * self.round_size + i), victim))
            plan.append(drain)
        return plan

    def fund(self, core: TAOService, plan: List[List[PlannedRequest]]) -> None:
        super().fund(core, plan)
        chain = core.coordinator.chain
        self.cheaters: Dict[Tuple[str, str], object] = {}
        cheats = _count_by(plan, lambda r: (r.model, r.victim))
        for (model, victim), count in sorted(cheats.items(), key=str):
            if victim is None:
                continue
            name = f"{model}-cheater-{victim}"
            noise = _noise(derive_seed(self.seed, "noise", model, victim))
            self.cheaters[(model, victim)] = core.model(model).session \
                .make_adversarial_proposer(name, {victim: noise})
            # Every caught cheat forfeits its bond.
            chain.fund(name, PROPOSER_BOND * count)

    def submit(self, core: TAOService, request: PlannedRequest) -> int:
        if request.victim is None:
            return core.submit(request.model, request.inputs)
        return core.submit(request.model, request.inputs,
                           proposer=self.cheaters[(request.model, request.victim)])


def _noise(seed: int):
    def apply(value: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return (value + NOISE_SCALE * rng.standard_normal(value.shape)).astype(np.float32)
    return apply


class TenantsFleet(Workload):
    name = "tenants_fleet"
    why = ("16 Zipf-popular MLP tenants on a 2-worker ProcessFleet: cache hits "
           "leave codec, transport frames, chain RPCs and the journal")
    round_size = 16
    #: 60 cycles of 16: under 1,000 samples the latency tail is p90, which
    #: the cycle-time growth and single slow cycles move less than p99.
    nominal_rps = 80.0
    setup_repeats = 3
    #: The reference host's core count, fixed so the workload does not
    #: change with the host.
    workers = 2
    tenants = NUM_TENANTS
    pool_size = 4
    zipf_exponent = 1.1

    def _payload(self, label: str, index: int) -> Dict[str, np.ndarray]:
        rng = seeded_rng(derive_seed(self.seed, label, index))
        return {"x": rng.standard_normal((4, 32)).astype(np.float32)}

    def setup(self) -> ProcessFleet:
        # The cluster-scaling benchmark's tenants and threshold table.  They
        # fix each tenant's commitment digest, hence its worker, so the
        # seed varies the request stream but not the load balance.
        graphs, thresholds = cluster_scaling_tenants()
        fleet = ProcessFleet(num_workers=self.workers)
        try:
            for graph in graphs:
                fleet.register_model(graph, threshold_table=thresholds)
            for index, graph in enumerate(graphs):
                fleet.submit_many(graph.name, [self._payload("warm-up", 2 * index + k)
                                               for k in range(2)])
            fleet.process()
        except BaseException:
            fleet.close()
            raise
        return fleet

    def plan(self, rounds: int) -> List[List[PlannedRequest]]:
        rng = seeded_rng(derive_seed(self.seed, "plan"))
        # Tenant i is the (i+1)-th most popular.
        weights = 1.0 / (1.0 + np.arange(self.tenants)) ** self.zipf_exponent
        weights /= weights.sum()
        pools = [[self._payload("pool", tenant * self.pool_size + k)
                  for k in range(self.pool_size)] for tenant in range(self.tenants)]
        plan = []
        for _ in range(rounds):
            cycle = []
            for _ in range(self.round_size):
                tenant = int(rng.choice(self.tenants, p=weights))
                cycle.append(PlannedRequest(
                    f"mlp_head_{tenant}", pools[tenant][int(rng.integers(self.pool_size))]))
            plan.append(cycle)
        return plan

    def worker_pids(self, core: ProcessFleet) -> List[int]:
        return [handle.process.pid for handle in core.workers.values() if handle.alive]


WORKLOADS = {cls.name: cls for cls in (ZooInteractive, ZooDisputesBulk, TenantsFleet)}

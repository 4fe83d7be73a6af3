"""The benchmark's three workloads.

Each workload turns ``--seed`` into its inputs and splits one *pass*
into its set-up (``setup``), the timed calls into the program
(``calls``) and the output checks (``check``).  Every pass
repeats identical work from cold in-process caches, so ``wall_s`` is a
median over identical passes.

Why these three (each loads different layers; see ``BENCHMARK.json``):

* ``plan-exact``  exact MILP solves and LP-relaxation pruning;
* ``fleet-beam``  the heuristic planner path (adabits warm-start ILPs,
  ``bitwidth_transfer``) under the beam allocator's memo;
* ``serve-ladder`` the online serving simulator alone, below and above
  capacity.
"""

from __future__ import annotations

import functools
import math
import traceback
from dataclasses import replace
from typing import Any, Dict, List, Tuple

import numpy as np

from ledger import NullLedger

import repro.fleet as fleet
import repro.pipeline as pipeline
import repro.workloads as workloads
from repro import PlannerConfig, Session
from repro.core import SplitQuantPlanner
from repro.fleet import FleetJob
from repro.hardware import table_iii_cluster
from repro.hardware.fleet import sample_fleet, schedulable_inventory
from repro.models import get_model
from repro.pipeline import OnlineConfig
from repro.pipeline.simulator import check_plan_memory
from repro.pipeline.topology import PipelineTopology
from repro.plan import uniform_plan
from repro.workloads import BatchWorkload


class Call:
    """One timed call into the program: its label and outcome."""

    def __init__(self, label: str, value: Any = None, error: str = ""):
        self.label = label
        self.value = value
        self.error = error


def attempt(label: str, fn, *args, **kwargs) -> Call:
    """Run one call; an exception fails the call, not the whole run."""
    try:
        return Call(label, fn(*args, **kwargs))
    except Exception:  # noqa: BLE001 - reported as a failed call
        return Call(label, error=traceback.format_exc())


def geomean(values: List[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


# ---------------------------------------------------------------------------
# plan-exact
# ---------------------------------------------------------------------------

#: Feasible (model, Table-III cluster) pairs, OPT-30B on cluster 5 among
#: them; small enough that a pass takes a few seconds, so a run holds
#: several passes.
PLAN_PAIRS = (("opt-30b", 5), ("opt-30b", 9), ("opt-13b", 3))
PLAN_WORKLOAD = BatchWorkload(batch=64, prompt_len=512, output_len=128)


class PlanExact:
    name = "plan-exact"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pairs = [PLAN_PAIRS[i] for i in rng.permutation(len(PLAN_PAIRS))]
        # The Table-VI planner configuration, single-threaded.
        self.config = PlannerConfig(
            group_size=3,
            max_orderings=6,
            microbatch_candidates=(8, 16, 32),
            verify_top_k=3,
            time_limit_s=30.0,
            parallelism=1,
            seed=seed,
        )

    def setup(self, ledger):
        cases = []
        for model, idx in self.pairs:
            spec = get_model(model)
            cluster = table_iii_cluster(idx)
            probe = SplitQuantPlanner(spec, cluster, self.config)
            budget = probe.uniform_quality(4)
            planner = SplitQuantPlanner(
                spec,
                cluster,
                replace(self.config, quality_budget=budget),
                cost_model=probe.cost_model,
                omega_layers=probe.omega_layers,
            )
            cases.append((f"{model}@{cluster.name}", planner, budget))
        return cases

    def calls(self, cases, ledger):
        return [
            (label, functools.partial(planner.plan, PLAN_WORKLOAD))
            for label, planner, _ in cases
        ]

    def check(self, cases, calls: List[Call]):
        tputs, answer = [], []
        for (label, planner, budget), call in zip(cases, calls):
            result = call.value
            if call.error:
                continue
            if result is None:
                call.error = "no feasible plan"
                continue
            # A HiGHS solve that stopped short of optimality (the time
            # limit) reads "status-<n>"; it would make the answer depend
            # on machine speed.
            stopped = [
                s.status for s in result.stats if s.status.startswith("status-")
            ]
            if stopped:
                call.error = f"solves not optimal: {stopped}"
                continue
            plan = result.plan
            bits = list(planner.config.bit_choices)
            quality = sum(
                float(planner.omega_layers[st.layer_start + i, bits.index(b)])
                for st in plan.stages
                for i, b in enumerate(st.layer_bits)
            )
            if quality > budget * (1 + 1e-9):
                call.error = f"quality {quality} over budget {budget}"
                continue
            sim = attempt(
                label, pipeline.simulate_plan, plan, planner.cluster,
                planner.spec, PLAN_WORKLOAD, check_memory=True,
            )
            if sim.error:
                call.error = sim.error
                continue
            tputs.append(sim.value.throughput_tokens_s)
            answer.append((label, plan, sim.value.throughput_tokens_s))
        answers = {"plan_tput_tok_s": geomean(tputs)} if tputs else {}
        return answers, tuple(answer)


# ---------------------------------------------------------------------------
# fleet-beam
# ---------------------------------------------------------------------------

#: The job shapes (model, batch, prompt, output, batches).  The seed draws
#: each job's deadline class and priority, the queue order and the GPU
#: inventory; the shapes stay fixed so that every seed asks for the same
#: amount of work and the run-to-run spread stays small.
FLEET_SHAPES = (
    ("opt-1.3b", 32, 512, 128, 4),
    ("opt-1.3b", 16, 256, 64, 6),
    ("bloom-3b", 32, 256, 128, 3),
    ("bloom-3b", 8, 512, 64, 8),
    ("opt-13b", 16, 512, 128, 2),
    ("opt-13b", 32, 128, 32, 5),
)
DEADLINE_CLASSES = ("urgent", "daily", "batch")


def fleet_queue(seed: int) -> Tuple[FleetJob, ...]:
    rng = np.random.default_rng(seed)
    jobs = []
    for i, k in enumerate(rng.permutation(len(FLEET_SHAPES))):
        model, batch, prompt, output, batches = FLEET_SHAPES[k]
        jobs.append(
            FleetJob(
                job_id=f"job-{i:02d}",
                model=model,
                workload=BatchWorkload(batch, prompt, output),
                num_batches=batches,
                deadline_class=DEADLINE_CLASSES[int(rng.integers(0, 3))],
                min_uniform_bits=4,
                priority=int(rng.integers(0, 3)),
            )
        )
    return tuple(jobs)


class FleetBeam:
    name = "fleet-beam"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, ledger):
        inventory = schedulable_inventory(
            sample_fleet(seed=self.seed), pool_gpus=24
        )
        jobs = fleet_queue(self.seed)
        # schedule_fleet ignores the session's own model and cluster.
        session = Session(
            "opt-13b", cluster=10,
            config=PlannerConfig(seed=self.seed, parallelism=1),
        )
        return session, inventory, jobs

    def calls(self, state, ledger):
        session, inventory, jobs = state

        def schedule_and_simulate():
            schedule = session.schedule_fleet(
                jobs=jobs, inventory=inventory, simulate=False,
                parallelism=1,
            )
            with ledger.span("fleet.simulate"):
                return schedule, fleet.simulate_schedule(schedule)

        return [("schedule", schedule_and_simulate)]

    def check(self, state, calls: List[Call]):
        _, inventory, jobs = state
        call = calls[0]
        if call.error:
            return {}, None
        schedule, sim = call.value
        errors = [f"{j.job_id} unscheduled" for j in schedule.unscheduled]
        if sorted(sj.job.job_id for sj in schedule.jobs) != sorted(
            j.job_id for j in jobs
        ):
            errors.append("scheduled jobs differ from the queue")
        placed = []
        for sj in schedule.jobs:
            a = sj.assignment
            cluster = a.materialize_cluster("eth-800g")
            ids = {d.device_id for d in cluster.devices}
            used = [i for st in a.result.plan.stages for i in st.device_ids]
            if not a.group.fits(inventory) or not set(used) <= ids:
                errors.append(f"{a.job.job_id} plan leaves its group")
                continue
            try:
                check_plan_memory(
                    a.result.plan, cluster, get_model(a.job.model),
                    a.job.workload,
                )
            except Exception as exc:  # noqa: BLE001 - a failed check
                errors.append(f"{a.job.job_id}: {exc}")
            placed.append(
                (a.job.job_id, a.group.counts, a.result.plan, sj.start_s,
                 sj.end_s)
            )
        if errors:
            call.error = "; ".join(errors)
            return {}, None
        answers = {
            "plan_tput_tok_s": sim.throughput_tokens_s,
            "fleet_makespan_s": sim.makespan_s,
        }
        return answers, (tuple(placed), sim.makespan_s, sim.total_tokens)


# ---------------------------------------------------------------------------
# serve-ladder
# ---------------------------------------------------------------------------

#: Open-loop Poisson ShareGPT arrivals at each rate for WINDOW_S simulated
#: seconds.  The lowest rung must run below capacity and the top rung
#: above it; ``check`` verifies both on every seed.
RATES = (0.5, 1.0, 1.5, 2.0, 3.0)
WINDOW_S = 300.0
TTFT_SLO_S = 2.0
#: A rung whose last request finishes more than this long after the
#: window closes is building a backlog.
DRAIN_MAX_S = 0.1 * WINDOW_S
#: The fast backend must match the event engine on this short window.
PARITY_WINDOW_S = 30.0
SERVE_CONFIG = OnlineConfig(
    chunk_tokens=512, admission="kv", ttft_slo_s=TTFT_SLO_S
)


def rung_name(rate: float) -> str:
    return f"rate{rate:g}"


class ServeLadder:
    name = "serve-ladder"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = get_model("opt-13b")
        self.cluster = table_iii_cluster(10)

    def _plan(self):
        return uniform_plan(
            self.spec.name,
            self.spec.num_layers,
            [((d.device_id,), d.gpu.name) for d in self.cluster.devices],
            bits=4,
            prefill_microbatch=8,
            decode_microbatch=8,
        )

    def _trace(self, ledger, i: int, window: float):
        with ledger.span("workloads.trace"):
            return workloads.poisson_trace(
                RATES[i], window, seed=self.seed * len(RATES) + i
            )

    def setup(self, ledger):
        traces = [self._trace(ledger, i, WINDOW_S) for i in range(len(RATES))]
        return self._plan(), traces

    def calls(self, state, ledger):
        plan, traces = state

        def serve(trace):
            with ledger.span("pipeline.online"):
                result = pipeline.simulate_online(
                    plan, self.cluster, self.spec, trace, config=SERVE_CONFIG
                )
            ledger.count("pipeline.online.events", result.events_processed)
            return result

        return [
            (rung_name(rate), functools.partial(serve, trace))
            for rate, trace in zip(RATES, traces)
        ]

    def check(self, state, calls: List[Call]):
        plan, traces = state
        capacity = PipelineTopology.build(
            plan, self.cluster, self.spec
        ).stage_capacities()
        rungs: Dict[float, Dict[str, float]] = {}
        for rate, trace, call in zip(RATES, traces, calls):
            if call.error:
                continue
            r = call.value
            errors = []
            if r.arrived != len(trace.requests) or (
                r.arrived != r.completed + r.rejected + r.unserved
            ):
                errors.append("arrived != completed + rejected + unserved")
            if max(r.stage_busy_s) > r.makespan_s * (1 + 1e-12):
                errors.append("stage busy exceeds makespan")
            if any(m > c for m, c in zip(r.stage_memory_bytes, capacity)):
                errors.append("KV peak over the memory budget")
            if errors:
                call.error = "; ".join(errors)
                continue
            # Refused requests count as misses of every latency limit.
            ttft = np.full(r.arrived, math.inf)
            ttft[: r.completed] = r.ttft_s
            rungs[rate] = {
                "ttft_p50_s": r.ttft_percentile(50),
                "ttft_p99_s": r.ttft_percentile(99),
                "tpot_p99_s": r.tpot_percentile(99),
                "ttft_p99_all_s": float(
                    np.percentile(ttft, 99, method="inverted_cdf")
                ),
                "slo_attain": float(np.mean(ttft <= TTFT_SLO_S)),
                "shed_frac": (r.rejected + r.unserved) / r.arrived,
                "drain_s": max(r.makespan_s - WINDOW_S, 0.0),
                "tput_tok_s": r.throughput_tokens_s,
                "n": r.completed,
            }
        if len(rungs) != len(RATES):
            return {}, None
        low, top = rungs[RATES[0]], rungs[RATES[-1]]
        if low["shed_frac"] > 0 or low["drain_s"] > DRAIN_MAX_S:
            calls[0].error = (
                f"lowest rung not below capacity: shed {low['shed_frac']}, "
                f"drain {low['drain_s']} s"
            )
            return {}, None
        if top["shed_frac"] == 0:
            calls[-1].error = "top rung sheds nothing: not above capacity"
            return {}, None
        sustained = [
            rate for rate, v in rungs.items()
            if v["ttft_p99_all_s"] <= TTFT_SLO_S and v["drain_s"] <= DRAIN_MAX_S
        ]
        answers = {
            "plan_tput_tok_s": top["tput_tok_s"],
            "sim_ttft_p50_s": low["ttft_p50_s"],
            "sim_ttft_p99_s": low["ttft_p99_s"],
            "sim_tpot_p99_s": low["tpot_p99_s"],
            "sim_ttft_n": low["n"],
            "sim_slo_attain": top["slo_attain"],
            "sim_max_rate_rps": max(sustained) if sustained else 0.0,
        }
        for rate, v in rungs.items():
            for key in ("ttft_p99_s", "shed_frac", "drain_s"):
                answers[f"pipeline.online.{rung_name(rate)}.{key}"] = v[key]
        return answers, tuple(c.value for c in calls)

    def parity(self) -> str:
        """'' when the fast backend equals the event engine, else why not."""
        plan = self._plan()
        for i in (0, len(RATES) - 1):
            trace = self._trace(NullLedger(), i, PARITY_WINDOW_S)
            fast, event = (
                pipeline.simulate_online(
                    plan, self.cluster, self.spec, trace,
                    config=SERVE_CONFIG, sim_backend=backend,
                )
                for backend in ("fast", "event")
            )
            if fast.sim_backend != "fast" or fast != event:
                return (
                    f"fast backend differs from the event engine at "
                    f"{RATES[i]} req/s"
                )
        return ""


WORKLOADS = {w.name: w for w in (PlanExact, FleetBeam, ServeLadder)}

"""End-to-end pipeline serving simulation (the "runtime" of Fig. 6).

Simulates offline serving of one padded batch through a pipeline plan as a
discrete-event system: chunked prefill micro-batches flow through the FIFO
stage servers with asynchronous point-to-point communication, then decode
proceeds token by token with the autoregressive feedback loop from the
last stage's LM head back to the first stage's embedding.  Phases are
sequential, matching the paper's offline latency model (objective (4)).

:func:`simulate_plan` is the one offline entry: it takes the closed-form
fast path (:mod:`repro.pipeline.fastsim`) whenever that path is exact and
the discrete-event engine (:func:`simulate_plan_reference`) otherwise.

Per-stage memory is checked against the paper's memory cost model before
anything runs; infeasible plans raise
:class:`~repro.simgpu.memory.OutOfMemoryError` just as they would on
hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..costmodel.memory import (
    MemoryCostModel,
    stage_capacity_bytes,
    stage_resident_bytes,
)
from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..obs import DEFAULT_FRACTION_BUCKETS, metrics, trace
from ..plan import ExecutionPlan
from ..simgpu.memory import OutOfMemoryError
from ..workloads.spec import BatchWorkload, VariableBatchWorkload
from .events import EventLoop, FaultEvent
from .stage import TimingSource
from .topology import PipelineTopology, microbatch_sizes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.faults import FaultPlan


@dataclass(frozen=True)
class PipelineSimResult:
    """Outcome of simulating one batch through a plan."""

    makespan_s: float
    prefill_span_s: float
    decode_span_s: float
    total_tokens: int
    stage_busy_s: Tuple[float, ...]
    stage_memory_bytes: Tuple[int, ...]
    events_processed: int
    #: Which simulation backend produced this result (``"event"`` or
    #: ``"fast"``).  Provenance only: excluded from equality so the
    #: differential tests can assert fast == event directly.
    sim_backend: str = field(default="event", compare=False)
    #: Why ``simulate_plan`` dropped this run to the event engine (a
    #: batch with retiring requests); ``None`` when no fallback
    #: happened.  Provenance only, like ``sim_backend``.
    backend_reason: Optional[str] = field(default=None, compare=False)
    #: Joules drawn by the plan's GPUs over the run
    #: (:func:`repro.costmodel.energy.plan_energy`); ``None`` when the
    #: result predates energy accounting.  Participates in equality, so
    #: the event/fast/batched differential tests pin it bit-identical.
    energy_j: Optional[float] = None
    #: Dollars for the run: rental + electricity
    #: (:func:`repro.costmodel.energy.plan_cost`).
    cost_usd: Optional[float] = None

    @property
    def throughput_tokens_s(self) -> float:
        """Output token throughput — the paper's headline metric."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens / self.makespan_s

    @property
    def stage_utilization(self) -> Tuple[float, ...]:
        if self.makespan_s <= 0:
            return tuple(0.0 for _ in self.stage_busy_s)
        return tuple(min(b / self.makespan_s, 1.0) for b in self.stage_busy_s)

    @property
    def bubble_fraction(self) -> float:
        """Mean idle fraction across stages — pipeline imbalance measure."""
        util = self.stage_utilization
        return 1.0 - float(np.mean(util)) if util else 0.0

    @property
    def duration_s(self) -> float:
        """Simulated wall-clock (the Summary-protocol duration)."""
        return self.makespan_s

    @property
    def joules_per_token(self) -> float:
        """Energy efficiency headline (J per output token)."""
        if self.energy_j is None or self.total_tokens <= 0:
            return 0.0
        return self.energy_j / self.total_tokens

    @property
    def usd_per_mtoken(self) -> float:
        """Dollar efficiency headline ($ per million output tokens)."""
        if self.cost_usd is None or self.total_tokens <= 0:
            return 0.0
        return self.cost_usd / (self.total_tokens / 1e6)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict via :mod:`repro.serialization` (round-trip)."""
        from ..serialization import sim_result_to_dict

        return sim_result_to_dict(self)


def attach_energy(
    result: PipelineSimResult,
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
) -> PipelineSimResult:
    """Stamp joules and dollars onto a finished simulation result.

    A pure post-pass over fields every backend already agrees on
    bit-for-bit (makespan, phase spans, per-stage busy times), so the
    stamped totals are bit-identical across event, fast and batched
    engines by construction.
    """
    from ..costmodel.energy import plan_cost, plan_energy

    energy = plan_energy(
        plan,
        cluster,
        spec,
        workload,
        result.makespan_s,
        result.prefill_span_s,
        result.decode_span_s,
        result.stage_busy_s,
    )
    cost = plan_cost(plan, cluster, result.makespan_s, energy)
    return replace(result, energy_j=energy, cost_usd=cost)


def check_plan_memory(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
) -> Tuple[int, ...]:
    """Per-stage predicted peak bytes; raises OutOfMemoryError on misfit."""
    mem_model = MemoryCostModel(
        spec=spec,
        batch=workload.batch,
        context=workload.context_len,
        bit_kv=plan.bit_kv,
        # Peak prefill activations cover one actual chunk, not the
        # configured cap (keep consistent with the planner's capacity).
        chunk_tokens=workload.chunk_len,
    )
    capacities = stage_capacity_bytes(
        cluster, [st.device_ids for st in plan.stages]
    )
    usages: List[int] = []
    for j, (st, capacity) in enumerate(zip(plan.stages, capacities)):
        need = sum(mem_model.layer_bytes(b) for b in st.layer_bits)
        need += stage_resident_bytes(
            spec,
            j,
            len(plan.stages),
            plan.prefill_microbatch,
            min(workload.chunk_len, workload.context_len),
        )
        if need > capacity:
            raise OutOfMemoryError(
                f"stage{j}({st.gpu_name})", need, capacity
            )
        usages.append(need)
    return tuple(usages)


def uniform_view(
    workload: Union[BatchWorkload, VariableBatchWorkload],
) -> BatchWorkload:
    """The padded uniform batch a workload occupies.

    Memory, prefill and energy all follow this worst-case view: a
    variable batch reserves KV for its longest request and pays the same
    prefill wavefront as a uniform batch of that horizon.
    """
    if isinstance(workload, BatchWorkload):
        return workload
    return BatchWorkload(
        batch=workload.batch,
        prompt_len=workload.prompt_len,
        output_len=workload.max_output,
        chunk_tokens=workload.chunk_tokens,
    )


def simulate_plan(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: Union[BatchWorkload, VariableBatchWorkload],
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
) -> PipelineSimResult:
    """Simulate serving ``workload`` under ``plan`` on ``cluster``.

    ``workload`` is a uniform :class:`BatchWorkload` or a
    :class:`VariableBatchWorkload` whose requests retire as they finish,
    so decode micro-batches shrink over time and short requests stop
    paying for long ones (the variable-output-length scenario the
    paper's latency model only sketches, Sec. IV-C).

    The closed-form recurrence (:mod:`repro.pipeline.fastsim`) runs
    whenever it is exact: a uniform batch, or all output lengths equal.
    A batch with retiring requests runs the discrete-event engine
    (:func:`simulate_plan_reference`) and records why on the result's
    ``backend_reason``.  Both engines give bit-equal results where both
    apply; the result's ``sim_backend`` records which one ran.
    """
    from .fastsim import _fast_simulate_plan, fast_eligibility_variable

    reason = (
        None
        if isinstance(workload, BatchWorkload)
        else fast_eligibility_variable(workload)
    )
    engine = _fast_simulate_plan if reason is None else _event_simulate_plan
    return _run(
        engine, plan, cluster, spec, workload, timing, check_memory, reason
    )


def simulate_plan_reference(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: Union[BatchWorkload, VariableBatchWorkload],
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
) -> PipelineSimResult:
    """The discrete-event oracle :func:`simulate_plan` must agree with.

    One heap event per (micro-batch, stage, step) job, with per-job
    labels (``P{m}.{c}`` prefill, ``D{m}.{t}`` decode) that
    :func:`~repro.pipeline.trace.trace_plan` records.  The planner's
    verify step, the timeline tracer, the differential tests and the
    simulator benchmark's event side call it directly.
    """
    return _run(
        _event_simulate_plan, plan, cluster, spec, workload, timing,
        check_memory, None,
    )


def _run(
    engine: Callable[..., PipelineSimResult],
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: Union[BatchWorkload, VariableBatchWorkload],
    timing: Optional[TimingSource],
    check_memory: bool,
    reason: Optional[str],
) -> PipelineSimResult:
    """One ``sim.run`` span around ``engine``, plus energy and metrics."""
    uniform = uniform_view(workload)
    with trace.span(
        "sim.run",
        stages=plan.num_stages,
        batch=workload.batch,
        output_len=uniform.output_len,
    ) as sp:
        result = engine(plan, cluster, spec, workload, timing, check_memory)
        if reason is not None:
            result = replace(result, backend_reason=reason)
        result = attach_energy(result, plan, cluster, spec, uniform)
        sp.set(events=result.events_processed)
        if trace.enabled:
            metrics.counter("sim.runs").inc()
            metrics.counter(f"sim.backend_{result.sim_backend}").inc()
            metrics.counter("sim.events").inc(result.events_processed)
            metrics.histogram(
                "sim.bubble_fraction", DEFAULT_FRACTION_BUCKETS
            ).observe(result.bubble_fraction)
        return result


def _active_counts(lens: Sequence[int], horizon: int) -> List[int]:
    """``active[t]``: how many of ``lens`` still generate at step ``t``."""
    ends = [0] * (horizon + 1)
    for n in lens:
        ends[n] += 1
    active: List[int] = []
    alive = len(lens)
    for retired in ends:
        alive -= retired
        active.append(alive)
    return active


def _event_simulate_plan(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: Union[BatchWorkload, VariableBatchWorkload],
    timing: Optional[TimingSource],
    check_memory: bool,
) -> PipelineSimResult:
    topo = PipelineTopology.build(plan, cluster, spec, timing)
    n_stages = topo.num_stages
    uniform = uniform_view(workload)

    stage_mem = (
        check_plan_memory(plan, cluster, spec, uniform)
        if check_memory
        else tuple(0 for _ in plan.stages)
    )

    loop = EventLoop()
    servers = topo.make_servers(loop)

    # ------------------------------------------------------------------
    # Prefill phase: mu_pre micro-batches x kappa chunks, chained FIFO.
    # ------------------------------------------------------------------
    pre_sizes = microbatch_sizes(uniform.batch, plan.prefill_microbatch)
    chunk = uniform.chunk_len
    pre_time: Dict[Tuple[int, int], float] = {}
    for size in set(pre_sizes):
        for j in range(n_stages):
            pre_time[(j, size)] = topo.prefill_time(j, size, chunk)
    pre_comm: Dict[Tuple[int, int], float] = {}
    for size in set(pre_sizes):
        for j in range(n_stages - 1):
            pre_comm[(j, size)] = topo.prefill_comm(j, size, chunk)

    prefill_done_at: List[float] = [0.0] * len(pre_sizes)
    pending = {"prefill": len(pre_sizes) * uniform.kappa}
    # Hot-loop hoists: bind the per-stage submit methods and the last
    # stage index once so each event pays local loads, not repeated
    # attribute/global lookups (behavior is bit-identical).
    submit_at = [s.submit for s in servers]
    last_stage = n_stages - 1

    def submit_prefill(j: int, m: int, c: int, size: int, ready: float) -> None:
        def done(finish: float) -> None:
            if j < last_stage:
                arrival = finish + pre_comm[(j, size)]
                submit_prefill(j + 1, m, c, size, arrival)
            else:
                prefill_done_at[m] = max(prefill_done_at[m], finish)
                pending["prefill"] -= 1

        submit_at[j](
            pre_time[(j, size)], done, not_before=ready, label=f"P{m}.{c}"
        )

    with trace.span(
        "sim.prefill", microbatches=len(pre_sizes), chunks=uniform.kappa
    ) as sp:
        for m, size in enumerate(pre_sizes):
            for c in range(uniform.kappa):
                submit_prefill(0, m, c, size, 0.0)
        loop.run()
        sp.set(events=loop.processed)
    if pending["prefill"] != 0:
        raise RuntimeError("prefill simulation did not drain")
    prefill_span = max(prefill_done_at) if prefill_done_at else 0.0

    # ------------------------------------------------------------------
    # Decode phase: token-by-token with autoregressive feedback.  A
    # request retires after its last token, so a micro-batch's size at
    # step ``t`` is its count of requests still generating.
    # ------------------------------------------------------------------
    n_out = uniform.output_len
    decode_steps = n_out - 1
    decode_span = 0.0
    if decode_steps > 0:
        xi = plan.decode_microbatch
        lens = (
            (n_out,) * uniform.batch
            if isinstance(workload, BatchWorkload)
            else workload.output_lens
        )
        active = [
            _active_counts(lens[s : s + xi], n_out)
            for s in range(0, uniform.batch, xi)
        ]
        sizes = {a for counts in active for a in counts if a > 0}
        # Hoist the per-event ``float(ndarray[i])`` conversion: plain
        # Python lists carry the exact same float64 values.
        dec_series: Dict[Tuple[int, int], List[float]] = {}
        for size in sizes:
            for j in range(n_stages):
                dec_series[(j, size)] = topo.decode_series(
                    j, size, uniform.prompt_len, n_out
                )
        dec_comm: Dict[Tuple[int, int], float] = {}
        for size in sizes:
            for j in range(n_stages - 1):
                dec_comm[(j, size)] = topo.decode_comm(j, size)
        fb_delay = {size: topo.feedback_delay(size) for size in sizes}

        last_token_done = [prefill_span] * len(active)
        remaining = {"jobs": 0}

        def submit_decode(j: int, m: int, t: int, size: int, ready: float) -> None:
            dur = dec_series[(j, size)][t - 1]

            def done(finish: float) -> None:
                if j < last_stage:
                    submit_decode(j + 1, m, t, size, finish + dec_comm[(j, size)])
                    return
                nxt = active[m][t + 1]
                if nxt > 0:
                    submit_decode(0, m, t + 1, nxt, finish + fb_delay[nxt])
                else:
                    last_token_done[m] = finish
                    remaining["jobs"] -= 1

            submit_at[j](dur, done, not_before=ready, label=f"D{m}.{t}")

        events_before = loop.processed
        with trace.span(
            "sim.decode", microbatches=len(active), steps=decode_steps
        ) as sp:
            for m, counts in enumerate(active):
                if counts[1] > 0:
                    remaining["jobs"] += 1
                    submit_decode(0, m, 1, counts[1], prefill_span)
            loop.run()
            sp.set(events=loop.processed - events_before)
        if remaining["jobs"] != 0:
            raise RuntimeError("decode simulation did not drain")
        decode_span = max(last_token_done) - prefill_span

    return PipelineSimResult(
        makespan_s=prefill_span + decode_span,
        prefill_span_s=prefill_span,
        decode_span_s=decode_span,
        total_tokens=workload.total_output_tokens,
        stage_busy_s=tuple(s.busy_time for s in servers),
        stage_memory_bytes=stage_mem,
        events_processed=loop.processed,
    )


@dataclass(frozen=True)
class DegradedSimResult:
    """Outcome of simulating a batch through a plan *with faults*.

    Mirrors the fault-tolerant runtime's recovery semantics in discrete
    event time so planned-vs-executed degradation can be cross-validated:
    each fault splits the run into segments (the partial attempt lost to
    the fault, then the replayed attempt on the degraded plan), and the
    makespan is the sum of segment spans plus detection overheads.
    """

    makespan_s: float
    total_tokens: int
    #: Recovery attempts (replan or rebuild), as the runtime counts them.
    replans: int
    #: Plan per attempt, initial plan first — comparable 1:1 against
    #: :attr:`repro.runtime.engine.PipelineEngine.plan_history`.
    plans: Tuple[ExecutionPlan, ...]
    #: Per-segment simulation results (lost attempts, then the final one).
    segments: Tuple[PipelineSimResult, ...]
    fault_events: Tuple[FaultEvent, ...]

    @property
    def throughput_tokens_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens / self.makespan_s

    @property
    def degradation_overhead_s(self) -> float:
        """Extra wall-clock versus running the final plan fault-free."""
        return self.makespan_s - self.segments[-1].makespan_s

    @property
    def duration_s(self) -> float:
        """Simulated wall-clock (the Summary-protocol duration)."""
        return self.makespan_s

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict via :mod:`repro.serialization` (round-trip)."""
        from ..serialization import degraded_result_to_dict

        return degraded_result_to_dict(self)


def _surviving_devices(
    plan: ExecutionPlan, dead: Tuple[int, ...]
) -> Tuple[int, ...]:
    """Device ids of ``plan`` minus ``dead`` — identical expression to the
    runtime engine's, so plan sequences line up bit-for-bit."""
    dead_set = set(dead)
    return tuple(
        d
        for st in plan.stages
        for d in st.device_ids
        if d not in dead_set
    )


def simulate_degraded(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    fault_plan: "FaultPlan",
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
    detection_overhead_s: float = 0.0,
    replan: Optional[
        Callable[[ExecutionPlan, Tuple[int, ...]], ExecutionPlan]
    ] = None,
) -> DegradedSimResult:
    """Simulate serving under an injected :class:`FaultPlan`.

    The mirror of :meth:`repro.runtime.engine.PipelineEngine.generate`'s
    recovery loop: ``kill`` faults cost the partial attempt up to the last
    committed token, a detection overhead, then a full replayed attempt on
    the degraded plan (the runtime re-prefills and replays the committed
    prefix, so the recovered attempt is a from-scratch run); ``drop``
    faults rebuild the same plan; ``slow`` faults are absorbed as a pure
    delay.  Raises :class:`repro.plan.InfeasibleError` (via ``replan``)
    when no degraded plan fits — exactly when the runtime would.

    The partial span of a fault hitting prefill is approximated by a full
    prefill pass (conservative: the wavefront is mostly through by the
    time a late stage dies).
    """
    if not (
        math.isfinite(detection_overhead_s) and detection_overhead_s >= 0
    ):
        raise ValueError(
            f"detection_overhead_s must be finite and non-negative, got "
            f"{detection_overhead_s!r}"
        )
    if replan is None:
        from ..core.planner import degrade_execution_plan_internal

        def replan(
            cur: ExecutionPlan, surviving: Tuple[int, ...]
        ) -> ExecutionPlan:
            return degrade_execution_plan_internal(
                cur, surviving, cluster, spec, workload
            )

    with trace.span(
        "sim.degraded", faults=len(tuple(fault_plan.in_order()))
    ) as sp:
        result = _simulate_degraded(
            plan, cluster, spec, workload, fault_plan, timing,
            check_memory, detection_overhead_s, replan,
        )
        sp.set(replans=result.replans)
        if trace.enabled:
            metrics.counter("sim.degraded_runs").inc()
            metrics.counter("sim.replans").inc(result.replans)
        return result


def _simulate_degraded(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    fault_plan: "FaultPlan",
    timing: Optional[TimingSource],
    check_memory: bool,
    detection_overhead_s: float,
    replan: Callable[[ExecutionPlan, Tuple[int, ...]], ExecutionPlan],
) -> DegradedSimResult:
    current = plan
    plans: List[ExecutionPlan] = [plan]
    segments: List[PipelineSimResult] = []
    events: List[FaultEvent] = []
    t_acc = 0.0
    replans = 0
    for fs in fault_plan.in_order():
        if fs.kind == "slow":
            # Absorbed by recv retry/backoff: a pure serial delay.
            t_acc += fs.delay_s
            events.append(
                FaultEvent(
                    time_s=t_acc,
                    kind="slow",
                    stage=fs.stage,
                    phase=fs.phase,
                    step=fs.step,
                    action="absorb",
                    detail=f"delay {fs.delay_s:.3g}s",
                )
            )
            with trace.span(
                "sim.fault", kind="slow", stage=fs.stage,
                phase=fs.phase, step=fs.step, action="absorb",
            ):
                pass  # marker: the delay is pure simulated time
            continue
        if fs.stage >= current.num_stages:
            continue  # the degraded pipeline no longer has this stage
        if fs.phase == "decode" and fs.step >= workload.output_len:
            continue  # beyond the generation horizon: never fires
        with trace.span(
            "sim.fault", kind=fs.kind, stage=fs.stage,
            phase=fs.phase, step=fs.step,
            action="replan" if fs.kind == "kill" else "rebuild",
        ):
            committed = 0 if fs.phase == "prefill" else fs.step
            lost_wl = replace(workload, output_len=max(committed, 1))
            lost = simulate_plan(
                current, cluster, spec, lost_wl,
                timing=timing, check_memory=False,
            )
            segments.append(lost)
            t_acc += lost.makespan_s + detection_overhead_s
            if fs.kind == "kill":
                dead = current.stages[fs.stage].device_ids
                events.append(
                    FaultEvent(
                        time_s=t_acc,
                        kind="kill",
                        stage=fs.stage,
                        phase=fs.phase,
                        step=fs.step,
                        action="replan",
                        detail=f"devices {dead} removed",
                    )
                )
                current = replan(current, _surviving_devices(current, dead))
            else:  # drop: same devices, fresh pipeline + replay
                events.append(
                    FaultEvent(
                        time_s=t_acc,
                        kind="drop",
                        stage=fs.stage,
                        phase=fs.phase,
                        step=fs.step,
                        action="rebuild",
                    )
                )
            replans += 1
            plans.append(current)

    final = simulate_plan(
        current, cluster, spec, workload,
        timing=timing, check_memory=check_memory,
    )
    segments.append(final)
    return DegradedSimResult(
        makespan_s=t_acc + final.makespan_s,
        total_tokens=workload.total_output_tokens,
        replans=replans,
        plans=tuple(plans),
        segments=tuple(segments),
        fault_events=tuple(events),
    )

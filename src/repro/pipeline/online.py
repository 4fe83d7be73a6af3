"""Online serving simulation: arrivals, continuous batching, admission.

The online driver runs the *same* event core as the offline simulator —
:class:`~repro.pipeline.events.EventLoop` FIFO servers parameterized by
:class:`~repro.pipeline.topology.PipelineTopology` — but feeds it a
stream of requests instead of one closed batch:

* Requests enter a FIFO queue as they arrive.
* The scheduler greedily drains admissible requests into *groups*; each
  group is chunk-prefilled as padded micro-batches and then decoded with
  per-request retirement, exactly like the offline drivers.
* Groups overlap on the stage servers: a new group's prefill micro-
  batches slot in between an older group's decode steps (continuous
  micro-batch refill), with decode submissions keeping priority at each
  refill point.
* Admission is KV-aware: each request reserves its per-stage KV cache
  under the paging budget of :mod:`repro.costmodel.memory` at admission
  and releases it at completion.  Requests can also be rejected on queue
  overflow or an expired TTFT SLO.

Two backends share this scheduler, selected by ``sim_backend``:

* ``"event"`` — the per-job discrete-event oracle (one heap event per
  (micro-batch, stage, step) job).
* ``"fast"`` — the epoch-vectorized driver in
  :mod:`repro.pipeline.online_fast`: between scheduler decision points
  the submitted work per stage is deterministic FIFO, so whole prefill
  waves and decode rounds advance with the same max-plus recurrence as
  :mod:`repro.pipeline.fastsim`, replaying the identical float
  operations.  Results are bit-equal to the event backend.
* ``"auto"`` (default) — dispatch through
  :func:`~repro.pipeline.online_fast.fast_online_eligibility`, with the
  decline reason (if any) recorded as
  :attr:`OnlineSimResult.backend_reason`.

The contract with the offline path is differential: with every arrival
at t=0, admission disabled, and one unbounded group, the event sequence
replays the offline ``simulate_plan`` run *bit-identically* (makespan,
spans, busy times, memory tuple, and event count) — enforced by
``tests/test_online_sim.py``; the fast/event equivalence across the
full online grid (overload, shedding, ragged tails) is enforced by
``tests/test_online_fast.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..costmodel.memory import (
    activation_workspace_bytes,
    embedding_memory_bytes,
)
from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..models import layers as L
from ..obs import metrics, trace
from ..plan import ExecutionPlan
from ..simgpu.memory import OutOfMemoryError
from ..workloads.arrivals import ArrivalTrace, Request
from ..workloads.spec import BatchWorkload
from .events import EventLoop
from .fastsim import _bounded_put, _timing_token
from .simulator import _check_backend, check_plan_memory
from .stage import RooflineTiming, TimingSource
from .topology import PipelineTopology, microbatch_sizes

__all__ = [
    "ADMISSION_POLICIES",
    "OnlineConfig",
    "OnlineSimResult",
    "OnlineTables",
    "clear_online_caches",
    "online_tables",
    "simulate_online",
]

#: Accepted admission policies: ``"kv"`` reserves per-request KV cache
#: against each stage's memory budget; ``"none"`` admits everything
#: (the offline-equivalent mode — memory is then pre-checked worst-case).
ADMISSION_POLICIES = ("kv", "none")


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the online serving simulation."""

    #: Prefill chunking cap, like ``BatchWorkload.chunk_tokens``.
    chunk_tokens: int = 2048
    #: Admission policy (see :data:`ADMISSION_POLICIES`).
    admission: str = "kv"
    #: Cap on requests per continuous-batching group (None = unbounded).
    max_group_size: Optional[int] = None
    #: Queue overflow limit; arrivals beyond it are rejected (None = ∞).
    max_queue: Optional[int] = None
    #: Reject still-queued requests whose wait already exceeds this TTFT
    #: SLO at the next scheduling point (None = no SLO admission).
    ttft_slo_s: Optional[float] = None
    #: Stop admitting arrivals after this time; they count as unserved.
    horizon_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission {self.admission!r} "
                f"(expected one of {ADMISSION_POLICIES})"
            )
        if self.chunk_tokens <= 0:
            raise ValueError("chunk_tokens must be positive")
        if self.max_group_size is not None and self.max_group_size <= 0:
            raise ValueError("max_group_size must be positive")
        if self.max_queue is not None and self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        # NaN passes ``x <= 0``, so test finiteness explicitly.
        if self.ttft_slo_s is not None and not (
            math.isfinite(self.ttft_slo_s) and self.ttft_slo_s > 0
        ):
            raise ValueError(
                f"ttft_slo_s must be finite and positive, "
                f"got {self.ttft_slo_s!r}"
            )
        if self.horizon_s is not None and not (
            math.isfinite(self.horizon_s) and self.horizon_s >= 0
        ):
            raise ValueError(
                f"horizon_s must be finite and non-negative, "
                f"got {self.horizon_s!r}"
            )


def _percentile(values: Tuple[float, ...], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass(frozen=True)
class OnlineSimResult:
    """Outcome of one online serving simulation (Summary-compliant)."""

    makespan_s: float
    prefill_span_s: float
    decode_span_s: float
    total_tokens: int
    stage_busy_s: Tuple[float, ...]
    stage_memory_bytes: Tuple[int, ...]
    events_processed: int
    arrived: int
    admitted: int
    completed: int
    rejected_queue: int
    rejected_slo: int
    rejected_oom: int
    unserved: int
    groups_formed: int
    #: Per completed request (ascending ``req_id``): first-token latency,
    #: per-output-token time, and end-to-end latency.
    ttft_s: Tuple[float, ...]
    tpot_s: Tuple[float, ...]
    latency_s: Tuple[float, ...]
    #: Time-integral of the in-system request count (request-seconds),
    #: accumulated event-by-event — the independent side of the
    #: Little's-law consistency property.
    area_request_s: float
    #: SLO echoed from the config so attainment is self-contained.
    ttft_slo_s: Optional[float] = None
    #: Provenance only (excluded from equality), like the offline result.
    sim_backend: str = field(default="event", compare=False)
    backend_reason: Optional[str] = field(default=None, compare=False)
    #: Joules / dollars for the run, computed by the same pure post-pass
    #: as the offline result (worst-case reference shapes), so the
    #: degenerate online run matches offline energy bit-for-bit.
    energy_j: Optional[float] = None
    cost_usd: Optional[float] = None

    @property
    def rejected(self) -> int:
        return self.rejected_queue + self.rejected_slo + self.rejected_oom

    @property
    def throughput_tokens_s(self) -> float:
        """Output token throughput — the Summary-protocol headline."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens / self.makespan_s

    @property
    def duration_s(self) -> float:
        """Simulated wall-clock (the Summary-protocol duration)."""
        return self.makespan_s

    @property
    def stage_utilization(self) -> Tuple[float, ...]:
        if self.makespan_s <= 0:
            return tuple(0.0 for _ in self.stage_busy_s)
        return tuple(min(b / self.makespan_s, 1.0) for b in self.stage_busy_s)

    @property
    def bubble_fraction(self) -> float:
        util = self.stage_utilization
        return 1.0 - float(np.mean(util)) if util else 0.0

    @property
    def mean_concurrency(self) -> float:
        """Little's-law L: time-averaged requests in system."""
        if self.makespan_s <= 0:
            return 0.0
        return self.area_request_s / self.makespan_s

    def ttft_percentile(self, q: float) -> float:
        return _percentile(self.ttft_s, q)

    def tpot_percentile(self, q: float) -> float:
        return _percentile(self.tpot_s, q)

    def latency_percentile(self, q: float) -> float:
        return _percentile(self.latency_s, q)

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

    @property
    def ttft_slo_attainment(self) -> Optional[float]:
        """Fraction of completed requests whose TTFT met the SLO."""
        if self.ttft_slo_s is None or not self.ttft_s:
            return None
        met = sum(1 for t in self.ttft_s if t <= self.ttft_slo_s)
        return met / len(self.ttft_s)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict via :mod:`repro.serialization` (round-trip)."""
        from ..serialization import online_result_to_dict

        return online_result_to_dict(self)


class _Group:
    """One continuous-batching group in flight."""

    __slots__ = (
        "gid", "requests", "pad", "kappa", "chunk_len", "max_output",
        "pending_prefill", "prefill_end",
    )

    def __init__(self, gid: int, requests: List[Request], chunk_tokens: int):
        self.gid = gid
        self.requests = requests
        self.pad = max(r.prompt_len for r in requests)
        self.kappa = -(-self.pad // chunk_tokens)
        self.chunk_len = -(-self.pad // self.kappa)
        self.max_output = max(r.output_len for r in requests)
        self.pending_prefill = 0
        self.prefill_end = 0.0


def _chunk_len_of(prompt_len: int, chunk_tokens: int) -> int:
    kappa = -(-prompt_len // chunk_tokens)
    return -(-prompt_len // kappa)


# ---------------------------------------------------------------------------
# Memoized duration tables, shared by both backends.
# ---------------------------------------------------------------------------


class OnlineTables:
    """Memoized online duration lookups over one pipeline topology.

    Every quantity the online drivers need — per-stage prefill chunk
    times, link delays, decode step series keyed by (group size, padded
    prompt, max output), and the last-to-first feedback delay — is a
    pure function of the topology, so one bundle per
    ``(plan, cluster, spec, timing)`` serves every run, every refill
    point, and both backends; repeat traces (benchmarks, fleets,
    differential tests) pay each lookup once.

    A miss fills through the topology, which times stages with the
    per-distinct-bitwidth kernel over its own
    :class:`~repro.pipeline.stage.MemoizedTiming`: one timing-source
    call per distinct ``(phase, gpu, bits, batch, seq, tp)`` per bundle.
    Dropping the bundle (:func:`clear_online_caches`) drops that memo.
    """

    __slots__ = (
        "topo", "_pre_time", "_pre_comm", "_dec_series", "_dec_comm",
        "_feedback",
    )

    def __init__(self, topo: PipelineTopology):
        self.topo = topo
        self._pre_time: Dict[Tuple[int, int, int], float] = {}
        self._pre_comm: Dict[Tuple[int, int, int], float] = {}
        self._dec_series: Dict[Tuple[int, int, int, int], List[float]] = {}
        self._dec_comm: Dict[Tuple[int, int], float] = {}
        self._feedback: Dict[int, float] = {}

    def pre_time(self, j: int, size: int, chunk_len: int) -> float:
        key = (j, size, chunk_len)
        t = self._pre_time.get(key)
        if t is None:
            t = self._pre_time[key] = self.topo.prefill_time(
                j, size, chunk_len
            )
        return t

    def pre_comm(self, j: int, size: int, chunk_len: int) -> float:
        key = (j, size, chunk_len)
        t = self._pre_comm.get(key)
        if t is None:
            t = self._pre_comm[key] = self.topo.prefill_comm(
                j, size, chunk_len
            )
        return t

    def dec_series(
        self, j: int, size: int, pad: int, max_n: int
    ) -> List[float]:
        key = (j, size, pad, max_n)
        series = self._dec_series.get(key)
        if series is None:
            series = self._dec_series[key] = self.topo.decode_series(
                j, size, pad, max_n
            )
        return series

    def dec_step(
        self, j: int, size: int, pad: int, max_n: int, t: int
    ) -> float:
        return self.dec_series(j, size, pad, max_n)[t - 1]

    def dec_comm(self, j: int, size: int) -> float:
        key = (j, size)
        t = self._dec_comm.get(key)
        if t is None:
            t = self._dec_comm[key] = self.topo.decode_comm(j, size)
        return t

    def feedback(self, size: int) -> float:
        t = self._feedback.get(size)
        if t is None:
            t = self._feedback[size] = self.topo.feedback_delay(size)
        return t


_ONLINE_TABLE_CACHE: Dict[Any, Tuple[TimingSource, OnlineTables]] = {}
_ONLINE_TABLE_CACHE_MAX = 64


def online_tables(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    timing: TimingSource,
) -> OnlineTables:
    """The memoized :class:`OnlineTables` for this configuration.

    Value-hashable timings (the frozen dataclasses, including the
    default roofline) key by value, so repeat runs with the same plan
    hit the same bundle across simulator calls.
    """
    key = (plan, cluster, spec, _timing_token(timing))
    hit = _ONLINE_TABLE_CACHE.get(key)
    if hit is not None:
        return hit[1]
    topo = PipelineTopology.build(plan, cluster, spec, timing)
    tables = OnlineTables(topo)
    _bounded_put(
        _ONLINE_TABLE_CACHE, _ONLINE_TABLE_CACHE_MAX, key, (timing, tables)
    )
    return tables


def clear_online_caches() -> None:
    """Drop the online duration-table memo (benchmarks use this)."""
    _ONLINE_TABLE_CACHE.clear()


# ---------------------------------------------------------------------------
# Shared per-run context and scheduler state.
# ---------------------------------------------------------------------------


class _OnlineContext:
    """Immutable inputs of one online run, shared by both backends.

    Bundles the topology/duration tables, the static per-stage memory
    residency, and the admission pre-checks so the event and fast
    drivers build their worlds from the same bytes.
    """

    __slots__ = (
        "plan", "cluster", "spec", "config", "tables", "topo", "n_stages",
        "last_stage", "capacities", "layers_per_stage", "max_output",
        "ref_chunk", "static", "stage_mem0",
    )

    def __init__(
        self,
        plan: ExecutionPlan,
        cluster: ClusterSpec,
        spec: ModelSpec,
        arrivals: ArrivalTrace,
        config: OnlineConfig,
        timing: Optional[TimingSource],
        check_memory: bool,
    ):
        self.plan = plan
        self.cluster = cluster
        self.spec = spec
        self.config = config
        if timing is None:
            timing = RooflineTiming(spec=spec, bit_kv=plan.bit_kv)
        self.tables = online_tables(plan, cluster, spec, timing)
        self.topo = self.tables.topo
        self.n_stages = self.topo.num_stages
        self.last_stage = self.n_stages - 1
        self.capacities = self.topo.stage_capacities()
        self.layers_per_stage = [len(st.layer_bits) for st in plan.stages]

        self.max_output = max(r.output_len for r in arrivals.requests)
        self.ref_chunk = max(
            _chunk_len_of(r.prompt_len, config.chunk_tokens)
            for r in arrivals.requests
        )

        # Static per-stage residency: weights + activation workspace (+
        # the embeddings / LM head placement of check_plan_memory).  KV
        # is the dynamic part the admission controller meters on top.
        static: List[int] = []
        for j, st in enumerate(plan.stages):
            b = sum(
                L.weight_storage_bytes(spec, bits) for bits in st.layer_bits
            )
            b += activation_workspace_bytes(
                spec, plan.prefill_microbatch, self.ref_chunk
            )
            if j == 0:
                b += embedding_memory_bytes(spec, plan.prefill_microbatch)
            if j == self.last_stage and j != 0:
                b += spec.lm_head_elements * L.FP16_BYTES
            static.append(b)
        self.static = static

        self.stage_mem0: Optional[Tuple[int, ...]] = None
        if config.admission == "none":
            if check_memory:
                # All-resident worst case — the exact offline pre-check,
                # so the degenerate configuration raises (or not)
                # identically.
                worst = BatchWorkload(
                    batch=arrivals.n_requests,
                    prompt_len=arrivals.max_prompt,
                    output_len=self.max_output,
                    chunk_tokens=config.chunk_tokens,
                )
                self.stage_mem0 = check_plan_memory(
                    plan, cluster, spec, worst
                )
            else:
                self.stage_mem0 = tuple(0 for _ in plan.stages)
        elif check_memory:
            for j, st in enumerate(plan.stages):
                if static[j] > self.capacities[j]:
                    raise OutOfMemoryError(
                        f"stage{j}({st.gpu_name})",
                        static[j],
                        self.capacities[j],
                    )


class _OnlineState:
    """Queue / KV / SLO bookkeeping, shared verbatim by both backends.

    Every scheduler decision — admission, SLO shedding, group formation,
    KV reservation, Little's-law accumulation — happens only at driver
    events, through these methods, in the same order with the same float
    operations.  The driver plugs in ``launch`` (called by
    :meth:`try_schedule` with an admitted group) and owns everything
    between decision points.
    """

    __slots__ = (
        "ctx", "queue", "kv_used", "kv_peak", "counts", "first_token_t",
        "completion_t", "prefill_end_max", "completion_max", "area_value",
        "area_n", "area_last", "_kv_req_cache", "launch",
    )

    def __init__(self, ctx: _OnlineContext):
        self.ctx = ctx
        self.queue: Deque[Request] = deque()
        self.kv_used = [0] * ctx.n_stages
        self.kv_peak = [0] * ctx.n_stages
        self.counts = {
            "arrived": 0, "admitted": 0, "completed": 0,
            "rejected_queue": 0, "rejected_slo": 0, "rejected_oom": 0,
            "unserved": 0, "groups": 0, "tokens": 0,
        }
        self.first_token_t: Dict[int, float] = {}
        self.completion_t: Dict[int, float] = {}
        self.prefill_end_max = 0.0
        self.completion_max = 0.0
        # Little's-law area: integrate the in-system count event-by-event.
        self.area_value = 0.0
        self.area_n = 0
        self.area_last = 0.0
        self._kv_req_cache: Dict[int, Tuple[int, ...]] = {}
        self.launch = None  # set by the driver: fn(requests, now)

    def area_advance(self, now: float) -> None:
        self.area_value += self.area_n * (now - self.area_last)
        self.area_last = now

    def kv_req(self, context_len: int) -> Tuple[int, ...]:
        got = self._kv_req_cache.get(context_len)
        if got is None:
            ctx = self.ctx
            got = self._kv_req_cache[context_len] = tuple(
                ctx.layers_per_stage[j]
                * L.kv_cache_bytes(ctx.spec, 1, context_len, ctx.plan.bit_kv)
                for j in range(ctx.n_stages)
            )
        return got

    # ---- request lifecycle --------------------------------------------
    def reject(self, req: Request, now: float, kind: str) -> None:
        self.area_advance(now)
        self.area_n -= 1
        self.counts[f"rejected_{kind}"] += 1

    def enqueue(self, req: Request, now: float) -> None:
        config = self.ctx.config
        self.counts["arrived"] += 1
        if config.horizon_s is not None and req.arrival_s > config.horizon_s:
            self.counts["unserved"] += 1
            return
        self.area_advance(now)
        self.area_n += 1
        if (
            config.max_queue is not None
            and len(self.queue) >= config.max_queue
        ):
            self.reject(req, now, "queue")
            return
        self.queue.append(req)

    def complete(self, req: Request, now: float) -> None:
        self.area_advance(now)
        self.area_n -= 1
        self.counts["completed"] += 1
        self.counts["tokens"] += req.output_len
        self.completion_t[req.req_id] = now
        if now > self.completion_max:
            self.completion_max = now
        if self.ctx.config.admission == "kv":
            need = self.kv_req(req.context_len)
            for j in range(self.ctx.n_stages):
                self.kv_used[j] -= need[j]

    def barrier(self, requests: List[Request], end: float) -> None:
        """First-token bookkeeping at a group's prefill barrier."""
        if end > self.prefill_end_max:
            self.prefill_end_max = end
        if end > self.completion_max:
            self.completion_max = end
        for r in requests:
            self.first_token_t[r.req_id] = end

    # ---- scheduling ----------------------------------------------------
    def try_schedule(self, now: float) -> None:
        ctx = self.ctx
        config = ctx.config
        queue = self.queue
        while queue:
            group: List[Request] = []
            while queue and (
                config.max_group_size is None
                or len(group) < config.max_group_size
            ):
                req = queue[0]
                if (
                    config.ttft_slo_s is not None
                    and now - req.arrival_s > config.ttft_slo_s
                ):
                    queue.popleft()
                    self.reject(req, now, "slo")
                    continue
                if config.admission == "kv":
                    need = self.kv_req(req.context_len)
                    if any(
                        ctx.static[j] + need[j] > ctx.capacities[j]
                        for j in range(ctx.n_stages)
                    ):
                        # Can never fit, even on an idle pipeline.
                        queue.popleft()
                        self.reject(req, now, "oom")
                        continue
                    if any(
                        ctx.static[j] + self.kv_used[j] + need[j]
                        > ctx.capacities[j]
                        for j in range(ctx.n_stages)
                    ):
                        break  # head-of-line block until KV frees up
                    for j in range(ctx.n_stages):
                        self.kv_used[j] += need[j]
                        if self.kv_used[j] > self.kv_peak[j]:
                            self.kv_peak[j] = self.kv_used[j]
                group.append(queue.popleft())
            if not group:
                break
            self.counts["admitted"] += len(group)
            self.counts["groups"] += 1
            self.launch(group, now)


def _finalize(
    ctx: _OnlineContext,
    state: _OnlineState,
    arrivals: ArrivalTrace,
    stage_busy: Tuple[float, ...],
    events_processed: int,
    end_now: float,
    sim_backend: str,
) -> OnlineSimResult:
    """Drain leftovers and assemble the result (both backends)."""
    config = ctx.config
    # Defensive: a future policy could leave the queue blocked at drain;
    # count leftovers as unserved so work conservation stays exact.
    for _req in state.queue:
        state.area_advance(end_now)
        state.area_n -= 1
        state.counts["unserved"] += 1
    state.queue.clear()
    state.area_advance(max(end_now, state.completion_max))

    prefill_span = state.prefill_end_max
    decode_span = (
        state.completion_max - prefill_span
        if state.completion_max > 0
        else 0.0
    )
    makespan = prefill_span + decode_span

    if config.admission == "kv":
        stage_mem = tuple(
            ctx.static[j] + state.kv_peak[j] for j in range(ctx.n_stages)
        )
    else:
        assert ctx.stage_mem0 is not None
        stage_mem = ctx.stage_mem0

    done_ids = sorted(state.completion_t)
    by_id = {r.req_id: r for r in arrivals.requests}
    first_token_t = state.first_token_t
    completion_t = state.completion_t
    ttft = tuple(
        first_token_t[i] - by_id[i].arrival_s for i in done_ids
    )
    tpot = tuple(
        (completion_t[i] - first_token_t[i]) / (by_id[i].output_len - 1)
        if by_id[i].output_len > 1
        else 0.0
        for i in done_ids
    )
    latency = tuple(
        completion_t[i] - by_id[i].arrival_s for i in done_ids
    )

    # Energy/cost post-pass at the worst-case reference shapes — the
    # identical expression the degenerate-equivalence memory check uses,
    # so a one-closed-batch stream reproduces the offline attach exactly.
    from ..costmodel.energy import plan_cost, plan_energy

    energy_ref = BatchWorkload(
        batch=arrivals.n_requests,
        prompt_len=arrivals.max_prompt,
        output_len=ctx.max_output,
        chunk_tokens=config.chunk_tokens,
    )
    energy = plan_energy(
        ctx.plan, ctx.cluster, ctx.spec, energy_ref,
        makespan, prefill_span, decode_span, stage_busy,
    )
    cost = plan_cost(ctx.plan, ctx.cluster, makespan, energy)

    counts = state.counts
    return OnlineSimResult(
        makespan_s=makespan,
        prefill_span_s=prefill_span,
        decode_span_s=decode_span,
        total_tokens=counts["tokens"],
        stage_busy_s=stage_busy,
        stage_memory_bytes=stage_mem,
        events_processed=events_processed,
        arrived=counts["arrived"],
        admitted=counts["admitted"],
        completed=counts["completed"],
        rejected_queue=counts["rejected_queue"],
        rejected_slo=counts["rejected_slo"],
        rejected_oom=counts["rejected_oom"],
        unserved=counts["unserved"],
        groups_formed=counts["groups"],
        ttft_s=ttft,
        tpot_s=tpot,
        latency_s=latency,
        area_request_s=state.area_value,
        ttft_slo_s=config.ttft_slo_s,
        sim_backend=sim_backend,
        energy_j=energy,
        cost_usd=cost,
    )


def _arrival_waves(
    arrivals: ArrivalTrace,
) -> Tuple[List[Request], List[Tuple[float, List[Request]]]]:
    """Split the trace into t<=0 requests and same-instant later waves.

    One wave per *distinct* arrival time, so a same-instant burst is
    offered to the scheduler together (and the event count stays zero
    for the offline-degenerate all-at-t0 configuration).
    """
    initial = [r for r in arrivals.requests if r.arrival_s <= 0.0]
    later = [r for r in arrivals.requests if r.arrival_s > 0.0]
    waves: List[Tuple[float, List[Request]]] = []
    i = 0
    while i < len(later):
        k = i
        t_arr = later[i].arrival_s
        while k < len(later) and later[k].arrival_s == t_arr:
            k += 1
        waves.append((t_arr, later[i:k]))
        i = k
    return initial, waves


def simulate_online(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    arrivals: ArrivalTrace,
    config: Optional[OnlineConfig] = None,
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
    sim_backend: str = "auto",
) -> OnlineSimResult:
    """Simulate serving an arrival stream under ``plan`` on ``cluster``.

    See the module docstring for the scheduling and admission semantics.
    With ``admission="none"`` and ``check_memory`` set, memory is
    pre-checked against the all-resident worst case exactly as the
    offline :func:`~repro.pipeline.simulator.check_plan_memory` would,
    raising :class:`~repro.simgpu.memory.OutOfMemoryError` on misfit.

    ``sim_backend`` selects the engine: ``"event"`` runs the per-job
    discrete-event oracle, ``"fast"`` the epoch-vectorized driver
    (:mod:`repro.pipeline.online_fast`), and ``"auto"`` (default)
    dispatches through the eligibility predicate.  The backends are
    bit-identical; :attr:`OnlineSimResult.sim_backend` records which
    one ran.
    """
    config = config or OnlineConfig()
    _check_backend(sim_backend)
    from .online_fast import _fast_simulate_online, fast_online_eligibility

    reason = fast_online_eligibility(plan, arrivals, config)
    use_fast = sim_backend == "fast" or (
        sim_backend == "auto" and reason is None
    )
    with trace.span(
        "sim.online",
        stages=plan.num_stages,
        requests=arrivals.n_requests,
        admission=config.admission,
        backend="fast" if use_fast else "event",
    ) as sp:
        if use_fast:
            result = _fast_simulate_online(
                plan, cluster, spec, arrivals, config, timing, check_memory
            )
        else:
            result = _simulate_online(
                plan, cluster, spec, arrivals, config, timing, check_memory
            )
            if sim_backend == "auto" and reason is not None:
                result = replace(result, backend_reason=reason)
        sp.set(
            events=result.events_processed,
            completed=result.completed,
            rejected=result.rejected,
            groups=result.groups_formed,
        )
        if trace.enabled:
            metrics.counter("sim.online_runs").inc()
            metrics.counter(
                f"sim.online_backend_{result.sim_backend}"
            ).inc()
            metrics.counter("sim.online_arrived").inc(result.arrived)
            metrics.counter("sim.online_completed").inc(result.completed)
            metrics.counter("sim.online_rejected").inc(result.rejected)
            metrics.counter("sim.online_groups").inc(result.groups_formed)
            metrics.counter("sim.events").inc(result.events_processed)
        return result


def _simulate_online(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    arrivals: ArrivalTrace,
    config: OnlineConfig,
    timing: Optional[TimingSource],
    check_memory: bool,
) -> OnlineSimResult:
    ctx = _OnlineContext(
        plan, cluster, spec, arrivals, config, timing, check_memory
    )
    tables = ctx.tables
    last_stage = ctx.last_stage
    pre_time = tables.pre_time
    pre_comm = tables.pre_comm
    dec_step = tables.dec_step
    dec_comm = tables.dec_comm

    loop = EventLoop()
    servers = ctx.topo.make_servers(loop)
    submit_at = [s.submit for s in servers]

    state = _OnlineState(ctx)
    complete = state.complete
    try_schedule = state.try_schedule

    def launch_group(requests: List[Request], now: float) -> None:
        g = _Group(state.counts["groups"] - 1, requests, config.chunk_tokens)
        pre_sizes = microbatch_sizes(len(requests), plan.prefill_microbatch)
        g.pending_prefill = len(pre_sizes) * g.kappa

        def submit_prefill(j: int, m: int, c: int, size: int,
                           ready: float) -> None:
            def done(finish: float) -> None:
                if j < last_stage:
                    arrival = finish + pre_comm(j, size, g.chunk_len)
                    submit_prefill(j + 1, m, c, size, arrival)
                else:
                    if finish > g.prefill_end:
                        g.prefill_end = finish
                    g.pending_prefill -= 1
                    if g.pending_prefill == 0:
                        on_group_prefill_done(g)

            submit_at[j](
                pre_time(j, size, g.chunk_len), done,
                not_before=ready, label=f"P{g.gid}.{m}.{c}",
            )

        with trace.span(
            "sim.online.group",
            size=len(requests), kappa=g.kappa, start=now,
        ):
            for m, size in enumerate(pre_sizes):
                for c in range(g.kappa):
                    submit_prefill(0, m, c, size, now)

    state.launch = launch_group

    def on_group_prefill_done(g: _Group) -> None:
        # The zeroing event is the group's latest prefill completion, so
        # loop.now == g.prefill_end here (same barrier as offline).
        end = g.prefill_end
        state.barrier(g.requests, end)
        singles = [r for r in g.requests if r.output_len == 1]
        xi = plan.decode_microbatch
        slices = [
            g.requests[s : s + xi]
            for s in range(0, len(g.requests), xi)
        ]
        for m, sl in enumerate(slices):
            size = sum(1 for r in sl if r.output_len > 1)
            if size > 0:
                launch_decode(g, m, sl, size, end)
        for r in singles:
            complete(r, end)
        # Refill point: freed KV (one-token requests) or queued arrivals
        # can now form the next group; decode above keeps priority.
        try_schedule(end)

    def launch_decode(g: _Group, m: int, sl: List[Request],
                      size0: int, ready0: float) -> None:
        def active(t: int) -> int:
            return sum(1 for r in sl if r.output_len > t)

        def submit_dec(j: int, t: int, size: int, ready: float) -> None:
            def done(finish: float) -> None:
                if j < last_stage:
                    submit_dec(j + 1, t, size, finish + dec_comm(j, size))
                    return
                nxt = active(t + 1)
                if nxt > 0:
                    fb = tables.feedback(nxt)
                    submit_dec(0, t + 1, nxt, finish + fb)
                retired = [r for r in sl if r.output_len == t + 1]
                if retired:
                    for r in retired:
                        complete(r, finish)
                    try_schedule(finish)

            submit_at[j](
                dec_step(j, size, g.pad, g.max_output, t), done,
                not_before=ready, label=f"D{g.gid}.{m}.{t}",
            )

        submit_dec(0, 1, size0, ready0)

    # ---- inject arrivals and run ---------------------------------------
    initial, waves = _arrival_waves(arrivals)
    for r in initial:
        state.enqueue(r, 0.0)
    try_schedule(0.0)

    for t_arr, wave in waves:
        def fire(wave: List[Request] = wave, t_arr: float = t_arr) -> None:
            for r in wave:
                state.enqueue(r, t_arr)
            try_schedule(t_arr)

        loop.at(t_arr, fire)

    loop.run()

    stage_busy = tuple(s.busy_time for s in servers)
    return _finalize(
        ctx, state, arrivals, stage_busy, loop.processed, loop.now, "event"
    )

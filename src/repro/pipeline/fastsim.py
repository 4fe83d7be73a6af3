"""Closed-form steady-state fast path for the pipeline simulator.

The discrete-event simulator in :mod:`repro.pipeline.simulator` executes
one heap event per (micro-batch, stage, step) job.  For the uniform
micro-batch schedules the paper's offline serving model produces, that
event ordering is fully determined in advance, so the same finish times
admit a closed-form recurrence — the trick Vidur-class LLM-serving
simulators use to stay fast at fleet scale.

**Why the recurrence is exact.**  Every stage is a FIFO server whose jobs
arrive from exactly one upstream source (stage ``j-1`` forward, or the
last stage's feedback for stage 0 in decode), and finish times at a FIFO
server are nondecreasing in submission order, with event-loop ties broken
by the submission counter.  By induction the global service order at
every stage is the lexicographic job order — flat ``(micro-batch, chunk)``
for prefill and ``(round, micro-batch)`` for decode — so each stage's
finish times satisfy

    F[j][k] = max(F[j][k-1], A[j][k]) + dur[j][k]

where ``A[j][k]`` is the arrival (upstream finish + link time, or the
decode feedback ``F[last][m, t-1] + fb``).  The implementation replays
the *identical* floating-point operations the event loop performs —
``max`` then one add per job, ``np.cumsum`` (sequential) for the
zero-arrival first stage, busy-time accumulated in submission order — so
results are bit-equal to the event-driven oracle, not approximations.
The differential grid in ``tests/test_fastsim.py`` asserts exact
equality.

Eligibility: any fault-free uniform-micro-batch run (every
``simulate_plan`` call) and the fixed-size degenerate case of
``simulate_plan_variable`` (all requests generating the same number of
tokens, where retirement never splits a round).  Variable-length decode
with mid-flight retirement keeps the event-driven path.

Duration tables (per-stage chunk times, decode step series, link and
feedback delays) are built once per ``(plan, cluster, workload, timing)``
by :func:`build_plan_tables` and memoized, so repeat evaluations of the
same plan — and the cross-plan batched evaluator in
:mod:`repro.pipeline.batchsim` — pay the table cost once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..hardware.cluster import ClusterSpec, Device
from ..models.architectures import ModelSpec
from ..models import layers as L
from ..obs import trace
from ..plan import ExecutionPlan
from ..workloads.spec import BatchWorkload, VariableBatchWorkload
from .stage import (
    MemoizedTiming,
    RooflineTiming,
    StageExecutionModel,
    TimingSource,
    stage_decode_series,
    stage_prefill_time,
)

__all__ = [
    "PlanTables",
    "build_plan_tables",
    "clear_table_caches",
    "fast_eligibility",
    "fast_eligibility_variable",
    "fast_eligible",
    "fast_eligible_variable",
    "shared_default_timing",
]


# ---------------------------------------------------------------------------
# Eligibility: one predicate, one reason string, reused by every caller.
# ---------------------------------------------------------------------------

#: Reason the fast path declines a variable-output batch.
VARIABLE_RETIRING_REASON = (
    "variable output lengths (requests retire mid-decode)"
)


def fast_eligibility(
    plan: ExecutionPlan, workload: BatchWorkload
) -> Optional[str]:
    """Why the fast path would *decline* a uniform-batch run, or ``None``.

    Uniform micro-batching with no injected faults is exactly the
    ``simulate_plan`` contract, so every such run is eligible; the hook
    exists so ``sim_backend="auto"`` and the batched evaluator share one
    documented decision point (and one reason string when it declines).
    """
    return None


def fast_eligibility_variable(
    workload: VariableBatchWorkload,
) -> Optional[str]:
    """Why the fast path declines a variable-output batch, or ``None``.

    The fixed-size degenerate case (all output lengths equal) is exact;
    genuinely variable batches retire requests mid-decode and keep the
    event engine.
    """
    lens = workload.output_lens
    if len(set(lens)) == 1:
        return None
    return VARIABLE_RETIRING_REASON


def fast_eligible(plan: ExecutionPlan, workload: BatchWorkload) -> bool:
    """Whether the closed-form fast path applies to a uniform-batch run."""
    return fast_eligibility(plan, workload) is None


def fast_eligible_variable(workload: VariableBatchWorkload) -> bool:
    """The fixed-size portion of the variable simulator: equal lengths."""
    return fast_eligibility_variable(workload) is None


# ---------------------------------------------------------------------------
# Duration tables: built once per (plan, cluster, workload, timing).
# ---------------------------------------------------------------------------


@dataclass
class PlanTables:
    """Everything the max-plus recurrence needs, precomputed.

    One instance fully describes a (plan, workload) evaluation: per-stage
    prefill chunk durations and link delays as flat job vectors, and the
    decode step series / link / feedback delays hoisted per micro-batch.
    The batched evaluator stacks many of these into one tensor.
    """

    n_stages: int
    # -- prefill: flat (micro-batch, chunk) wavefront --------------------
    n_mb: int
    kappa: int
    n_pre: int
    pre_events: int
    #: ``pre_dur[j]`` is the (n_pre,) duration vector of stage ``j``.
    pre_dur: List[np.ndarray]
    #: ``pre_comm[j]`` is the (n_pre,) link delay from stage j to j+1.
    pre_comm: List[np.ndarray]
    # -- decode: (round, micro-batch) with feedback ----------------------
    n_dec: int
    decode_steps: int
    dec_events: int
    #: ``series_jm[j][m][t]`` — decode durations per stage, micro-batch.
    series_jm: List[List[List[float]]]
    #: ``comm_jm[j][m]`` — forward link delay from stage j to j+1.
    comm_jm: List[List[float]]
    #: ``fb_m[m]`` — feedback delay from the last stage back to stage 0.
    fb_m: List[float]
    #: ``series_jm`` as one (n_stages, n_dec, decode_steps) array, built
    #: lazily (the batched evaluator's stacking fast path; the exact
    #: same floats as the nested lists).
    dec_arr: Optional[np.ndarray] = None

    @property
    def events(self) -> int:
        return self.pre_events + self.dec_events

    def decode_array(self) -> np.ndarray:
        if self.dec_arr is None:
            self.dec_arr = np.asarray(self.series_jm, dtype=np.float64)
        return self.dec_arr


# Bounded memo of built tables, keyed by (plan, cluster, workload,
# timing token).  Values keep a reference to the timing object so
# id-based tokens can never alias a collected object.
_TABLE_CACHE: Dict[Any, Tuple[TimingSource, PlanTables]] = {}
_TABLE_CACHE_MAX = 256

# Cross-plan component memo: per-stage prefill chunk times and decode
# series depend only on (timing, spec, stage plan, gpu, position,
# micro-batch, lengths) — not the rest of the plan — so structurally
# identical stages recur heavily across a candidate frontier.  Shared
# only when the caller opts in (the batched evaluator does; the per-plan
# path keeps its seed-identical cold-start cost).
_COMPONENT_CACHE: Dict[Any, Tuple[TimingSource, Any]] = {}
_COMPONENT_CACHE_MAX = 4096

# Default-timing memo for the batched evaluator: one MemoizedTiming per
# (model, KV bitwidth) so unit layer costs are computed once per fleet,
# not once per plan.  Returns the very floats RooflineTiming would, so
# results stay bit-identical to the uncached default.
_DEFAULT_MEMOS: Dict[Tuple[ModelSpec, int], MemoizedTiming] = {}

# Shared-build sub-memos (share_components=True only): stage contexts
# keyed by the plan's *stages* (micro-batch variants of one partition
# share a context), and whole prefill/decode bundles keyed by exactly
# what each side depends on — decode ignores prefill chunking and vice
# versa, so chunk- and micro-batch-variant frontiers reuse wholesale.
_CONTEXT_CACHE: Dict[Any, Tuple[TimingSource, Any]] = {}
_CONTEXT_CACHE_MAX = 1024
_PREFILL_CACHE: Dict[Any, Tuple[TimingSource, Any]] = {}
_PREFILL_CACHE_MAX = 1024
_DECODE_CACHE: Dict[Any, Tuple[TimingSource, Any]] = {}
_DECODE_CACHE_MAX = 1024


def clear_table_caches() -> None:
    """Drop all fastsim memos (benchmarks use this for cold timings)."""
    _TABLE_CACHE.clear()
    _COMPONENT_CACHE.clear()
    _DEFAULT_MEMOS.clear()
    _CONTEXT_CACHE.clear()
    _PREFILL_CACHE.clear()
    _DECODE_CACHE.clear()


def shared_default_timing(spec: ModelSpec, bit_kv: int) -> TimingSource:
    """The batched evaluator's default timing: memoized roofline truth."""
    key = (spec, bit_kv)
    memo = _DEFAULT_MEMOS.get(key)
    if memo is None:
        memo = _DEFAULT_MEMOS[key] = MemoizedTiming(
            RooflineTiming(spec=spec, bit_kv=bit_kv)
        )
    return memo


def _timing_token(timing: TimingSource) -> Any:
    """A hashable stand-in for ``timing`` in cache keys.

    Value-hashable sources (the frozen timing dataclasses) key by value
    so equal configurations share entries; everything else keys by
    object identity, with the object itself kept alive in the cache
    entry so the id cannot be recycled while the entry exists.
    """
    try:
        hash(timing)
    except TypeError:
        return ("timing-id", id(timing))
    return timing


def _bounded_put(cache: Dict, limit: int, key: Any, value: Any) -> None:
    if len(cache) >= limit:
        cache.pop(next(iter(cache)))
    cache[key] = value


def _build_stage_context(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    timing: TimingSource,
):
    """Stage execution models + links, mirroring ``_simulate_plan``."""
    by_id: Dict[int, Device] = {d.device_id: d for d in cluster.devices}
    n_stages = plan.num_stages
    stage_models = [
        StageExecutionModel(
            stage=st,
            gpu=by_id[st.device_ids[0]].gpu,
            spec=spec,
            timing=timing,
            is_first=(j == 0),
            is_last=(j == n_stages - 1),
        )
        for j, st in enumerate(plan.stages)
    ]
    fwd_links = [
        cluster.link_between(
            by_id[plan.stages[j].device_ids[0]],
            by_id[plan.stages[j + 1].device_ids[0]],
        )
        for j in range(n_stages - 1)
    ]
    feedback_link = (
        cluster.link_between(
            by_id[plan.stages[-1].device_ids[0]],
            by_id[plan.stages[0].device_ids[0]],
        )
        if n_stages > 1
        else None
    )
    return stage_models, fwd_links, feedback_link


def _stage_key(sm: StageExecutionModel) -> Tuple[Any, ...]:
    """What a stage's timing actually depends on.

    Device ids and the stage's position in the layer range don't enter
    any per-stage time, so keying on (bitwidths, TP degree, GPU model,
    boundary flags) lets structurally identical stages share across
    different clusters and layer offsets — e.g. every 10-layer INT4 T4
    stage in a fleet sweep, wherever it sits.
    """
    return (
        sm.spec, sm.stage.layer_bits, sm.stage.tp_degree, sm.gpu.name,
        sm.is_first, sm.is_last,
    )


def _prefill_chunk_time(
    sm: StageExecutionModel, size: int, chunk: int, token: Any, share: bool
) -> float:
    if not share:
        return sm.prefill_chunk_time(size, chunk)
    key = ("p", token, _stage_key(sm), size, chunk)
    hit = _COMPONENT_CACHE.get(key)
    if hit is not None:
        return hit[1]
    val = stage_prefill_time(sm, size, chunk)
    _bounded_put(
        _COMPONENT_CACHE, _COMPONENT_CACHE_MAX, key, (sm.timing, val)
    )
    return val


def _decode_series(
    sm: StageExecutionModel,
    size: int,
    prompt_len: int,
    n_out: int,
    token: Any,
    share: bool,
) -> List[float]:
    if not share:
        return sm.decode_time_series(size, prompt_len, n_out).tolist()
    key = ("d", token, _stage_key(sm), size, prompt_len, n_out)
    hit = _COMPONENT_CACHE.get(key)
    if hit is not None:
        return hit[1]
    val = stage_decode_series(sm, size, prompt_len, n_out)
    _bounded_put(
        _COMPONENT_CACHE, _COMPONENT_CACHE_MAX, key, (sm.timing, val)
    )
    return val


def build_plan_tables(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    timing: TimingSource,
    share_components: bool = False,
) -> PlanTables:
    """Build (or fetch) the duration tables for one plan evaluation.

    ``share_components=True`` additionally memoizes per-stage chunk
    times and decode series across *different* plans sharing structurally
    identical stages — the batched evaluator's main table-cost lever.
    """
    token = _timing_token(timing)
    key = (plan, cluster, workload, token)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit[1]

    ctx_key = (plan.stages, cluster, spec, token)
    ctx_hit = _CONTEXT_CACHE.get(ctx_key) if share_components else None
    if ctx_hit is not None:
        stage_models, fwd_links, feedback_link = ctx_hit[1]
    else:
        stage_models, fwd_links, feedback_link = _build_stage_context(
            plan, cluster, spec, timing
        )
        if share_components:
            _bounded_put(
                _CONTEXT_CACHE, _CONTEXT_CACHE_MAX, ctx_key,
                (timing, (stage_models, fwd_links, feedback_link)),
            )
    n_stages = len(stage_models)
    from .simulator import _FEEDBACK_BYTES_PER_REQ, _microbatch_sizes

    # -- prefill ---------------------------------------------------------
    chunk = workload.chunk_len
    pre_key = (
        plan.stages, plan.prefill_microbatch, cluster, spec, token,
        workload.batch, workload.prompt_len, chunk,
    )
    pre_hit = _PREFILL_CACHE.get(pre_key) if share_components else None
    if pre_hit is not None:
        n_mb, kappa, n_pre, pre_dur, pre_comm = pre_hit[1]
    else:
        pre_sizes = _microbatch_sizes(workload.batch, plan.prefill_microbatch)
        kappa = workload.kappa
        # Uniform micro-batching yields at most two distinct sizes, so the
        # flat job vectors are assembled by fancy-indexing one value per
        # distinct size (exact copies of the same floats).
        uniq_pre = sorted(set(pre_sizes))
        pos = {s: i for i, s in enumerate(uniq_pre)}
        idx = np.asarray(
            [pos[s] for s in pre_sizes for _ in range(kappa)], dtype=np.intp
        )
        pre_dur = [
            np.asarray(
                [
                    _prefill_chunk_time(sm, s, chunk, token, share_components)
                    for s in uniq_pre
                ],
                dtype=np.float64,
            )[idx]
            for sm in stage_models
        ]
        pre_comm = [
            np.asarray(
                [
                    link.transfer_time(L.hidden_state_bytes(spec, s, chunk))
                    for s in uniq_pre
                ],
                dtype=np.float64,
            )[idx]
            for link in fwd_links
        ]
        n_mb = len(pre_sizes)
        n_pre = n_mb * kappa
        if share_components:
            _bounded_put(
                _PREFILL_CACHE, _PREFILL_CACHE_MAX, pre_key,
                (timing, (n_mb, kappa, n_pre, pre_dur, pre_comm)),
            )

    # -- decode ----------------------------------------------------------
    n_out = workload.output_len
    decode_steps = n_out - 1
    n_dec = 0
    series_jm: List[List[List[float]]] = []
    comm_jm: List[List[float]] = []
    fb_m: List[float] = []
    dec_arr: Optional[np.ndarray] = None
    if decode_steps > 0:
        dec_key = (
            plan.stages, plan.decode_microbatch, cluster, spec, token,
            workload.batch, workload.prompt_len, n_out,
        )
        dec_hit = _DECODE_CACHE.get(dec_key) if share_components else None
        if dec_hit is not None:
            n_dec, series_jm, comm_jm, fb_m, dec_arr = dec_hit[1]
        else:
            dec_sizes = _microbatch_sizes(
                workload.batch, plan.decode_microbatch
            )
            dec_series: Dict[Tuple[int, int], List[float]] = {}
            for size in set(dec_sizes):
                for j, sm in enumerate(stage_models):
                    dec_series[(j, size)] = _decode_series(
                        sm, size, workload.prompt_len, n_out, token,
                        share_components,
                    )
            dec_comm: Dict[Tuple[int, int], float] = {}
            for size in set(dec_sizes):
                for j, link in enumerate(fwd_links):
                    dec_comm[(j, size)] = link.transfer_time(
                        L.hidden_state_bytes(spec, size, 1)
                    )
            fb_delay = {
                size: (
                    feedback_link.transfer_time(
                        size * _FEEDBACK_BYTES_PER_REQ
                    )
                    if feedback_link is not None
                    else 0.0
                )
                for size in set(dec_sizes)
            }
            n_dec = len(dec_sizes)
            series_jm = [
                [dec_series[(j, size)] for size in dec_sizes]
                for j in range(n_stages)
            ]
            comm_jm = [
                [dec_comm[(j, size)] for size in dec_sizes]
                for j in range(n_stages - 1)
            ]
            fb_m = [fb_delay[size] for size in dec_sizes]
            if share_components:
                dec_arr = np.asarray(series_jm, dtype=np.float64)
                _bounded_put(
                    _DECODE_CACHE, _DECODE_CACHE_MAX, dec_key,
                    (timing, (n_dec, series_jm, comm_jm, fb_m, dec_arr)),
                )

    tables = PlanTables(
        n_stages=n_stages,
        n_mb=n_mb,
        kappa=kappa,
        n_pre=n_pre,
        pre_events=n_pre * n_stages,
        pre_dur=pre_dur,
        pre_comm=pre_comm,
        n_dec=n_dec,
        decode_steps=decode_steps,
        dec_events=n_dec * decode_steps * n_stages,
        series_jm=series_jm,
        comm_jm=comm_jm,
        fb_m=fb_m,
        dec_arr=dec_arr,
    )
    _bounded_put(_TABLE_CACHE, _TABLE_CACHE_MAX, key, (timing, tables))
    return tables


def _fast_core(
    tables: PlanTables,
    emit_spans: bool,
) -> Tuple[float, float, List[float], int]:
    """The cumulative-max recurrence over (micro-batch x stage) arrays.

    Returns ``(prefill_span, decode_span, stage_busy, events)`` with
    every float bit-equal to what the event loop would produce.
    """
    n_stages = tables.n_stages
    n_pre = tables.n_pre

    # -- prefill: flat (micro-batch, chunk) wavefront -------------------
    busy: List[float] = []
    free: List[float] = []
    with trace.span(
        "sim.prefill", microbatches=tables.n_mb, chunks=tables.kappa
    ) if emit_spans else _NULL_CTX as sp:
        # Stage 0 sees zero arrivals: finish times are a plain running
        # sum, and np.cumsum accumulates sequentially (bit-identical to
        # the event loop's free_at chain).
        dur0 = tables.pre_dur[0]
        prev = np.cumsum(dur0)
        b = 0.0
        for d in dur0.tolist():
            b += d
        busy.append(b)
        free.append(float(prev[-1]))
        for j in range(1, n_stages):
            # Elementwise adds are one IEEE op per job — exact.
            arrivals = (prev + tables.pre_comm[j - 1]).tolist()
            dur = tables.pre_dur[j].tolist()
            out = np.empty(n_pre, dtype=np.float64)
            f = 0.0
            b = 0.0
            for k in range(n_pre):
                a = arrivals[k]
                if f < a:
                    f = a
                d = dur[k]
                f = f + d
                out[k] = f
                b += d
            busy.append(b)
            free.append(f)
            prev = out
        # Per-stage finishes are nondecreasing in FIFO order, so the
        # last stage's final job is the event loop's max().
        prefill_span = float(prev[-1])
        if emit_spans:
            sp.set(events=tables.pre_events)

    # -- decode: (round, micro-batch) with autoregressive feedback ------
    decode_steps = tables.decode_steps
    decode_span = 0.0
    if decode_steps > 0:
        n_dec = tables.n_dec
        series_jm = tables.series_jm
        comm_jm = tables.comm_jm
        fb_m = tables.fb_m

        with trace.span(
            "sim.decode", microbatches=n_dec, steps=decode_steps
        ) if emit_spans else _NULL_CTX as sp:
            arrivals0 = [prefill_span] * n_dec
            rng_dec = range(n_dec)
            finishes: List[float] = arrivals0
            for t in range(decode_steps):
                cur = arrivals0
                for j in range(n_stages):
                    sj = series_jm[j]
                    fj = free[j]
                    bj = busy[j]
                    nxt: List[float] = []
                    append = nxt.append
                    if j == 0:
                        for m in rng_dec:
                            a = cur[m]
                            if fj < a:
                                fj = a
                            d = sj[m][t]
                            fj = fj + d
                            bj += d
                            append(fj)
                    else:
                        cm = comm_jm[j - 1]
                        for m in rng_dec:
                            a = finishes[m] + cm[m]
                            if fj < a:
                                fj = a
                            d = sj[m][t]
                            fj = fj + d
                            bj += d
                            append(fj)
                    free[j] = fj
                    busy[j] = bj
                    finishes = nxt
                if t + 1 < decode_steps:
                    arrivals0 = [
                        finishes[m] + fb_m[m] for m in rng_dec
                    ]
            decode_span = max(finishes) - prefill_span
            if emit_spans:
                sp.set(events=tables.dec_events)

    return prefill_span, decode_span, busy, tables.events


class _NullCtx:
    """A no-op ``with`` target standing in for a span (variable path)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:  # pragma: no cover - never called
        pass


_NULL_CTX = _NullCtx()


def _fast_simulate_plan(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    timing: Optional[TimingSource],
    check_memory: bool,
):
    """Fast-path twin of ``_simulate_plan`` (bit-equal results)."""
    from .simulator import PipelineSimResult, check_plan_memory

    if plan.num_layers != spec.num_layers:
        raise ValueError(
            f"plan covers {plan.num_layers} layers, model has {spec.num_layers}"
        )
    timing = timing or RooflineTiming(spec=spec, bit_kv=plan.bit_kv)
    stage_mem = (
        check_plan_memory(plan, cluster, spec, workload)
        if check_memory
        else tuple(0 for _ in plan.stages)
    )
    tables = build_plan_tables(plan, cluster, spec, workload, timing)
    prefill_span, decode_span, busy, events = _fast_core(
        tables, emit_spans=True
    )
    return PipelineSimResult(
        makespan_s=prefill_span + decode_span,
        prefill_span_s=prefill_span,
        decode_span_s=decode_span,
        total_tokens=workload.batch * workload.output_len,
        stage_busy_s=tuple(busy),
        stage_memory_bytes=stage_mem,
        events_processed=events,
        sim_backend="fast",
    )


def _fast_simulate_plan_variable(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: VariableBatchWorkload,
    timing: Optional[TimingSource],
    check_memory: bool,
):
    """Fast-path twin of ``_simulate_plan_variable`` for equal lengths.

    With every request generating the same token count, retirement only
    happens after the final round, so the variable-length event schedule
    degenerates to the uniform one and the same recurrence is exact.
    Callers must check :func:`fast_eligible_variable` first.
    """
    from .simulator import PipelineSimResult, check_plan_memory

    if not fast_eligible_variable(workload):
        raise ValueError(
            "fast backend requires uniform output lengths; "
            "use sim_backend='event' for retiring requests"
        )
    if plan.num_layers != spec.num_layers:
        raise ValueError(
            f"plan covers {plan.num_layers} layers, model has {spec.num_layers}"
        )
    timing = timing or RooflineTiming(spec=spec, bit_kv=plan.bit_kv)
    uniform = BatchWorkload(
        batch=workload.batch,
        prompt_len=workload.prompt_len,
        output_len=workload.max_output,
        chunk_tokens=workload.chunk_tokens,
    )
    stage_mem = (
        check_plan_memory(plan, cluster, spec, uniform)
        if check_memory
        else tuple(0 for _ in plan.stages)
    )
    tables = build_plan_tables(plan, cluster, spec, uniform, timing)
    prefill_span, decode_span, busy, events = _fast_core(
        tables, emit_spans=False
    )
    return PipelineSimResult(
        makespan_s=prefill_span + decode_span,
        prefill_span_s=prefill_span,
        decode_span_s=decode_span,
        total_tokens=workload.total_output_tokens,
        stage_busy_s=tuple(busy),
        stage_memory_bytes=stage_mem,
        events_processed=events,
        sim_backend="fast",
    )

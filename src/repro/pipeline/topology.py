"""The shared pipeline topology: LLM semantics over the generic event core.

:mod:`repro.pipeline.events` stays deliberately generic (a heap-ordered
loop plus FIFO servers); this module holds everything both the offline
driver (:mod:`repro.pipeline.simulator`) and the online driver
(:mod:`repro.pipeline.online`) need on top of it — the per-stage
execution models, the inter-stage links, the decode feedback link, and
the pure duration functions (prefill chunk times, decode step series,
transfer times).  All of it is a pure function of ``(plan, cluster,
spec, timing)``: the two drivers compute bit-identical durations because
they call the *same* code with the same inputs.

Stage durations go through the stage-timing kernel
(:func:`~repro.pipeline.stage.stage_prefill_time`,
:func:`~repro.pipeline.stage.stage_decode_series`) over a
:class:`~repro.pipeline.stage.MemoizedTiming` the topology owns, so a
unit layer cost is computed once per topology however many fills ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..hardware.cluster import ClusterSpec, Device
from ..models.architectures import ModelSpec
from ..models import layers as L
from ..plan import ExecutionPlan
from .events import EventLoop, Server
from .stage import (
    MemoizedTiming,
    RooflineTiming,
    StageExecutionModel,
    TimingSource,
    stage_decode_series,
    stage_prefill_time,
)

__all__ = [
    "FEEDBACK_BYTES_PER_REQ",
    "PipelineTopology",
    "microbatch_sizes",
]

#: Bytes of sampled token ids fed back from LM head to the first stage.
FEEDBACK_BYTES_PER_REQ = 4


def microbatch_sizes(total: int, micro: int) -> List[int]:
    """Split ``total`` requests into micro-batches of at most ``micro``.

    A burst smaller than one micro-batch yields a single short
    micro-batch; zero requests yield no micro-batches at all (the online
    driver schedules empty admission rounds); a non-positive ``micro``
    is a caller bug and raises rather than dividing by zero.
    """
    if micro <= 0:
        raise ValueError(f"micro-batch size must be positive, got {micro}")
    if total < 0:
        raise ValueError(f"total requests must be non-negative, got {total}")
    sizes = [micro] * (total // micro)
    if total % micro:
        sizes.append(total % micro)
    return sizes


@dataclass
class PipelineTopology:
    """Stage models and links of one plan on one cluster.

    Built once per simulation run; drivers hoist the returned durations
    into local tables themselves (the hoisting strategy differs between
    offline — all sizes known upfront — and online — sizes discovered as
    groups form).  ``timing`` is the topology's own unit-cost memo: it
    lives exactly as long as the topology does.
    """

    plan: ExecutionPlan
    cluster: ClusterSpec
    spec: ModelSpec
    timing: TimingSource
    stage_models: List[StageExecutionModel]
    fwd_links: list
    feedback_link: Optional[object]

    @classmethod
    def build(
        cls,
        plan: ExecutionPlan,
        cluster: ClusterSpec,
        spec: ModelSpec,
        timing: Optional[TimingSource] = None,
    ) -> "PipelineTopology":
        if plan.num_layers != spec.num_layers:
            raise ValueError(
                f"plan covers {plan.num_layers} layers, "
                f"model has {spec.num_layers}"
            )
        timing = timing or RooflineTiming(spec=spec, bit_kv=plan.bit_kv)
        if not isinstance(timing, MemoizedTiming):
            timing = MemoizedTiming(timing)
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
        return cls(
            plan=plan,
            cluster=cluster,
            spec=spec,
            timing=timing,
            stage_models=stage_models,
            fwd_links=fwd_links,
            feedback_link=feedback_link,
        )

    @property
    def num_stages(self) -> int:
        return self.plan.num_stages

    def make_servers(self, loop: EventLoop) -> List[Server]:
        """One FIFO server per pipeline stage, bound to ``loop``."""
        return [Server(loop, f"stage{j}") for j in range(self.num_stages)]

    # -- pure duration functions ---------------------------------------
    # Each returns exactly the floats of the per-layer oracle
    # (StageExecutionModel); drivers memoize them per (stage, size).

    def prefill_time(self, j: int, size: int, chunk_len: int) -> float:
        """One prefill chunk of ``size`` requests on stage ``j``."""
        return stage_prefill_time(self.stage_models[j], size, chunk_len)

    def prefill_comm(self, j: int, size: int, chunk_len: int) -> float:
        """Hidden-state transfer of one prefill chunk over link ``j``."""
        return self.fwd_links[j].transfer_time(
            L.hidden_state_bytes(self.spec, size, chunk_len)
        )

    def decode_series(
        self, j: int, size: int, prompt_len: int, n_tokens: int
    ) -> List[float]:
        """Decode-step times t=1..n_tokens-1 on stage ``j`` (plain floats)."""
        return stage_decode_series(
            self.stage_models[j], size, prompt_len, n_tokens
        )

    def decode_comm(self, j: int, size: int) -> float:
        """Single-token hidden-state transfer over link ``j``."""
        return self.fwd_links[j].transfer_time(
            L.hidden_state_bytes(self.spec, size, 1)
        )

    def feedback_delay(self, size: int) -> float:
        """Sampled-token feedback from the LM head to stage 0."""
        if self.feedback_link is None:
            return 0.0
        return self.feedback_link.transfer_time(size * FEEDBACK_BYTES_PER_REQ)

    def stage_capacities(self) -> Tuple[int, ...]:
        """Usable bytes per stage (TP groups pool their devices)."""
        by_id: Dict[int, Device] = {
            d.device_id: d for d in self.cluster.devices
        }
        return tuple(
            sum(by_id[d].gpu.usable_mem_bytes for d in st.device_ids)
            for st in self.plan.stages
        )

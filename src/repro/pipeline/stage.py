"""Per-stage execution timing, backed by the roofline truth or a cost model.

The simulator asks each stage two questions: how long one prefill chunk of
a micro-batch takes, and how long one decode step takes at a given context
length.  Both are sums over the stage's layers at their assigned
bitwidths, plus embedding / LM-head work on the first / last stage.

Two implementations answer them with the same bits:

* :func:`stage_prefill_time` / :func:`stage_decode_series` — the kernel
  every simulator uses.  It looks up each *distinct* layer bitwidth once
  per shape and sums the layers in order with a sequential ``np.cumsum``.
* :class:`StageExecutionModel`'s methods — the per-layer oracle, one
  timing call per layer, kept as the reference the kernel is pinned to
  (``tests/test_stage_kernel.py``) and as the per-plan baseline of the
  batched evaluator's benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol

import numpy as np

from ..costmodel.latency import LatencyCostModel
from ..hardware.gpus import GPUSpec
from ..hardware.interconnect import intra_node_link
from ..models.architectures import ModelSpec
from ..simgpu import roofline
from ..plan import StagePlan


class TimingSource(Protocol):
    """Anything that can time one layer on one device."""

    def prefill(
        self, gpu: GPUSpec, bits: int, batch: int, seq: int, tp: int
    ) -> float: ...

    def decode(
        self, gpu: GPUSpec, bits: int, batch: int, context: int, tp: int
    ) -> float: ...


@dataclass(frozen=True)
class RooflineTiming:
    """Ground-truth timing straight from the kernel simulator."""

    spec: ModelSpec
    bit_kv: int = 16

    def _tp_bw(self, gpu: GPUSpec) -> float:
        return intra_node_link(gpu.name).bandwidth_bytes_s

    def prefill(
        self, gpu: GPUSpec, bits: int, batch: int, seq: int, tp: int = 1
    ) -> float:
        return roofline.tp_layer_time(
            gpu, self.spec, bits, "prefill", batch, seq, tp, self._tp_bw(gpu),
            self.bit_kv,
        )

    def decode(
        self, gpu: GPUSpec, bits: int, batch: int, context: int, tp: int = 1
    ) -> float:
        return roofline.tp_layer_time(
            gpu, self.spec, bits, "decode", batch, context, tp, self._tp_bw(gpu),
            self.bit_kv,
        )


@dataclass(frozen=True)
class CostModelTiming:
    """Timing through the fitted latency regressions (the planner's view).

    Tensor parallelism is approximated by dividing the single-device time
    by the TP degree and adding the all-reduce term — the same model the
    assigner uses when enumerating TP meshes.
    """

    cost_model: LatencyCostModel
    spec: ModelSpec

    def _with_tp(self, base: float, gpu: GPUSpec, tokens: int, tp: int) -> float:
        if tp <= 1:
            return base
        link = intra_node_link(gpu.name)
        msg = tokens * self.spec.hidden * 2
        allreduce = 2.0 * (2.0 * (tp - 1) / tp) * msg / link.bandwidth_bytes_s
        return base / tp + allreduce

    def prefill(
        self, gpu: GPUSpec, bits: int, batch: int, seq: int, tp: int = 1
    ) -> float:
        base = self.cost_model.prefill_time(gpu, bits, batch, seq)
        return self._with_tp(base, gpu, batch * seq, tp)

    def decode(
        self, gpu: GPUSpec, bits: int, batch: int, context: int, tp: int = 1
    ) -> float:
        base = self.cost_model.decode_time(gpu, bits, batch, context)
        return self._with_tp(base, gpu, batch, tp)


@dataclass
class MemoizedTiming:
    """A memo layer over any :class:`TimingSource` (the planner's cache).

    Unit layer costs depend only on ``(phase, gpu model, bits, batch,
    seq/context, tp degree)``, yet the candidate search evaluates the same
    tuples over and over: identical ``(gpu, tp)`` stage groups recur across
    device orderings, and each ``(eta, xi)`` micro-batch pair revisits every
    bitwidth.  Wrapping the timing source in a dict makes repeat lookups
    free *and* bit-identical to the uncached call — the cached value is the
    very float the source returned — so a memoized search stays exactly
    reproducible against the naive one.

    Not thread-safe by design: the search engine builds problems on the
    coordinating thread only and hands workers fully-materialized cost
    tensors.
    """

    source: TimingSource

    def __post_init__(self) -> None:
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0

    def prefill(
        self, gpu: GPUSpec, bits: int, batch: int, seq: int, tp: int = 1
    ) -> float:
        key = ("p", gpu.name, bits, batch, seq, tp)
        val = self._cache.get(key)
        if val is None:
            val = self.source.prefill(gpu, bits, batch, seq, tp)
            self._cache[key] = val
            self.misses += 1
        else:
            self.hits += 1
        return val

    def decode(
        self, gpu: GPUSpec, bits: int, batch: int, context: int, tp: int = 1
    ) -> float:
        key = ("d", gpu.name, bits, batch, context, tp)
        val = self._cache.get(key)
        if val is None:
            val = self.source.decode(gpu, bits, batch, context, tp)
            self._cache[key] = val
            self.misses += 1
        else:
            self.hits += 1
        return val


@dataclass
class StageExecutionModel:
    """Timing of one pipeline stage under a plan."""

    stage: StagePlan
    gpu: GPUSpec
    spec: ModelSpec
    timing: TimingSource
    is_first: bool = False
    is_last: bool = False

    def prefill_chunk_time(self, microbatch: int, chunk_len: int) -> float:
        """Time for one prefill chunk of ``microbatch`` requests."""
        total = 0.0
        for bits in self.stage.layer_bits:
            total += self.timing.prefill(
                self.gpu, bits, microbatch, chunk_len, self.stage.tp_degree
            )
        if self.is_first:
            total += roofline.embedding_time(
                self.gpu, self.spec, microbatch * chunk_len
            )
        if self.is_last:
            # Only the final chunk needs logits, but engines project the
            # chunk tail each time under chunked prefill; cost one head call.
            total += roofline.lm_head_time(self.gpu, self.spec, microbatch)
        return total

    def decode_step_time(self, microbatch: int, context: int) -> float:
        """Time for one decode step at total ``context`` length."""
        total = 0.0
        for bits in self.stage.layer_bits:
            total += self.timing.decode(
                self.gpu, bits, microbatch, context, self.stage.tp_degree
            )
        if self.is_first:
            total += roofline.embedding_time(self.gpu, self.spec, microbatch)
        if self.is_last:
            total += roofline.lm_head_time(self.gpu, self.spec, microbatch)
        return total

    def decode_time_series(
        self, microbatch: int, prompt_len: int, n_tokens: int, samples: int = 9
    ) -> np.ndarray:
        """Decode-step times for t = 1..n_tokens-1, by interpolation.

        Per-step cost is piecewise-linear in context length, so sampling a
        few contexts and interpolating is exact up to the roofline kink.
        """
        steps = np.arange(1, max(n_tokens, 2))
        contexts = prompt_len + steps
        if len(contexts) <= samples:
            return np.array(
                [self.decode_step_time(microbatch, int(c)) for c in contexts]
            )
        probe = np.unique(
            np.linspace(contexts[0], contexts[-1], samples).astype(int)
        )
        times = np.array(
            [self.decode_step_time(microbatch, int(c)) for c in probe]
        )
        return np.interp(contexts, probe, times)


# ---------------------------------------------------------------------------
# The stage-timing kernel: one lookup per distinct bitwidth per shape.
# ---------------------------------------------------------------------------


def _per_layer(bits_seq, lookup) -> np.ndarray:
    """``lookup(bits)`` for every layer, stacked along a leading axis.

    ``lookup`` runs once per *distinct* bitwidth; layers then index
    into those rows, so the result holds the very floats a per-layer
    call would return, in layer order.
    """
    pos: dict = {}
    idx = [pos.setdefault(b, len(pos)) for b in bits_seq]
    return np.asarray([lookup(b) for b in pos], dtype=np.float64)[idx]


def _layer_sum(per_layer: np.ndarray) -> np.ndarray:
    """Sequential sum over the leading (layer) axis.

    ``np.cumsum`` accumulates strictly in order (no pairwise reduction),
    so taking the last partial sum reproduces the scalar
    ``total = 0.0; total += layer`` chain bit-for-bit (``0.0 + x == x``).
    """
    return np.cumsum(per_layer, axis=0)[-1]


def stage_prefill_time(
    sm: StageExecutionModel, size: int, chunk_len: int
) -> float:
    """Bit-exact :meth:`StageExecutionModel.prefill_chunk_time`.

    Looks up each *distinct* layer bitwidth once instead of once per
    layer, then accumulates in layer order.
    """
    tp = sm.stage.tp_degree
    total = float(
        _layer_sum(
            _per_layer(
                sm.stage.layer_bits,
                lambda b: sm.timing.prefill(sm.gpu, b, size, chunk_len, tp),
            )
        )
    )
    if sm.is_first:
        total += roofline.embedding_time(sm.gpu, sm.spec, size * chunk_len)
    if sm.is_last:
        total += roofline.lm_head_time(sm.gpu, sm.spec, size)
    return total


def stage_decode_series(
    sm: StageExecutionModel,
    size: int,
    prompt_len: int,
    n_tokens: int,
    samples: int = 9,
) -> List[float]:
    """Bit-exact :meth:`StageExecutionModel.decode_time_series` (as floats).

    Same probe contexts, same interpolation — but each distinct layer
    bitwidth costs one timing lookup per probe instead of one per layer,
    and the per-probe layer sum runs as one sequential cumsum.
    """
    steps = np.arange(1, max(n_tokens, 2))
    contexts = prompt_len + steps
    direct = len(contexts) <= samples
    if direct:
        probe = contexts
    else:
        probe = np.unique(
            np.linspace(contexts[0], contexts[-1], samples).astype(int)
        )
    tp = sm.stage.tp_degree
    probe_ctx = probe.tolist()
    # (layers, probes), summed over layers column by column, in order.
    times = _layer_sum(
        _per_layer(
            sm.stage.layer_bits,
            lambda b: [
                sm.timing.decode(sm.gpu, b, size, c, tp) for c in probe_ctx
            ],
        )
    )
    if sm.is_first:
        times = times + roofline.embedding_time(sm.gpu, sm.spec, size)
    if sm.is_last:
        times = times + roofline.lm_head_time(sm.gpu, sm.spec, size)
    if direct:
        return times.tolist()
    return np.interp(contexts, probe, times).tolist()

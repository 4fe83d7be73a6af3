"""The stage-timing kernel vs the per-layer oracle, and the topology memo.

Every simulator times a stage through
:func:`~repro.pipeline.stage.stage_prefill_time` and
:func:`~repro.pipeline.stage.stage_decode_series`, which look up each
distinct layer bitwidth once per shape.  :class:`StageExecutionModel`'s
methods make one timing call per layer and stay as the oracle.  Every
comparison here is ``==`` on raw floats: the kernel must reproduce the
oracle's bits, not approximate them.

The second half pins where unit costs are cached: each
:class:`PipelineTopology` owns one :class:`MemoizedTiming`, so an
:class:`OnlineTables` bundle asks its timing source at most once per
distinct layer shape, and ``clear_online_caches()`` leaves nothing warm.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.pipeline import (
    OnlineConfig,
    PipelineTopology,
    clear_online_caches,
    online_tables,
    simulate_online,
)
from repro.pipeline.stage import (
    CostModelTiming,
    MemoizedTiming,
    RooflineTiming,
    StageExecutionModel,
    stage_decode_series,
    stage_prefill_time,
)
from repro.plan import ExecutionPlan, StagePlan
from repro.workloads import poisson_trace

MIXED_BITS = (3, 4, 8, 16, 4, 4, 16, 3, 8, 8)
#: (is_first, is_last): middle, first, last and single-stage models.
POSITIONS = [(False, False), (True, False), (False, True), (True, True)]
#: Decode lengths: n_tokens <= 10 gives at most 9 steps, timed directly;
#: longer series are probed at 9 contexts and interpolated.
N_TOKENS = [1, 2, 5, 10, 11, 64, 300]


def stage_model(gpu, spec, timing, bits, tp, position):
    is_first, is_last = position
    return StageExecutionModel(
        stage=StagePlan(tuple(range(tp)), gpu.name, 0, bits),
        gpu=gpu,
        spec=spec,
        timing=timing,
        is_first=is_first,
        is_last=is_last,
    )


@pytest.fixture(scope="module", params=["roofline", "costmodel"])
def timing(request, opt13b, cost_model_13b):
    if request.param == "roofline":
        return RooflineTiming(spec=opt13b)
    return CostModelTiming(cost_model=cost_model_13b, spec=opt13b)


@pytest.mark.parametrize("bits", [MIXED_BITS, (4,) * 10, (16,)])
@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("position", POSITIONS)
def test_prefill_kernel_equals_oracle(timing, opt13b, t4, v100, bits, tp,
                                      position):
    for gpu in (t4, v100):
        sm = stage_model(gpu, opt13b, timing, bits, tp, position)
        for size, chunk in [(1, 1), (3, 128), (8, 512), (16, 2048)]:
            assert stage_prefill_time(sm, size, chunk) == (
                sm.prefill_chunk_time(size, chunk)
            )


@pytest.mark.parametrize("bits", [MIXED_BITS, (4,) * 10, (16,)])
@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("position", POSITIONS)
def test_decode_kernel_equals_oracle(timing, opt13b, t4, v100, bits, tp,
                                     position):
    for gpu in (t4, v100):
        sm = stage_model(gpu, opt13b, timing, bits, tp, position)
        for size in (1, 5, 8):
            for prompt_len in (17, 512):
                for n_tokens in N_TOKENS:
                    want = sm.decode_time_series(
                        size, prompt_len, n_tokens
                    ).tolist()
                    got = stage_decode_series(sm, size, prompt_len, n_tokens)
                    assert got == want
                    assert all(type(x) is float for x in got)


# ---------------------------------------------------------------------------
# The topology-owned memo.
# ---------------------------------------------------------------------------


class CountingTiming:
    """A timing source that counts calls per distinct layer shape."""

    def __init__(self, source):
        self.source = source
        self.calls: Counter = Counter()

    def prefill(self, gpu, bits, batch, seq, tp=1):
        self.calls[("p", gpu.name, bits, batch, seq, tp)] += 1
        return self.source.prefill(gpu, bits, batch, seq, tp)

    def decode(self, gpu, bits, batch, context, tp=1):
        self.calls[("d", gpu.name, bits, batch, context, tp)] += 1
        return self.source.decode(gpu, bits, batch, context, tp)


@pytest.fixture
def mixed_plan(opt13b):
    half = opt13b.num_layers // 2
    bits = (MIXED_BITS * 4)[: opt13b.num_layers]
    return ExecutionPlan(
        model_name=opt13b.name,
        stages=(
            StagePlan((0,), "T4-16G", 0, bits[:half]),
            StagePlan((1,), "V100-32G", half, bits[half:]),
        ),
        prefill_microbatch=4,
        decode_microbatch=4,
    )


@pytest.fixture
def trace():
    return poisson_trace(rate_per_s=2.0, duration_s=6.0, seed=7)


def test_online_bundle_times_each_shape_once(small_cluster, opt13b,
                                             mixed_plan, trace):
    clear_online_caches()
    counting = CountingTiming(RooflineTiming(spec=opt13b))
    config = OnlineConfig(chunk_tokens=256, admission="kv")
    results = [
        simulate_online(mixed_plan, small_cluster, opt13b, trace,
                        config=config, timing=counting, sim_backend=backend)
        for backend in ("event", "fast", "event")
    ]
    assert results[0] == results[1] == results[2]
    assert counting.calls
    assert max(counting.calls.values()) == 1

    tables = online_tables(mixed_plan, small_cluster, opt13b, counting)
    memo = tables.topo.timing
    assert isinstance(memo, MemoizedTiming)
    assert memo.source is counting
    assert all(sm.timing is memo for sm in tables.topo.stage_models)
    assert memo.misses == len(counting.calls)
    clear_online_caches()


def test_clear_online_caches_drops_the_memo(small_cluster, opt13b,
                                            mixed_plan, trace):
    clear_online_caches()
    counting = CountingTiming(RooflineTiming(spec=opt13b))
    config = OnlineConfig(chunk_tokens=256, admission="kv")
    first = simulate_online(mixed_plan, small_cluster, opt13b, trace,
                            config=config, timing=counting)
    cold_calls = Counter(counting.calls)
    memo_ref = weakref.ref(
        online_tables(mixed_plan, small_cluster, opt13b, counting).topo.timing
    )

    clear_online_caches()
    gc.collect()
    assert memo_ref() is None

    # A pass after the clear is as cold as the first: every shape is
    # asked of the source again, exactly once more.
    again = simulate_online(mixed_plan, small_cluster, opt13b, trace,
                            config=config, timing=counting)
    assert again == first
    assert counting.calls == cold_calls + cold_calls
    clear_online_caches()


def test_build_memoizes_once(small_cluster, opt13b, mixed_plan):
    raw = RooflineTiming(spec=opt13b)
    topo = PipelineTopology.build(mixed_plan, small_cluster, opt13b, raw)
    assert isinstance(topo.timing, MemoizedTiming)
    assert topo.timing.source is raw
    # An already-memoized source is used as is, not wrapped again.
    memo = MemoizedTiming(raw)
    again = PipelineTopology.build(mixed_plan, small_cluster, opt13b, memo)
    assert again.timing is memo
    default = PipelineTopology.build(mixed_plan, small_cluster, opt13b)
    assert default.timing.source == RooflineTiming(
        spec=opt13b, bit_kv=mixed_plan.bit_kv
    )


def test_topology_durations_equal_oracle(small_cluster, opt13b, mixed_plan):
    """Every topology duration equals the per-layer oracle's."""
    topo = PipelineTopology.build(mixed_plan, small_cluster, opt13b)
    oracle = [
        StageExecutionModel(
            stage=sm.stage, gpu=sm.gpu, spec=opt13b,
            timing=RooflineTiming(spec=opt13b),
            is_first=sm.is_first, is_last=sm.is_last,
        )
        for sm in topo.stage_models
    ]
    for j, sm in enumerate(oracle):
        for size in (1, 3, 4):
            assert topo.prefill_time(j, size, 200) == (
                sm.prefill_chunk_time(size, 200)
            )
            for n_tokens in (2, 9, 48):
                assert topo.decode_series(j, size, 200, n_tokens) == (
                    sm.decode_time_series(size, 200, n_tokens).tolist()
                )


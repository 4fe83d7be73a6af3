"""Edge cases across modules: failures, comm-bound pipelines, TP memory."""

import numpy as np
import pytest

from repro.hardware import make_cluster
from repro.models import get_model
from repro.pipeline import check_plan_memory, simulate_plan
from repro.plan import ExecutionPlan, StagePlan
from repro.workloads import BatchWorkload


def test_worker_failure_surfaces_in_engine(tiny_model, rng):
    """A poisoned stage must raise in generate(), not hang."""
    from repro.runtime import PipelineEngine

    plan = ExecutionPlan(
        model_name="tiny",
        stages=(
            StagePlan((0,), "T4-16G", 0, (8, 8)),
            StagePlan((1,), "T4-16G", 2, (8, 8)),
        ),
        prefill_microbatch=2,
        decode_microbatch=2,
    )
    prompts = rng.integers(0, tiny_model.config.vocab, size=(2, 8))
    with PipelineEngine(tiny_model, plan) as eng:
        # Sabotage stage 1's weights so its matmul raises.
        eng._workers[1].layers[0].wq = np.zeros((3, 3))
        with pytest.raises((RuntimeError, TimeoutError)):
            eng.generate(prompts, n_tokens=3)


def test_decode_feedback_dependency_enforced(small_cluster, opt13b):
    """Token t+1 of a micro-batch never starts before token t finished:
    with a single decode micro-batch the pipeline cannot overlap tokens,
    so decode span >= (n-1) * round-trip time."""
    groups = [((d.device_id,), d.gpu.name) for d in small_cluster.devices]
    from repro.plan import uniform_plan

    wl = BatchWorkload(batch=4, prompt_len=128, output_len=16)
    plan = uniform_plan(opt13b.name, opt13b.num_layers, groups, 8, 4, 4)
    res = simulate_plan(plan, small_cluster, opt13b, wl, check_memory=False)
    per_stage_busy_decode = [
        b for b in res.stage_busy_s
    ]
    # Round trip lower bound: decode work is serialized across stages.
    assert res.decode_span_s >= max(per_stage_busy_decode) * 0.2


def test_comm_bound_pipeline_bottleneck(opt13b):
    """With a crawling cross-node link, comm dominates the prefill span."""
    fast = make_cluster("fast", [("V100-32G", 1), ("V100-32G", 2)],
                        cross_node_link="eth-800g")
    slow = make_cluster("slow", [("V100-32G", 1), ("V100-32G", 2)],
                        cross_node_link="eth-100g")
    from repro.plan import uniform_plan

    wl = BatchWorkload(batch=16, prompt_len=1024, output_len=8)
    for cluster in (fast, slow):
        # Force the pipeline boundary across the Ethernet link.
        groups = [((0,), "V100-32G"), ((1, 2), "V100-32G")]
        plan = uniform_plan(opt13b.name, opt13b.num_layers, groups, 16, 2, 2)
        res = simulate_plan(plan, cluster, opt13b, wl, check_memory=False)
        if cluster is fast:
            t_fast = res.prefill_span_s
        else:
            t_slow = res.prefill_span_s
    assert t_slow > t_fast


def test_tp_group_memory_pools_capacity(opt30b):
    """A TP4 stage holds what no single device could."""
    cluster = make_cluster("tp4", [("T4-16G", 4)])
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    pooled = ExecutionPlan(
        model_name=opt30b.name,
        stages=(
            StagePlan(tuple(range(4)), "T4-16G", 0, (16,) * opt30b.num_layers),
        ),
        prefill_microbatch=4,
        decode_microbatch=4,
    )
    usage = check_plan_memory(pooled, cluster, opt30b, wl)
    assert usage[0] > 16 * 2**30  # more than one T4's total memory


def test_single_layer_model_single_stage():
    spec = get_model("opt-125m")
    cluster = make_cluster("one", [("A100-40G", 1)])
    plan = ExecutionPlan(
        model_name=spec.name,
        stages=(
            StagePlan((0,), "A100-40G", 0, (16,) * spec.num_layers),
        ),
        prefill_microbatch=1,
        decode_microbatch=1,
    )
    wl = BatchWorkload(batch=1, prompt_len=16, output_len=2)
    res = simulate_plan(plan, cluster, spec, wl)
    assert res.throughput_tokens_s > 0


def test_planner_single_device_cluster(opt13b, small_workload):
    """Planning degenerates gracefully to quantization + micro-batching."""
    from repro.core import PlannerConfig, SplitQuantPlanner

    cluster = make_cluster("solo", [("V100-32G", 1)])
    cfg = PlannerConfig(group_size=8, max_orderings=2,
                        microbatch_candidates=(4, 8), time_limit_s=10.0,
                        verify_top_k=1)
    res = SplitQuantPlanner(opt13b, cluster, cfg).plan(small_workload)
    assert res is not None
    assert res.plan.num_stages == 1
    sim = simulate_plan(res.plan, cluster, opt13b, small_workload)
    assert sim.throughput_tokens_s > 0


def test_channel_pending_count():
    from repro.runtime import Channel

    ch = Channel("t")
    ch.send(1)
    ch.send(2)
    assert ch.pending == 2
    ch.recv(timeout=1.0)
    assert ch.pending == 1


# -- workload generator / micro-batch sizing edge cases ------------------


def test_empty_sample_means_are_zero_not_nan():
    """Context filtering can strip every request; stats must stay finite."""
    from repro.workloads.distributions import LengthSample, sample_dataset
    from repro.workloads.generator import filter_by_context

    spec = get_model("opt-13b")  # 2048-token context
    survivors = filter_by_context(sample_dataset("loogle", 64, 0), spec)
    assert survivors.n == 0
    assert survivors.mean_prompt() == 0.0
    assert survivors.mean_output() == 0.0


def test_synthesize_rejects_empty_after_filter():
    from repro.workloads import WorkloadConfig, synthesize_batches

    spec = get_model("opt-13b")
    with pytest.raises(ValueError, match="fits"):
        synthesize_batches(spec, WorkloadConfig(dataset="loogle"),
                           n_requests=64)


def test_representative_workload_caps_batch_at_survivors():
    """Fewer surviving requests than one configured batch: plan for the
    batch that exists, not the phantom configured size."""
    from repro.workloads import WorkloadConfig, representative_workload

    spec = get_model("opt-13b")
    cfg = WorkloadConfig(dataset="sharegpt", batch_size=256)
    wl = representative_workload(spec, cfg, n_requests=40)
    assert wl.batch <= 40
    assert wl.prompt_len + wl.output_len <= spec.max_position_embeddings


def test_microbatch_sizes_validation_and_small_totals():
    from repro.pipeline import microbatch_sizes

    assert microbatch_sizes(0, 8) == []
    assert microbatch_sizes(3, 8) == [3]  # burst smaller than one micro
    assert microbatch_sizes(16, 8) == [8, 8]
    assert microbatch_sizes(19, 8) == [8, 8, 3]
    with pytest.raises(ValueError):
        microbatch_sizes(8, 0)
    with pytest.raises(ValueError):
        microbatch_sizes(-1, 8)


def test_online_burst_smaller_than_microbatch(small_cluster, opt13b):
    """A lone arrival forms a group far below the plan's micro-batch;
    prefill and decode must run it as one undersized slice."""
    from repro.pipeline import OnlineConfig, simulate_online
    from repro.plan import uniform_plan
    from repro.workloads import ArrivalTrace, Request

    groups = [((d.device_id,), d.gpu.name) for d in small_cluster.devices]
    plan = uniform_plan(opt13b.name, opt13b.num_layers, groups, 8, 8, 8)
    trace = ArrivalTrace(
        requests=(
            Request(req_id=0, arrival_s=0.0, prompt_len=64, output_len=4),
        ),
        source="test",
    )
    res = simulate_online(plan, small_cluster, opt13b, trace,
                          config=OnlineConfig(chunk_tokens=2048))
    assert res.completed == 1
    assert res.groups_formed == 1
    assert res.total_tokens == 4
    assert len(res.ttft_s) == 1 and res.ttft_s[0] > 0.0


@pytest.mark.parametrize("field", ["ttft_slo_s", "horizon_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_online_config_rejects_non_finite(field, value):
    """NaN slips past ``x <= 0`` and would disable SLO shedding (or the
    horizon) silently; non-finite values must fail naming the field."""
    from repro.pipeline import OnlineConfig

    with pytest.raises(ValueError, match=field):
        OnlineConfig(**{field: value})


def test_online_config_accepts_finite_bounds():
    from repro.pipeline import OnlineConfig

    assert OnlineConfig(ttft_slo_s=1e-6, horizon_s=0.0).horizon_s == 0.0
    with pytest.raises(ValueError, match="ttft_slo_s"):
        OnlineConfig(ttft_slo_s=0.0)
    with pytest.raises(ValueError, match="horizon_s"):
        OnlineConfig(horizon_s=-1e-9)

"""Differential tests: the closed-form fast simulator vs the event loop.

``simulate_plan`` takes the fast path whenever it is exact and claims
*bit-exact* equality with the discrete-event oracle
``simulate_plan_reference`` (not approximate agreement), so every
assertion here is ``==`` on raw floats.  ``PipelineSimResult.sim_backend``
is excluded from dataclass equality precisely so whole results can be
compared directly.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import make_cluster, table_iii_cluster
from repro.models import get_model
from repro import Session
from repro.pipeline import (
    fast_eligibility_variable,
    simulate_plan,
    simulate_plan_reference,
    trace_plan,
)
from repro.plan import uniform_plan
from repro.simgpu import OutOfMemoryError
from repro.workloads import BatchWorkload
from repro.workloads.spec import VariableBatchWorkload


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


def _assert_identical(ev, fa):
    """Field-by-field exact equality (plus the dataclass comparison)."""
    assert fa.sim_backend == "fast" and ev.sim_backend == "event"
    assert ev.makespan_s == fa.makespan_s
    assert ev.prefill_span_s == fa.prefill_span_s
    assert ev.decode_span_s == fa.decode_span_s
    assert ev.total_tokens == fa.total_tokens
    assert ev.stage_busy_s == fa.stage_busy_s
    assert ev.stage_memory_bytes == fa.stage_memory_bytes
    assert ev.events_processed == fa.events_processed
    # Derived metrics follow, but assert them anyway: these are what the
    # experiments actually report.
    assert ev.throughput_tokens_s == fa.throughput_tokens_s
    assert ev.stage_utilization == fa.stage_utilization
    assert ev.bubble_fraction == fa.bubble_fraction
    assert ev == fa


# -- seeded grid ---------------------------------------------------------

GRID = [
    # (cluster index, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec)
    (5, "opt-13b", 8, 8, 256, 32, 2048, 4, 4),
    (5, "opt-13b", 4, 32, 512, 64, 256, 8, 16),
    (2, "opt-13b", 8, 16, 1024, 16, 512, 2, 8),
    (7, "opt-30b", 4, 64, 512, 128, 1024, 16, 32),
    (9, "opt-13b", 16, 24, 384, 48, 384, 6, 12),  # remainder microbatches
    (10, "opt-30b", 16, 8, 2048, 8, 512, 8, 8),  # kappa = 4
]


@pytest.mark.parametrize(
    "idx,model,bits,batch,prompt,out,chunk,mb_pre,mb_dec", GRID
)
def test_fast_equals_event_grid(
    idx, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec
):
    cluster = table_iii_cluster(idx)
    spec = get_model(model)
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), bits, mb_pre, mb_dec
    )
    wl = BatchWorkload(
        batch=batch, prompt_len=prompt, output_len=out, chunk_tokens=chunk
    )
    ev = simulate_plan_reference(plan, cluster, spec, wl)
    fa = simulate_plan(plan, cluster, spec, wl)
    _assert_identical(ev, fa)
    # A variable batch whose requests all generate ``out`` tokens is the
    # uniform batch: the reference engine retires nobody early and makes
    # the same submissions, so it matches field for field.
    vwl = VariableBatchWorkload(
        prompt_len=prompt, output_lens=(out,) * batch, chunk_tokens=chunk
    )
    assert simulate_plan_reference(plan, cluster, spec, vwl) == ev
    assert simulate_plan(plan, cluster, spec, vwl) == ev


def test_single_stage_cluster(opt13b):
    cluster = table_iii_cluster(1)  # one V100: no links, no feedback
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster), 4, 4, 4
    )
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    ev = simulate_plan_reference(plan, cluster, opt13b, wl)
    fa = simulate_plan(plan, cluster, opt13b, wl)
    _assert_identical(ev, fa)


def test_single_token_output(small_cluster, opt13b):
    """No decode phase at all (output_len == 1)."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=1)
    ev = simulate_plan_reference(plan, small_cluster, opt13b, wl)
    fa = simulate_plan(plan, small_cluster, opt13b, wl)
    assert fa.decode_span_s == 0.0
    _assert_identical(ev, fa)


def test_oom_parity(small_cluster, opt30b, small_workload):
    """Both backends reject a memory-infeasible plan identically."""
    plan = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    for simulate in (simulate_plan_reference, simulate_plan):
        with pytest.raises(OutOfMemoryError):
            simulate(plan, small_cluster, opt30b, small_workload)


def test_auto_dispatch(small_cluster, opt13b, small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    auto = simulate_plan(plan, small_cluster, opt13b, small_workload)
    assert auto.sim_backend == "fast"
    assert auto.backend_reason is None
    ev = simulate_plan_reference(plan, small_cluster, opt13b, small_workload)
    assert ev.sim_backend == "event"
    assert auto == ev


def test_unknown_backend_rejected(small_cluster, opt13b, small_workload):
    """The offline layer has no backend knob: asking for one is a
    TypeError, not a silently ignored option."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    with pytest.raises(TypeError, match="sim_backend"):
        simulate_plan(
            plan, small_cluster, opt13b, small_workload, sim_backend="event"
        )
    sess = Session(opt13b, small_cluster)
    with pytest.raises(TypeError, match="sim_backend"):
        sess.simulate(plan, small_workload, sim_backend="event")


def test_trace_plan_still_records_jobs(small_cluster, opt13b, small_workload):
    """Per-job timelines need real servers: trace_plan runs the event
    engine even though simulate_plan would pick the fast path."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    tl = trace_plan(plan, small_cluster, opt13b, small_workload)
    assert tl.result.sim_backend == "event"
    assert all(len(jobs) > 0 for _, jobs in tl.stages)


# -- variable-output workloads ------------------------------------------

def test_variable_fixed_size_exact(small_cluster, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    wl = VariableBatchWorkload(prompt_len=256, output_lens=(24,) * 8)
    assert fast_eligibility_variable(wl) is None
    ev = simulate_plan_reference(plan, small_cluster, opt13b, wl)
    fa = simulate_plan(plan, small_cluster, opt13b, wl)
    _assert_identical(ev, fa)
    assert fa.total_tokens == wl.total_output_tokens


def test_variable_retiring_uses_event(small_cluster, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    wl = VariableBatchWorkload(
        prompt_len=256, output_lens=(8, 16, 24, 32, 8, 16, 24, 32)
    )
    reason = fast_eligibility_variable(wl)
    assert reason is not None
    auto = simulate_plan(plan, small_cluster, opt13b, wl)
    assert auto.sim_backend == "event"
    assert auto.backend_reason == reason
    assert auto == simulate_plan_reference(plan, small_cluster, opt13b, wl)


# -- property: random shapes stay exact ---------------------------------

@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    batch=st.integers(min_value=1, max_value=48),
    prompt=st.integers(min_value=32, max_value=768),
    out=st.integers(min_value=1, max_value=40),
    chunk=st.sampled_from([128, 256, 512, 2048]),
    mb_pre=st.sampled_from([1, 2, 3, 4, 8]),
    mb_dec=st.sampled_from([1, 2, 4, 5, 8, 16]),
    bits=st.sampled_from([3, 4, 8, 16]),
)
def test_fast_equals_event_property(
    batch, prompt, out, chunk, mb_pre, mb_dec, bits
):
    cluster = make_cluster("prop", [("T4-16G", 1), ("V100-32G", 1)])
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), bits, mb_pre, mb_dec
    )
    wl = BatchWorkload(
        batch=batch, prompt_len=prompt, output_len=out, chunk_tokens=chunk
    )
    try:
        ev = simulate_plan_reference(plan, cluster, spec, wl)
    except OutOfMemoryError:
        with pytest.raises(OutOfMemoryError):
            simulate_plan(plan, cluster, spec, wl)
        return
    fa = simulate_plan(plan, cluster, spec, wl)
    assert ev.makespan_s == fa.makespan_s
    assert ev.throughput_tokens_s == fa.throughput_tokens_s
    assert ev.bubble_fraction == fa.bubble_fraction
    assert ev.stage_utilization == fa.stage_utilization
    assert ev == fa

#!/usr/bin/env python
"""Variable-output-length serving, with execution timelines.

Real offline batches are not uniform: a summarization batch mixes 5-token
and 300-token generations.  This example exercises the variable-output
extension (paper Sec. IV-C sketches it; we implement it):

1. sample per-request output lengths from the CNN/DailyMail distribution,
2. plan against the *mean*-length uniform view while reserving KV for the
   longest request,
3. simulate with requests retiring early (decode micro-batches shrink),
4. render Gantt timelines of the SplitQuant plan vs the Uniform baseline
   so the bubble structure is visible.

Run:  python examples/variable_batch_service.py
"""

import dataclasses

from repro import (
    PlannerConfig,
    SplitQuantPlanner,
    get_model,
    table_iii_cluster,
)
from repro.baselines import plan_uniform_baseline
from repro.experiments.common import cost_model_for
from repro.pipeline import render_gantt, simulate_plan, trace_plan
from repro.workloads import VariableBatchWorkload, sample_dataset


def main() -> None:
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(5)  # 3x T4 + 1x V100
    print(f"serving {spec.name} on {cluster.describe()}\n")

    lengths = sample_dataset("cnn_dailymail", 32, seed=7)
    outs = tuple(int(min(n, 300)) for n in lengths.output_lens)
    vwl = VariableBatchWorkload(prompt_len=512, output_lens=outs)
    print(f"workload: {vwl.describe()}")
    print(f"  total output tokens: {vwl.total_output_tokens}\n")

    planning = vwl.planning_view("mean")
    cm = cost_model_for(spec, cluster)
    cfg = PlannerConfig(
        group_size=2, max_orderings=4, microbatch_candidates=(8, 16, 32),
        time_limit_s=15.0,
    )
    planner = SplitQuantPlanner(spec, cluster, cfg, cost_model=cm)
    uniform = plan_uniform_baseline(spec, cluster, planning)
    budget = planner.uniform_quality(uniform.bits if uniform else 3)
    planner = SplitQuantPlanner(
        spec, cluster, dataclasses.replace(cfg, quality_budget=budget),
        cost_model=cm,
    )
    result = planner.plan(planning)
    print(f"plan: {result.plan.describe()}\n")

    sq = simulate_plan(result.plan, cluster, spec, vwl)
    print(f"SplitQuant : {sq.throughput_tokens_s:7.1f} tokens/s "
          f"(makespan {sq.makespan_s:.1f}s)")
    if uniform is not None:
        uni = simulate_plan(uniform.plan, cluster, spec, vwl)
        print(f"Uniform-{uniform.bits:<3}: {uni.throughput_tokens_s:7.1f} "
              f"tokens/s (makespan {uni.makespan_s:.1f}s)")
        print(f"speedup    : "
              f"{sq.throughput_tokens_s / uni.throughput_tokens_s:.2f}x\n")

    # Timelines (uniform view keeps rows comparable).
    short = dataclasses.replace(planning, output_len=16,
                                reserve_output_len=vwl.max_output)
    print("SplitQuant timeline (first 16 decode steps shown):")
    tl = trace_plan(result.plan, cluster, spec, short)
    print(render_gantt(
        tl, width=90,
        labels=[f"{st.gpu_name}{'/tp' + str(st.tp_degree) if st.tp_degree > 1 else ''}"
                f"[{st.num_layers}]" for st in result.plan.stages],
    ))
    if uniform is not None:
        print("\nUniform timeline:")
        tl_u = trace_plan(uniform.plan, cluster, spec, short)
        print(render_gantt(
            tl_u, width=90,
            labels=[f"{st.gpu_name}[{st.num_layers}]"
                    for st in uniform.plan.stages],
        ))
        gaps = sum(len(tl_u.idle_gaps(i)) for i in range(len(tl_u.stages)))
        gaps_sq = sum(len(tl.idle_gaps(i)) for i in range(len(tl.stages)))
        print(f"\nidle gaps: uniform {gaps} vs splitquant {gaps_sq}")


if __name__ == "__main__":
    main()

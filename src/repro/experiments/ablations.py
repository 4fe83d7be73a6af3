"""Ablations of SplitQuant's design choices (beyond the paper's Fig. 12).

DESIGN.md calls out five ablation-worthy decisions; Fig. 12 covers the
joint-vs-decoupled one.  This experiment covers the rest:

* **phase-aware vs phase-blind partitioning** — plan with decode costs
  replaced by rescaled prefill costs (what encoder-oriented heterogeneous
  partitioners assume), on the cluster where the paper's Fig. 3 ratios
  diverge most (P100s: 14.5x prefill vs 7.2x decode).
* **independent vs tied micro-batch sizes** — force eta == xi.
* **candidate dry-run verification** — disable the top-k DES re-scoring.
* **KV-cache bitwidth planning** — allow bit_kv in {8, 16} (an extension:
  the paper's memory model carries bit_kv but never optimizes it).
* **output-length estimator** — plan for the mean vs the max generation
  length, evaluated on a *variable*-output workload.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from ..core import PlannerConfig, SplitQuantPlanner
from ..hardware.cluster import table_iii_cluster
from ..models.architectures import get_model
from ..pipeline import simulate_plan
from ..simgpu.memory import OutOfMemoryError
from ..workloads.spec import BatchWorkload, VariableBatchWorkload
from .common import cost_model_for, throughput_of
from .harness import ExperimentResult

_BASE = PlannerConfig(
    group_size=2,
    max_orderings=4,
    microbatch_candidates=(8, 16, 32),
    time_limit_s=15.0,
)


def _plan_tput(spec, cluster, wl, cfg) -> float:
    planner = SplitQuantPlanner(
        spec, cluster, cfg, cost_model=cost_model_for(spec, cluster)
    )
    res = planner.plan(wl)
    return throughput_of(res.plan if res else None, cluster, spec, wl)


def _variable_tput(spec, cluster, vwl, estimate: str) -> float:
    planner = SplitQuantPlanner(
        spec, cluster, _BASE, cost_model=cost_model_for(spec, cluster)
    )
    res = planner.plan(vwl.planning_view(estimate))
    if res is None:
        return 0.0
    try:
        return simulate_plan(
            res.plan, cluster, spec, vwl
        ).throughput_tokens_s
    except OutOfMemoryError:
        return 0.0


def run(seed: int = 0) -> ExperimentResult:
    rows: List[List] = []
    summary: Dict[str, float] = {}

    wl = BatchWorkload(batch=32, prompt_len=512, output_len=100)

    # 1. Phase awareness (cluster 6: P100s, the largest phase divergence).
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(6)
    aware = _plan_tput(spec, cluster, wl, _BASE)
    blind = _plan_tput(
        spec, cluster, wl, dataclasses.replace(_BASE, phase_blind=True)
    )
    rows.append(["phase-awareness", "phase-aware", aware, 1.0])
    rows.append(["phase-awareness", "phase-blind", blind,
                 blind / aware if aware else 0.0])
    summary["phase_aware_gain"] = aware / blind if blind else float("inf")

    # 2. Micro-batch coupling (cluster 5).
    cluster = table_iii_cluster(5)
    free = _plan_tput(spec, cluster, wl, _BASE)
    tied = _plan_tput(
        spec, cluster, wl, dataclasses.replace(_BASE, tie_microbatches=True)
    )
    rows.append(["microbatch-sizing", "independent eta/xi", free, 1.0])
    rows.append(["microbatch-sizing", "tied eta == xi", tied,
                 tied / free if free else 0.0])
    summary["free_microbatch_gain"] = free / tied if tied else float("inf")

    # 3. Candidate dry-run verification (long-context, where the analytic
    #    formula is least exact).
    wl_long = BatchWorkload(batch=8, prompt_len=8192, output_len=64)
    verified = _plan_tput(
        get_model("qwen2.5-14b"), cluster, wl_long,
        dataclasses.replace(_BASE, verify_top_k=5),
    )
    unverified = _plan_tput(
        get_model("qwen2.5-14b"), cluster, wl_long,
        dataclasses.replace(_BASE, verify_top_k=1),
    )
    rows.append(["candidate-verify", "top-5 DES re-score", verified, 1.0])
    rows.append(["candidate-verify", "analytic only", unverified,
                 unverified / verified if verified else 0.0])
    summary["verify_gain"] = verified / max(unverified, 1e-9)

    # 4. KV-cache bitwidth planning (cluster 6, memory-tight).
    cluster6 = table_iii_cluster(6)
    kv16 = _plan_tput(spec, cluster6, wl, _BASE)
    kv_planned = _plan_tput(
        spec, cluster6, wl, dataclasses.replace(_BASE, kv_bit_choices=(8, 16))
    )
    rows.append(["kv-bitwidth", "fixed KV-16", kv16, 1.0])
    rows.append(["kv-bitwidth", "planned KV {8,16}", kv_planned,
                 kv_planned / kv16 if kv16 else 0.0])
    summary["kv_planning_gain"] = kv_planned / kv16 if kv16 else float("inf")

    # 5. Output-length estimator on a variable workload (cluster 5).
    rng = np.random.default_rng(seed)
    outs = tuple(
        int(v) for v in np.clip(rng.lognormal(np.log(80), 0.6, 32), 5, 300)
    )
    vwl = VariableBatchWorkload(prompt_len=512, output_lens=outs)
    mean_est = _variable_tput(spec, table_iii_cluster(5), vwl, "mean")
    max_est = _variable_tput(spec, table_iii_cluster(5), vwl, "max")
    rows.append(["output-estimator", "plan for mean n", mean_est, 1.0])
    rows.append(["output-estimator", "plan for max n", max_est,
                 max_est / mean_est if mean_est else 0.0])
    # Either estimator should serve the variable workload competitively;
    # which wins depends on the output-length tail.
    summary["mean_estimator_ok"] = float(mean_est >= max_est * 0.85)

    return ExperimentResult(
        name="ablations",
        title="Design-choice ablations (throughput on true simulator)",
        headers=["ablation", "variant", "tokens_per_s", "relative"],
        rows=rows,
        summary=summary,
        notes=(
            "Expected: phase-aware >= blind (largest on P100 clusters); "
            "free micro-batches >= tied; verification helps long-context; "
            "KV planning helps memory-tight clusters."
        ),
    )

#!/usr/bin/env python
"""Online serving on a heterogeneous pipeline: arrivals, continuous
batching, and SLO-aware admission.

The offline simulator answers "how fast does one closed batch finish?".
This demo drives the *online* driver built on the same event core:

1. **The contract.**  With every request arriving at t=0 and admission
   disabled, ``Session.serve_online`` must reproduce the offline
   ``simulate_plan`` bit-for-bit — same makespan, busy time, memory and
   event count.  The demo checks this first (the differential grid in
   ``tests/test_online_sim.py`` pins it permanently).
2. **Steady serving.**  A seeded Poisson stream at 150k requests/day
   (ShareGPT-sampled lengths) flows through the request queue, KV-aware
   admission and continuous micro-batch refill; per-request TTFT/TPOT
   p50/p95/p99 come out the other side.
3. **Overload + load shedding.**  The same group offered 2M requests/day
   with a 2s TTFT SLO: queued requests that blow the SLO are shed at the
   next scheduling point instead of dragging everyone else down.

Set ``SPLITQUANT_TRACE=trace.jsonl`` to capture the span timeline (the
normalized form is a golden fixture: ``tests/data/online_demo_trace
.norm.jsonl``).

Run:  PYTHONPATH=src python examples/online_serving_demo.py
"""

from repro import Session
from repro.hardware import make_cluster
from repro.pipeline import OnlineConfig
from repro.workloads import (
    BatchWorkload,
    closed_batch_trace,
    poisson_trace,
    rate_for_daily,
)


def report(title, res):
    print(f"\n{title}")
    print(f"  arrived/completed   : {res.arrived} / {res.completed}")
    print(f"  rejected (q/slo/oom): {res.rejected_queue} / "
          f"{res.rejected_slo} / {res.rejected_oom}")
    print(f"  groups formed       : {res.groups_formed}")
    print(f"  makespan            : {res.makespan_s:8.2f} s")
    print(f"  throughput          : {res.throughput_tokens_s:8.1f} tok/s")
    print(f"  mean concurrency    : {res.mean_concurrency:8.1f} requests")
    for name, vals in (("TTFT", res.ttft_percentile),
                       ("TPOT", res.tpot_percentile),
                       ("latency", res.latency_percentile)):
        print(f"  {name:<8}p50/p95/p99 : {vals(50):7.3f} / "
              f"{vals(95):7.3f} / {vals(99):7.3f} s")
    if res.ttft_slo_attainment is not None:
        print(f"  TTFT SLO attainment : {100 * res.ttft_slo_attainment:.1f}%"
              f" (SLO {res.ttft_slo_s:.1f} s)")


def main() -> None:
    cluster = make_cluster("demo", [("A100-40G", 1), ("V100-32G", 1)])
    sess = Session("opt-13b", cluster)
    wl = BatchWorkload(batch=16, prompt_len=512, output_len=32,
                       chunk_tokens=512)
    sess.plan(wl)

    # ------------------------------------------------------------------
    # 1. Degenerate online == offline, bit for bit.
    # ------------------------------------------------------------------
    offline = sess.simulate()
    degenerate = sess.serve_online(
        closed_batch_trace(wl),
        config=OnlineConfig(chunk_tokens=512, admission="none"),
    )
    assert offline.makespan_s == degenerate.makespan_s
    assert offline.stage_busy_s == degenerate.stage_busy_s
    assert offline.stage_memory_bytes == degenerate.stage_memory_bytes
    assert offline.events_processed == degenerate.events_processed
    print("contract: degenerate online run is bit-identical to the "
          "offline simulator")
    print(f"  makespan {offline.makespan_s:.4f} s, "
          f"{offline.events_processed} events either way")

    # ------------------------------------------------------------------
    # 2. Steady state: 150k requests/day on this two-GPU group.
    # ------------------------------------------------------------------
    steady = poisson_trace(
        rate_per_s=rate_for_daily(150_000), duration_s=60.0, seed=42,
        max_prompt_len=512, max_output_len=32,
    )
    print(f"\narrivals: {steady.describe()}")
    res = sess.serve_online(steady, config=OnlineConfig(chunk_tokens=512))
    report("steady serving (KV admission, no SLO)", res)

    # ------------------------------------------------------------------
    # 3. Overload: 2M requests/day with a 2-second TTFT SLO.
    # ------------------------------------------------------------------
    hot = poisson_trace(
        rate_per_s=rate_for_daily(2_000_000), duration_s=30.0, seed=7,
        max_prompt_len=512, max_output_len=32,
    )
    print(f"\narrivals: {hot.describe()}")
    shed = sess.serve_online(
        hot, config=OnlineConfig(chunk_tokens=512, ttft_slo_s=2.0),
    )
    report("overload with SLO-aware admission (TTFT SLO = 2 s)", shed)
    unshed = sess.serve_online(hot, config=OnlineConfig(chunk_tokens=512))
    print(f"\nwithout shedding the same stream takes "
          f"{unshed.makespan_s:.1f} s (vs {shed.makespan_s:.1f} s) and "
          f"TTFT p95 reaches {unshed.ttft_percentile(95):.1f} s "
          f"(vs {shed.ttft_percentile(95):.1f} s)")


if __name__ == "__main__":
    main()

"""One end-to-end benchmark for plan, fleet and online serving.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload plan-exact --seed 1 --seconds 30 --trace 0

A run repeats *passes* of the workload until ``--seconds`` have elapsed.
Each pass starts from empty in-process caches and a new, empty result
cache directory, sets up its inputs, makes the timed calls and checks
their outputs.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics (medians over passes); with ``--trace 1`` passes
alternate between untraced and traced (see ``ledger.py``) and the last
line holds the per-layer metrics.  Per-workload files land in
``.e2ebench-out/``: ``<workload>.metrics.json`` and, when tracing,
``<workload>.ledger.json``.

``wall_s`` and ``setup_s`` are host seconds scaled to a reference
speed: the benchmark times a fixed task (:class:`Reference`) between the
program's calls, and divides each call's time by the mean of the samples
taken just before and after it, times ``REF_S``; import time is scaled
by samples taken right after the imports.  On a shared host the same
call can take twice as long from one minute to the next; the scaled time
follows the program, not its neighbours.  Raw times sit beside the
scaled ones in the metrics file.

Everything runs in this one process on one thread.  The process exits
with code 2, printing no result, when the package sources are missing.

Out of scope: the segment-DP planning tier (``core.dp``, 20-80 ms per
plan at 100-4000 GPUs), the threaded ``runtime``, and the speed-up
ratios of ``benchmarks/BENCH_*.json``, which stay as they are.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench-out"

#: Every layer the traced run reports, in ``BENCHMARK.json`` order.
TIMED_LAYERS = (
    "costmodel.fit",
    "quant.indicator",
    "core.ilp.milp",
    "core.ilp.lp",
    "core.ilp.adabits",
    "core.ilp.highs",
    "core.heuristic.transfer",
    "pipeline.batchsim",
    "pipeline.simulator",
    "pipeline.online",
    "pipeline.online.tables",
    "pipeline.tables",
    "fleet.allocate",
    "fleet.simulate",
    "cache.get",
    "cache.put",
    "workloads.trace",
)
#: Layers whose call durations are also reported as p50 and tail.
DISTRIBUTION_LAYERS = ("core.planner.plan", "fleet.evaluate")
#: Simulated answers carried in the traced run (0 where not produced).
ANSWER_METRICS = (
    "fleet_makespan_s",
    "sim_ttft_p50_s",
    "sim_ttft_p99_s",
    "sim_tpot_p99_s",
    "sim_ttft_n",
    "sim_slo_attain",
    "sim_max_rate_rps",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("plan-exact", "fleet-beam", "serve-ladder"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def hermetic_env() -> None:
    """One thread, no program-side tracing, no inherited result cache."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("SPLITQUANT_TRACE", "SPLITQUANT_CACHE",
                "SPLITQUANT_CACHE_SALT"):
        os.environ.pop(var, None)


def cold_start(cache_dir: Path) -> None:
    """Empty every in-process memo and point the result cache at a new,
    empty directory, so that each pass pays what a fresh process pays."""
    import repro.pipeline as pipeline
    from repro.cache import default_cache

    pipeline.clear_table_caches()
    pipeline.clear_online_caches()
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)) and hasattr(
                    value, "__wrapped__"
                ):
                    value.cache_clear()
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    os.environ["SPLITQUANT_CACHE_DIR"] = str(cache_dir)
    cache = default_cache()
    if cache is None or cache.root != cache_dir or any(cache_dir.iterdir()):
        raise RuntimeError("the result cache is not a new, empty directory")
    gc.collect()


#: Seconds one reference sample takes at the reference speed that
#: ``wall_s`` and ``setup_s`` are scaled to.
REF_S = 0.06


class Reference:
    """A fixed interpreter-and-memory task, independent of the program.

    The host this runs on is shared: the same pass can take from 1x to
    2x as long within a minute.  Timing this task between the program's
    calls measures how fast the host runs right now, so that timings can
    be scaled to a fixed reference speed.
    """

    def __init__(self) -> None:
        import random

        import numpy as np

        rng = random.Random(0)
        self.keys = [rng.getrandbits(40) for _ in range(50_000)]
        self.table = {k: (k & 1023, float(k % 977)) for k in self.keys}
        rng.shuffle(self.keys)
        gen = np.random.default_rng(0)
        self.values = gen.random(1 << 18)
        self.index = gen.integers(0, 1 << 18, 1 << 18)
        self.samples: list = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for k in self.keys[:40_000]:
            a, b = self.table[k]
            acc += a * b
        sorted(self.keys[:16_000], key=self.table.__getitem__)
        float(self.values[self.index].sum())
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]


def run_pass(workload, ledger, cache_dir: Path, ref: Reference) -> dict:
    """Set up, make the timed calls, and time each against the reference
    samples taken right before and after it."""
    from workloads import attempt
    from repro.cache import default_cache

    cold_start(cache_dir)
    before = ref.sample()
    t0 = time.perf_counter()
    state = workload.setup(ledger)
    setup_s = time.perf_counter() - t0
    after = ref.sample()
    p = {"setup_s": setup_s, "wall_s": 0.0, "calls": [],
         "setup_ref_s": setup_s * 2 * REF_S / (before + after),
         "wall_ref_s": 0.0}
    for label, fn in workload.calls(state, ledger):
        before = after
        t0 = time.perf_counter()
        p["calls"].append(attempt(label, fn))
        took = time.perf_counter() - t0
        after = ref.sample()
        p["wall_s"] += took
        p["wall_ref_s"] += took * 2 * REF_S / (before + after)
    p["state"] = state
    p["cache_hits"] = default_cache().hits
    return p


def layer_metrics(ledgers, traced_walls, overhead_s, answers) -> dict:
    """Per-pass per-layer metrics, averaged over the traced passes."""
    from ledger import tail
    from workloads import RATES, rung_name

    n = len(ledgers)
    calls, self_s, durations, counters = {}, {}, {}, {}
    for lg in ledgers:
        for k, v in lg.calls.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in lg.self_s.items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in lg.durations.items():
            durations.setdefault(k, []).extend(v)
        for k, v in lg.counters.items():
            counters[k] = counters.get(k, 0) + v
    m = {}
    for layer in TIMED_LAYERS + DISTRIBUTION_LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0) / n
        m[f"{layer}.s"] = self_s.get(layer, 0.0) / n
    for layer in DISTRIBUTION_LAYERS:
        p50, tl, pct, count = tail(durations.get(layer, []))
        m[f"{layer}.p50_ms"] = p50 * 1e3
        m[f"{layer}.tail_ms"] = tl * 1e3
        m[f"{layer}.tail_pct"] = pct
        m[f"{layer}.n"] = count
    m["core.planner.infeasible"] = counters.get("core.planner.infeasible", 0) / n
    for key in ("enumerated", "pruned", "solved"):
        m[f"core.search.{key}"] = counters.get(f"core.search.{key}", 0) / n
    enumerated = counters.get("core.search.enumerated", 0)
    m["core.search.prune_ratio"] = (
        counters.get("core.search.pruned", 0) / enumerated if enumerated else 0.0
    )
    m["core.ilp.build.s"] = sum(
        m[f"core.ilp.{k}.s"] for k in ("milp", "lp", "adabits")
    )
    m["core.ilp.time_limited"] = counters.get("core.ilp.time_limited", 0) / n
    m["pipeline.batchsim.plans"] = counters.get("pipeline.batchsim.plans", 0) / n
    events = counters.get("pipeline.online.events", 0) / n
    m["pipeline.online.events"] = events
    online_s = sum(durations.get("pipeline.online", [])) / n
    m["pipeline.online.events_per_s"] = events / online_s if online_s else 0.0
    evals = calls.get("fleet.evaluate", 0)
    m["fleet.evaluate.hit_ratio"] = (
        counters.get("fleet.evaluate.hits", 0) / evals if evals else 0.0
    )
    m["cache.hits"] = counters.get("cache.hits", 0) / n
    wall = statistics.fmean(traced_walls)
    m["unattributed.s"] = wall - sum(self_s.values()) / n
    m["trace_overhead.s"] = overhead_s
    rungs = tuple(
        f"pipeline.online.{rung_name(rate)}.{key}"
        for rate in RATES
        for key in ("ttft_p99_s", "shed_frac", "drain_s")
    )
    for key in ANSWER_METRICS + rungs:
        m[key] = answers.get(key, 0.0)
    return m


def ledger_file(ledgers, traced_walls, metrics) -> dict:
    """The per-workload ledger: self and inclusive seconds and shares."""
    n = len(ledgers)
    wall = statistics.fmean(traced_walls)
    layers = {}
    for lg in ledgers:
        for k in lg.calls:
            row = layers.setdefault(k, {"calls": 0, "self_s": 0.0,
                                        "incl_s": 0.0})
            row["calls"] += lg.calls[k] / n
            row["self_s"] += lg.self_s[k] / n
            row["incl_s"] += sum(lg.durations[k]) / n
    for row in layers.values():
        row["share"] = row["self_s"] / wall
    attributed = sum(row["self_s"] for row in layers.values())
    return {
        "traced_wall_s": wall,
        "traced_passes": n,
        "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])),
        "unattributed_s": wall - attributed,
        "unattributed_share": (wall - attributed) / wall,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: package sources not found under {SRC}",
              file=sys.stderr)
        return 2
    hermetic_env()
    sys.path.insert(0, str(SRC))
    from ledger import Ledger, NullLedger, import_all, instrument
    from workloads import WORKLOADS, ServeLadder

    import_s = time.perf_counter() - T_START
    if args.trace:
        import_all()
    workload = WORKLOADS[args.workload](args.seed)
    ref = Reference()
    import_ref_s = import_s * REF_S / statistics.median(
        ref.sample() for _ in range(3))
    cache_root = OUT / f"cache-{os.getpid()}"
    passes, problems, pass_s = [], [], []
    # The run, set-up and checks included, lasts about --seconds.
    deadline = T_START + args.seconds
    try:
        if isinstance(workload, ServeLadder):
            why = workload.parity()
            if why:
                problems.append(why)
        while True:
            started = time.perf_counter()
            traced = bool(args.trace) and len(passes) % 2 == 1
            ledger = Ledger() if traced else NullLedger()
            if traced:
                with instrument(ledger):
                    p = run_pass(workload, ledger, cache_root, ref)
            else:
                p = run_pass(workload, ledger, cache_root, ref)
            p["traced"] = traced
            p["ledger"] = ledger
            p["answers"], p["fingerprint"] = workload.check(
                p.pop("state"), p["calls"]
            )
            passes.append(p)
            pass_s.append(time.perf_counter() - started)
            # Stop once another pass would end more than half a pass
            # after the deadline, so a run lasts about --seconds.
            left = deadline - time.perf_counter()
            have_both = not args.trace or len(passes) >= 2
            if have_both and left < 0.5 * statistics.median(pass_s):
                break
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    calls = [c for p in passes for c in p["calls"]]
    failed = [c for c in calls if c.error]
    for c in failed:
        problems.append(f"{c.label}: {c.error.strip()}")
    if any(p["cache_hits"] for p in passes):
        problems.append("a pass was served from the persistent result cache")
    # Every pass, traced or not, must give the same answers.
    if any(p["fingerprint"] != passes[0]["fingerprint"] or
           p["answers"] != passes[0]["answers"] for p in passes):
        problems.append("passes disagree on the simulated answers")
    answers = passes[0]["answers"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    if args.trace:
        walls = [p["setup_s"] + p["wall_s"] for p in traced]
        # Compared at reference speed, so that the host's drift between
        # the two kinds of pass does not read as tracing cost.
        overhead_s = statistics.median(
            p["setup_ref_s"] + p["wall_ref_s"] for p in traced
        ) - statistics.median(
            p["setup_ref_s"] + p["wall_ref_s"] for p in untraced
        )
        metrics = layer_metrics(
            [p["ledger"] for p in traced], walls, overhead_s, answers
        )
        ledger = ledger_file([p["ledger"] for p in traced], walls, metrics)
        if ledger["unattributed_s"] < -1e-6 * ledger["traced_wall_s"]:
            problems.append("layer self times exceed the traced wall time")
        units = {}
    else:
        ok_frac = 1.0 - len(failed) / len(calls)
        metrics = {
            "setup_s": import_ref_s + statistics.median(
                p["setup_ref_s"] for p in untraced),
            "wall_s": statistics.median(p["wall_ref_s"] for p in untraced),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok_frac,
        }
        if "plan_tput_tok_s" in answers:
            metrics["plan_tput_tok_s"] = answers["plan_tput_tok_s"]
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                 "ok_frac": "share", "plan_tput_tok_s": "tok/s"}

    for why in problems:
        print(f"e2ebench: FAILED {why}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {
            k: {"value": v, "unit": units.get(k, unit_of(k))}
            for k, v in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  passes=len(passes), answers=answers,
                  pass_wall_s=[p["wall_s"] for p in untraced],
                  pass_wall_ref_s=[p["wall_ref_s"] for p in untraced],
                  pass_setup_s=[p["setup_s"] for p in untraced],
                  import_s=import_s, import_ref_s=import_ref_s,
                  reference_s=ref.samples,
                  problems=problems)
    (OUT / f"{args.workload}.metrics.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        (OUT / f"{args.workload}.ledger.json").write_text(
            json.dumps(ledger, indent=1))
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("events_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_ratio", "_attain")):
        return "share"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_rps"):
        return "1/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

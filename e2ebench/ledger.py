"""The per-layer time ledger: spans recorded from outside the program.

Each layer is a public function or method of ``repro``.  While a
:class:`Ledger` is installed (:func:`instrument`), the name of every such
function is replaced, in every ``repro`` module that holds it, by a
wrapper that records one span per call; leaving the ``with`` block puts
the originals back.  Nothing under ``src/`` changes.

A span's *self* time is its duration minus the time its child spans
cover, so the self times of all layers plus ``unattributed.s`` add up to
the traced wall time exactly (the reconciliation the benchmark checks).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import sys
import time
from typing import Callable, Dict, List

import numpy as np


class Ledger:
    """Calls, self seconds, inclusive durations and counters per layer."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        #: Open spans, innermost last: [name, seconds covered by children].
        self._open: List[list] = []

    @contextlib.contextmanager
    def span(self, name: str):
        self._open.append([name, 0.0])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            d = time.perf_counter() - t0
            child = self._open.pop()[1]
            if self._open:
                self._open[-1][1] += d
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + d - child
            self.durations.setdefault(name, []).append(d)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def within(self, name: str) -> bool:
        return any(entry[0] == name for entry in self._open)


class NullLedger:
    """The untraced stand-in: spans and counters cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass


def tail(durations: List[float]):
    """(p50, tail value, tail percentile, n) of a sample of durations.

    The tail is the highest of the listed percentiles that still has at
    least ten samples beyond it; with fewer than 20 samples there is
    none and the tail and its percentile read 0.
    """
    n = len(durations)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    arr = np.asarray(durations, dtype=np.float64)
    p50 = float(np.percentile(arr, 50))
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return p50, float(np.percentile(arr, pct)), pct, n
    return p50, 0.0, 0.0, n


# ---------------------------------------------------------------------------
# Layer wrappers.  Each factory takes the original callable and the ledger
# and returns the replacement.
# ---------------------------------------------------------------------------


def _plain(name: str):
    def make(orig: Callable, ledger: Ledger) -> Callable:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with ledger.span(name):
                return orig(*args, **kwargs)

        return wrapper

    return make


def _planner_plan(orig, ledger):
    @functools.wraps(orig)
    def plan(self, workload, *args, **kwargs):
        with ledger.span("core.planner.plan"):
            result = orig(self, workload, *args, **kwargs)
        if result is None:
            ledger.count("core.planner.infeasible")
        elif result.search is not None:
            ledger.count("core.search.enumerated", result.search.enumerated)
            ledger.count("core.search.pruned", result.search.pruned)
            ledger.count("core.search.solved", result.search.solved)
        return result

    return plan


def _partition_ilp(orig, ledger):
    # ``solve_adabits`` reaches HiGHS through this function with the
    # latency terms dropped, so the mode names the layer.
    @functools.wraps(orig)
    def solve(*args, **kwargs):
        adabits = kwargs.get("latency_objective", True) is False or (
            len(args) >= 5 and args[4] is False
        )
        with ledger.span("core.ilp.adabits" if adabits else "core.ilp.milp"):
            return orig(*args, **kwargs)

    return solve


def _highs(orig, ledger):
    @functools.wraps(orig)
    def milp(*args, **kwargs):
        with ledger.span("core.ilp.highs"):
            res = orig(*args, **kwargs)
        if res.status == 1:  # HiGHS stopped at the time limit
            ledger.count("core.ilp.time_limited")
        return res

    return milp


def _tables(orig, ledger):
    # The event engines fill their duration tables from the topology on
    # demand; the online simulator's fills are reported on their own.
    @functools.wraps(orig)
    def fill(*args, **kwargs):
        online = ledger.within("pipeline.online")
        with ledger.span(
            "pipeline.online.tables" if online else "pipeline.tables"
        ):
            return orig(*args, **kwargs)

    return fill


def _evaluate_plans(orig, ledger):
    @functools.wraps(orig)
    def evaluate_plans(cases, *args, **kwargs):
        cases = list(cases)
        ledger.count("pipeline.batchsim.plans", len(cases))
        with ledger.span("pipeline.batchsim"):
            return orig(cases, *args, **kwargs)

    return evaluate_plans


def _pool_evaluate(orig, ledger):
    @functools.wraps(orig)
    def evaluate(self, job, group):
        hits = self.cache_hits
        with ledger.span("fleet.evaluate"):
            result = orig(self, job, group)
        ledger.count("fleet.evaluate.hits", self.cache_hits - hits)
        return result

    return evaluate


def _cache_get(orig, ledger):
    @functools.wraps(orig)
    def get(self, namespace, key):
        with ledger.span("cache.get"):
            value = orig(self, namespace, key)
        from repro.cache import MISS

        if value is not MISS:
            ledger.count("cache.hits")
        return value

    return get


#: (module, attribute, class or None, wrapper factory).  A function is
#: replaced in every loaded ``repro`` module that binds it; a method is
#: replaced on its class.
LAYERS = (
    ("repro.costmodel.latency", "fit", "LatencyCostModel",
     _plain("costmodel.fit")),
    ("repro.quant.sensitivity", "normalized_indicator_table", None,
     _plain("quant.indicator")),
    ("repro.core.planner", "plan", "SplitQuantPlanner", _planner_plan),
    ("repro.core.ilp", "solve_partition_ilp", None, _partition_ilp),
    ("repro.core.ilp", "solve_partition_lp_relaxation", None,
     _plain("core.ilp.lp")),
    ("repro.core.ilp", "milp", None, _highs),
    ("repro.core.heuristic", "bitwidth_transfer", None,
     _plain("core.heuristic.transfer")),
    ("repro.pipeline.batchsim", "evaluate_plans", None, _evaluate_plans),
    ("repro.pipeline.simulator", "simulate_plan", None,
     _plain("pipeline.simulator")),
    ("repro.pipeline.online", "online_tables", None, _tables),
    *(
        ("repro.pipeline.topology", method, "PipelineTopology", _tables)
        for method in ("prefill_time", "prefill_comm", "decode_series",
                       "decode_comm", "feedback_delay")
    ),
    ("repro.fleet.allocator", "evaluate", "PlannerPool", _pool_evaluate),
    ("repro.fleet.allocator", "allocate", "BeamAllocator",
     _plain("fleet.allocate")),
    ("repro.cache", "get", "ResultCache", _cache_get),
    ("repro.cache", "put", "ResultCache", _plain("cache.put")),
)


def import_all() -> None:
    """Import every ``repro`` module the workloads can reach.

    A module imported for the first time while the wrappers are in place
    would bind a wrapper by ``from ... import`` and keep it afterwards,
    so everything is imported before the first traced pass.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith(("repro.experiments", "repro.runtime")):
            importlib.import_module(info.name)


@contextlib.contextmanager
def instrument(ledger: Ledger):
    """Install the layer wrappers for the duration of the block."""
    undo = []
    try:
        for modname, attr, clsname, factory in LAYERS:
            module = importlib.import_module(modname)
            if clsname is not None:
                cls = getattr(module, clsname)
                orig = cls.__dict__[attr]
                setattr(cls, attr, factory(orig, ledger))
                undo.append((cls, attr, orig))
                continue
            orig = getattr(module, attr)
            wrapper = factory(orig, ledger)
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and (
                    getattr(mod, attr, None) is orig
                ):
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))
        yield ledger
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

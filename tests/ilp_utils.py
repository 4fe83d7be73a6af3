"""Planning subproblems of every MILP shape, shared by the ILP suites.

``make_problem`` builds one :class:`~repro.core.costs.PlanningProblem`
on a four-device heterogeneous cluster; ``SHAPES`` names the keyword sets
``tests/test_ilp_assembly.py`` and ``tests/test_ilp_highs.py`` cover.
Cost models are fitted once per process (seeded, so deterministic).
"""

from __future__ import annotations

import functools

from repro.core import StageGroup, build_problem
from repro.costmodel.latency import LatencyCostModel
from repro.hardware import make_cluster
from repro.models import get_model
from repro.quant import normalized_indicator_table
from repro.simgpu import Profiler
from repro.workloads import BatchWorkload

BITS = (3, 4, 8, 16)

SHAPES = {
    "base": {},
    "one-stage": {"stages": 1},
    "one-group": {"group_size": 40},
    "one-group-one-stage": {"stages": 1, "group_size": 40},
    "output-len-1": {"output_len": 1},
    "four-stages": {"stages": 4, "group_size": 5},
    # OPT-30B in groups of 3 over four stages: the Table-VI model size.
    "table-vi": {"model": "opt-30b", "stages": 4, "group_size": 3,
                 "batch": 64, "eta": 8, "xi": 16, "output_len": 128},
}


@functools.lru_cache(maxsize=None)
def _cluster():
    return make_cluster(
        "asm-4dev", [("T4-16G", 2), ("V100-32G", 1), ("A100-40G", 1)]
    )


@functools.lru_cache(maxsize=None)
def _cost_model(model):
    cm = LatencyCostModel(get_model(model))
    gpus = {d.gpu.name: d.gpu for d in _cluster().devices}
    cm.fit(list(gpus.values()), BITS, Profiler(seed=11))
    return cm


def make_problem(model="opt-13b", stages=2, group_size=8, output_len=32,
                 batch=8, eta=4, xi=4):
    spec, cluster = get_model(model), _cluster()
    ordering = tuple(
        StageGroup(device_ids=(d.device_id,), gpu=d.gpu)
        for d in cluster.devices[:stages]
    )
    wl = BatchWorkload(batch=batch, prompt_len=256, output_len=output_len)
    omega = normalized_indicator_table(spec, BITS)
    return build_problem(
        spec, cluster, ordering, wl, _cost_model(model), omega,
        eta=eta, xi=xi, bit_choices=BITS, group_size=group_size,
    )

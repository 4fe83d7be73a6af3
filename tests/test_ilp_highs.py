"""``repro.core.ilp.milp`` solves exactly as ``scipy.optimize.milp`` does.

The planner hands its assembled models straight to scipy's bundled HiGHS
bindings.  ``scipy.optimize.milp`` over the same arrays and options is
the oracle: every solve must return the same status code, the same
solution bytes (or ``None`` on both sides) and the same objective value.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp
from scipy.sparse import csc_array

from repro.core.ilp import _build_milp, _options, milp
from tests.ilp_utils import SHAPES, make_problem

#: Table-VI-sized OPT-30B, N == 1 and output_len == 1 next to the base.
CASE_SHAPES = ("base", "one-stage", "output-len-1", "table-vi")
#: (latency_objective, theta, mip_rel_gap) as solve_partition_ilp,
#: solve_adabits and solve_partition_lp_relaxation call HiGHS.
MODES = {
    "latency": (True, 10.0, 1e-4),
    "adabits": (False, 1.0, 1e-4),
    "lp": (True, 10.0, None),
}


def _model(shape, mode, budget):
    """One planner model; ``budget`` scales the all-3-bit quality sum
    (``None``: unbudgeted, negative: infeasible)."""
    problem = make_problem(**SHAPES[shape])
    latency_objective, theta, _ = MODES[mode]
    if budget is not None:
        budget *= float(problem.omega[:, 0].sum())
    model = _build_milp(problem, theta, budget, latency_objective)
    if mode == "lp":
        model = model._replace(integrality=np.zeros_like(model.integrality))
    return model


def _oracle(model, time_limit, mip_rel_gap):
    a = csc_array(
        (model.data, model.indices, model.indptr),
        shape=(model.b_u.size, model.c.size),
    )
    options = {"time_limit": time_limit}
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = mip_rel_gap
    return scipy_milp(
        model.c,
        constraints=LinearConstraint(a, model.b_l, model.b_u),
        integrality=model.integrality,
        bounds=Bounds(model.lb, model.ub),
        options=options,
    )


def _assert_same(got, ref):
    assert got.status == ref.status
    if ref.x is None:
        assert got.x is None and got.fun is None
    else:
        assert got.x.dtype == ref.x.dtype
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.fun == ref.fun


@pytest.mark.parametrize("shape", CASE_SHAPES)
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("budget", [None, 0.6])
def test_solve_matches_scipy_milp(shape, mode, budget):
    model = _model(shape, mode, budget)
    gap = MODES[mode][2]
    got = milp(model, 60.0, mip_rel_gap=gap)
    assert got.status == 0 and got.x is not None
    _assert_same(got, _oracle(model, 60.0, gap))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_infeasible_model_is_status_2(mode):
    model = _model("base", mode, -1.0)
    gap = MODES[mode][2]
    got = milp(model, 60.0, mip_rel_gap=gap)
    assert got.status == 2
    _assert_same(got, _oracle(model, 60.0, gap))


def test_time_limit_before_any_incumbent():
    """A zero time limit stops HiGHS before it finds a solution: status
    1 (time limit) with no solution, as scipy reports it."""
    model = _model("table-vi", "latency", None)
    got = milp(model, 0.0, mip_rel_gap=1e-4)
    assert got.status == 1 and got.x is None
    _assert_same(got, _oracle(model, 0.0, 1e-4))


def test_concurrent_solves_match_serial():
    """``parallelism > 1`` solves from a thread pool: each call builds its
    own solver, and the cached options, filled here by racing threads,
    are only read."""
    cases = [
        (shape, mode, budget)
        for shape in ("base", "one-stage", "table-vi")
        for mode in sorted(MODES)
        for budget in (None, 0.6)
    ]
    models = [_model(*case) for case in cases]
    gaps = [MODES[mode][2] for _, mode, _ in cases]
    serial = [milp(m, 60.0, mip_rel_gap=g) for m, g in zip(models, gaps)]
    workers = max(4, min((os.cpu_count() or 1) + 2, 16))
    _options.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [
                pool.submit(milp, m, 60.0, mip_rel_gap=g)
                for _ in range(3)
                for m, g in zip(models, gaps)
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(results):
        _assert_same(got, serial[i % len(models)])

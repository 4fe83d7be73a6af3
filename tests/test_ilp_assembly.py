"""The vectorized MILP assembly hands HiGHS exactly the element-wise model.

``_lil_build_milp`` below is the element-by-element ``lil_matrix``
assembly the cached-pattern builder replaced, kept here as the oracle.
Both models go through scipy's own input validation (``_milp_iv``, what
``scipy.optimize.milp`` passes to HiGHS) and every array must match
bit for bit, dtypes included.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import List

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize._milp import _milp_iv
from scipy.sparse import lil_matrix

from repro.core import StageGroup, build_problem
from repro.core.ilp import (
    _build_milp,
    _sparsity_pattern,
    solve_partition_ilp,
    solve_partition_lp_relaxation,
)
from repro.costmodel.latency import LatencyCostModel
from repro.hardware import make_cluster
from repro.quant import normalized_indicator_table
from repro.simgpu import Profiler
from repro.workloads import BatchWorkload

BITS = (3, 4, 8, 16)


def _zidx(problem, g, j, k):
    return (g * problem.n_stages + j) * problem.n_bits + k


def _lil_build_milp(problem, theta, quality_budget, latency_objective=True):
    G, N, K = problem.n_groups, problem.n_stages, problem.n_bits
    n = problem.workload.output_len
    nz = G * N * K
    i_pre, i_dec, i_d = nz, nz + 1, nz + 2
    nvars = nz + 3

    c = np.zeros(nvars)
    for g in range(G):
        for j in range(N):
            for k in range(K):
                idx = _zidx(problem, g, j, k)
                if latency_objective:
                    c[idx] = problem.l_pre[g, j, k] + theta * problem.omega[g, k]
                else:
                    c[idx] = problem.omega[g, k] + 1e-4 * (
                        problem.l_pre[g, j, k] + problem.l_dec[g, j, k]
                    )
    if latency_objective:
        c[i_pre] = max(problem.prefill_jobs - 1, 0)
        c[i_d] = 1.0

    constraints: List[LinearConstraint] = []
    a_assign = lil_matrix((G, nvars))
    for g in range(G):
        for j in range(N):
            for k in range(K):
                a_assign[g, _zidx(problem, g, j, k)] = 1.0
    constraints.append(LinearConstraint(a_assign.tocsr(), 1.0, 1.0))

    if latency_objective:
        a = lil_matrix((N, nvars))
        ub = np.zeros(N)
        for j in range(N):
            for g in range(G):
                for k in range(K):
                    a[j, _zidx(problem, g, j, k)] = problem.l_pre[g, j, k]
            a[j, i_pre] = -1.0
            ub[j] = -problem.const_pre[j]
        constraints.append(LinearConstraint(a.tocsr(), -np.inf, ub))

        a = lil_matrix((N, nvars))
        ub = np.zeros(N)
        for j in range(N):
            for g in range(G):
                for k in range(K):
                    a[j, _zidx(problem, g, j, k)] = problem.l_dec[g, j, k]
            a[j, i_dec] = -1.0
            ub[j] = -problem.const_dec[j]
        constraints.append(LinearConstraint(a.tocsr(), -np.inf, ub))

        a = lil_matrix((2, nvars))
        ub = np.zeros(2)
        a[0, i_dec] = (n - 1) * problem.mu_dec
        a[0, i_d] = -1.0
        ub[0] = 0.0
        for g in range(G):
            for j in range(N):
                for k in range(K):
                    a[1, _zidx(problem, g, j, k)] = (n - 1) * problem.l_dec[
                        g, j, k
                    ]
        a[1, i_d] = -1.0
        ub[1] = -(n - 1) * (
            float(problem.const_dec.sum()) + float(problem.comm_dec.sum())
        )
        constraints.append(LinearConstraint(a.tocsr(), -np.inf, ub))

    a = lil_matrix((N, nvars))
    for j in range(N):
        for g in range(G):
            for k in range(K):
                a[j, _zidx(problem, g, j, k)] = problem.mem[g, k]
    constraints.append(LinearConstraint(a.tocsr(), -np.inf, problem.capacity))

    if N > 1 and G > 1:
        a = lil_matrix(((G - 1) * (N - 1), nvars))
        row = 0
        for g in range(G - 1):
            for j in range(N - 1):
                for jj in range(j + 1):
                    for k in range(K):
                        a[row, _zidx(problem, g, jj, k)] = 1.0
                        a[row, _zidx(problem, g + 1, jj, k)] = -1.0
                row += 1
        constraints.append(LinearConstraint(a.tocsr(), 0.0, np.inf))

    if N > 1:
        a = lil_matrix((N, nvars))
        for j in range(N):
            for g in range(G):
                for k in range(K):
                    a[j, _zidx(problem, g, j, k)] = 1.0
        constraints.append(LinearConstraint(a.tocsr(), 1.0, np.inf))

    if quality_budget is not None:
        a = lil_matrix((1, nvars))
        for g in range(G):
            for j in range(N):
                for k in range(K):
                    a[0, _zidx(problem, g, j, k)] = problem.omega[g, k]
        constraints.append(LinearConstraint(a.tocsr(), -np.inf, quality_budget))

    integrality = np.zeros(nvars)
    integrality[:nz] = 1
    lb = np.zeros(nvars)
    ub_v = np.full(nvars, np.inf)
    ub_v[:nz] = 1.0
    if problem.comm_pre.size:
        lb[i_pre] = float(problem.comm_pre.max())
        lb[i_dec] = float(problem.comm_dec.max())
    return c, constraints, integrality, Bounds(lb, ub_v)


@pytest.fixture(scope="module")
def four_stage_cluster():
    return make_cluster(
        "asm-4dev", [("T4-16G", 2), ("V100-32G", 1), ("A100-40G", 1)]
    )


@pytest.fixture(scope="module")
def cost_models(opt13b, opt30b, four_stage_cluster):
    gpus = {d.gpu.name: d.gpu for d in four_stage_cluster.devices}
    out = {}
    for spec in (opt13b, opt30b):
        cm = LatencyCostModel(spec)
        cm.fit(list(gpus.values()), BITS, Profiler(seed=11))
        out[spec.name] = cm
    return out


@pytest.fixture(scope="module")
def make_problem(four_stage_cluster, cost_models, opt13b, opt30b):
    specs = {"opt-13b": opt13b, "opt-30b": opt30b}

    def make(model="opt-13b", stages=2, group_size=8, output_len=32,
             batch=8, eta=4, xi=4):
        spec = specs[model]
        ordering = tuple(
            StageGroup(device_ids=(d.device_id,), gpu=d.gpu)
            for d in four_stage_cluster.devices[:stages]
        )
        wl = BatchWorkload(batch=batch, prompt_len=256, output_len=output_len)
        omega = normalized_indicator_table(spec, BITS)
        return build_problem(
            spec, four_stage_cluster, ordering, wl, cost_models[spec.name],
            omega, eta=eta, xi=xi, bit_choices=BITS, group_size=group_size,
        )

    return make


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


def _highs_inputs(c, constraints, integrality, bounds):
    return _milp_iv(c, integrality, bounds, constraints, None)[:-1]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("latency_objective", [True, False])
@pytest.mark.parametrize("budgeted", [False, True])
def test_highs_inputs_identical(make_problem, shape, latency_objective,
                                budgeted):
    problem = make_problem(**SHAPES[shape])
    budget = 0.5 * float(problem.omega[:, 0].sum()) if budgeted else None
    theta = 10.0 if latency_objective else 1.0
    ref = _lil_build_milp(problem, theta, budget, latency_objective)
    got = _build_milp(problem, theta, budget, latency_objective)
    names = ("c", "integrality", "lb", "ub", "indptr", "indices", "data",
             "b_l", "b_u")
    for name, r, g in zip(names, _highs_inputs(*ref), _highs_inputs(*got)):
        assert g.dtype == r.dtype, name
        assert g.shape == r.shape, name
        assert g.tobytes() == r.tobytes(), name
    # The constraint the builder returns is one CSC matrix.
    assert isinstance(got[1], LinearConstraint)
    assert got[1].A.format == "csc"


def test_output_len_one_drops_zero_span_coefficients(make_problem):
    problem = make_problem(output_len=1)
    _, constraint, _, _ = _build_milp(problem, 10.0, None)
    assert np.all(constraint.A.data != 0)
    pattern = _sparsity_pattern(
        problem.n_groups, problem.n_stages, problem.n_bits, True, False
    )
    assert constraint.A.nnz < pattern.indices.size


def test_pattern_is_cached_and_read_only(make_problem):
    problem = make_problem()
    key = (problem.n_groups, problem.n_stages, problem.n_bits, True, True)
    pattern = _sparsity_pattern(*key)
    assert _sparsity_pattern(*key) is pattern
    for name, arr in pattern._asdict().items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[...] = 0


@pytest.mark.parametrize("shape", ["base", "four-stages", "output-len-1"])
@pytest.mark.parametrize("budgeted", [False, True])
def test_solves_identical_to_oracle_model(make_problem, monkeypatch, shape,
                                          budgeted):
    from repro.core import ilp

    problem = make_problem(**SHAPES[shape])
    budget = 0.6 * float(problem.omega[:, 0].sum()) if budgeted else None
    new = (
        solve_partition_ilp(problem, 10.0, budget, latency_objective=True),
        solve_partition_ilp(problem, 1.0, budget, latency_objective=False),
        solve_partition_lp_relaxation(problem, 10.0, budget),
    )
    monkeypatch.setattr(ilp, "_build_milp", _lil_build_milp)
    old = (
        solve_partition_ilp(problem, 10.0, budget, latency_objective=True),
        solve_partition_ilp(problem, 1.0, budget, latency_objective=False),
        solve_partition_lp_relaxation(problem, 10.0, budget),
    )

    def strip(sol):
        return sol if sol is None else replace(sol, solve_time_s=0.0)

    assert [strip(s) for s in new[:2]] == [strip(s) for s in old[:2]]
    assert new[2] == old[2]


def test_pattern_cache_shared_across_threads(make_problem):
    """Solves with ``parallelism > 1`` build models concurrently from one
    cache; a cold cache filled by racing threads must give every thread
    the serial model."""
    problems = [make_problem(**SHAPES[s]) for s in ("base", "four-stages")]
    expected = [_highs_inputs(*_build_milp(p, 10.0, None)) for p in problems]
    workers = min((os.cpu_count() or 1) + 2, 16)
    _sparsity_pattern.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [
                pool.submit(lambda p=p: _highs_inputs(*_build_milp(p, 10.0, None)))
                for _ in range(workers)
                for p in problems
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(results):
        for r, g in zip(expected[i % len(problems)], got):
            assert g.tobytes() == r.tobytes()

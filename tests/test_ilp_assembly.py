"""The vectorized MILP assembly hands HiGHS exactly the element-wise model.

``_lil_build_milp`` below is the element-by-element ``lil_matrix``
assembly the cached-pattern builder replaced, kept here as the oracle.
The oracle goes through scipy's own input validation (``_milp_iv``, what
``scipy.optimize.milp`` passes to HiGHS), and every array of the
builder's raw model must match it bit for bit, dtypes included.
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

from repro.core.ilp import (
    _build_milp,
    _Model,
    _sparsity_pattern,
    solve_partition_ilp,
    solve_partition_lp_relaxation,
)
from tests.ilp_utils import SHAPES, make_problem


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


def _lil_model(problem, theta, quality_budget, latency_objective=True):
    """The oracle's model as ``scipy.optimize.milp`` hands it to HiGHS."""
    c, constraints, integrality, bounds = _lil_build_milp(
        problem, theta, quality_budget, latency_objective
    )
    c, integrality, lb, ub, indptr, indices, data, b_l, b_u, _ = _milp_iv(
        c, integrality, bounds, constraints, None
    )
    return _Model(c, indptr, indices, data, b_l, b_u, lb, ub, integrality)


def _assert_same_model(got, ref):
    assert isinstance(got, _Model)
    for name, g, r in zip(_Model._fields, got, ref):
        assert isinstance(g, np.ndarray), name
        assert g.dtype == r.dtype, name
        assert g.shape == r.shape, name
        assert g.tobytes() == r.tobytes(), name


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("latency_objective", [True, False])
@pytest.mark.parametrize("budgeted", [False, True])
def test_highs_inputs_identical(shape, latency_objective, budgeted):
    problem = make_problem(**SHAPES[shape])
    budget = 0.5 * float(problem.omega[:, 0].sum()) if budgeted else None
    theta = 10.0 if latency_objective else 1.0
    _assert_same_model(
        _build_milp(problem, theta, budget, latency_objective),
        _lil_model(problem, theta, budget, latency_objective),
    )


def test_output_len_one_drops_zero_span_coefficients():
    problem = make_problem(output_len=1)
    model = _build_milp(problem, 10.0, None)
    assert np.all(model.data != 0)
    pattern = _sparsity_pattern(
        problem.n_groups, problem.n_stages, problem.n_bits, True, False
    )
    assert model.data.size < pattern.indices.size


def test_pattern_is_cached_and_read_only():
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
def test_solves_identical_to_oracle_model(monkeypatch, shape, budgeted):
    from repro.core import ilp

    problem = make_problem(**SHAPES[shape])
    budget = 0.6 * float(problem.omega[:, 0].sum()) if budgeted else None
    new = (
        solve_partition_ilp(problem, 10.0, budget, latency_objective=True),
        solve_partition_ilp(problem, 1.0, budget, latency_objective=False),
        solve_partition_lp_relaxation(problem, 10.0, budget),
    )
    monkeypatch.setattr(ilp, "_build_milp", _lil_model)
    old = (
        solve_partition_ilp(problem, 10.0, budget, latency_objective=True),
        solve_partition_ilp(problem, 1.0, budget, latency_objective=False),
        solve_partition_lp_relaxation(problem, 10.0, budget),
    )

    def strip(sol):
        return sol if sol is None else replace(sol, solve_time_s=0.0)

    assert [strip(s) for s in new[:2]] == [strip(s) for s in old[:2]]
    assert new[2] == old[2]


def test_pattern_cache_shared_across_threads():
    """Solves with ``parallelism > 1`` build models concurrently from one
    cache; a cold cache filled by racing threads must give every thread
    the serial model."""
    problems = [make_problem(**SHAPES[s]) for s in ("base", "four-stages")]
    expected = [_build_milp(p, 10.0, None) for p in problems]
    workers = min((os.cpu_count() or 1) + 2, 16)
    _sparsity_pattern.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [
                pool.submit(_build_milp, p, 10.0, None)
                for _ in range(workers)
                for p in problems
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, got in enumerate(results):
        _assert_same_model(got, expected[i % len(problems)])

"""The joint partition + bitwidth ILP (objective (4), constraints (5)-(16)).

Decision variables ``z[g, j, k]`` place layer group ``g`` on stage ``j``
at bitwidth ``bit_choices[k]``; continuous epigraph variables model the
slowest-stage times and the decode-span max.  Solved with HiGHS (the
GUROBI substitute) through the bindings scipy bundles, honoring a
wall-clock time limit like the paper's 60 s solver budget (Sec. VI-F).

The *adabits* variant (pure adaptive quantization, Sec. IV-C / VI-H)
drops the latency terms and minimizes the quality indicator alone under
the same memory/contiguity constraints.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # scipy < 1.15 bundles HiGHS without this module
    raise ImportError(
        "repro.core.ilp calls HiGHS through scipy.optimize._highspy, "
        "which needs scipy>=1.15"
    ) from exc

from ..obs import metrics, trace
from .costs import PlanningProblem

#: Re-entrancy state for :func:`_silenced_stdout`.  The search engine may
#: run several HiGHS solves concurrently; naive per-thread ``dup2`` juggling
#: races (one thread can "restore" another thread's devnull as the real
#: stdout and permanently swallow fd 1), so redirection is reference-counted
#: under a lock: the first solver in redirects, the last one out restores.
_silence_lock = threading.Lock()
_silence_depth = 0
_silence_saved_fd: Optional[int] = None
_silence_devnull = None


@contextlib.contextmanager
def _silenced_stdout():
    """Mute HiGHS's C-level debug chatter during a solve (thread-safe).

    Some HiGHS builds print internal diagnostics straight to fd 1, which
    scipy's ``disp=False`` cannot suppress.
    """
    global _silence_depth, _silence_saved_fd, _silence_devnull
    with _silence_lock:
        if _silence_depth == 0:
            try:
                _silence_saved_fd = os.dup(1)
            except OSError:  # exotic environments without a real fd 1
                _silence_saved_fd = None
            if _silence_saved_fd is not None:
                _silence_devnull = open(os.devnull, "wb")
                os.dup2(_silence_devnull.fileno(), 1)
        _silence_depth += 1
    try:
        yield
    finally:
        with _silence_lock:
            _silence_depth -= 1
            if _silence_depth == 0 and _silence_saved_fd is not None:
                os.dup2(_silence_saved_fd, 1)
                os.close(_silence_saved_fd)
                _silence_saved_fd = None
                _silence_devnull.close()
                _silence_devnull = None


@dataclass(frozen=True)
class ILPSolution:
    """A solved planning subproblem."""

    #: Stage index per layer group.
    assign_stage: Tuple[int, ...]
    #: Bitwidth per layer group.
    assign_bits: Tuple[int, ...]
    objective: float
    latency_s: float
    quality: float
    solve_time_s: float
    status: str


#: The fixed slots that head the coefficient source and the row
#: upper-bound source; the problem's tensors follow (see _build_milp).
_ONE, _MINUS_ONE, _SPAN_MU = range(3)
_U_ONE, _U_ZERO, _U_INF, _U_SPAN, _U_BUDGET = range(5)


class _Pattern(NamedTuple):
    """One MILP shape's structure, in the CSC order HiGHS reads."""

    source: np.ndarray  # per nonzero: index into the coefficient source
    indices: np.ndarray  # per nonzero: row (int32)
    indptr: np.ndarray  # column pointers (int32)
    b_l: np.ndarray  # row lower bounds
    upper: np.ndarray  # per row: index into the upper-bound source


@functools.lru_cache(maxsize=256)
def _sparsity_pattern(
    G: int, N: int, K: int, latency_objective: bool, budgeted: bool
) -> _Pattern:
    """Where the nonzeros of constraints (5)-(16) sit, for one shape.

    Column ``(g * N + j) * K + k`` is ``z[g, j, k]``; then come
    ``T_pre_max``, ``T_dec_max`` and the decode span ``D``.  Row blocks,
    in order: assignment (9)-(11); prefill (5), decode (6) and decode
    span (latency objective only); memory (12)-(13); contiguity
    (15)-(16); non-empty stages; quality budget (when budgeted).  The
    arrays are read-only, so concurrent solves share one pattern.
    """
    nz = G * N * K
    i_pre, i_dec, i_d = nz, nz + 1, nz + 2
    z = np.arange(nz)
    g_of, j_of, k_of = np.unravel_index(z, (G, N, K))
    gk, stages = g_of * K + k_of, np.arange(N)
    s_pre, s_dec, s_span, s_mem, s_omega = 3 + np.cumsum([0, nz, nz, nz, G * K])
    u_pre, u_dec, u_cap = 5, 5 + N, 5 + 2 * N
    rows, cols, sources, b_l, upper = [], [], [], [], []

    def block(lb, ub, *entries):
        # ``ub`` holds one upper-bound source index per row; each entry
        # is (row within the block, column, coefficient source index).
        row0 = sum(u.size for u in upper)
        for r, c, s in entries:
            r, c, s = (np.ravel(a) for a in np.broadcast_arrays(r, c, s))
            rows.append(row0 + r)
            cols.append(c)
            sources.append(s)
        upper.append(np.asarray(ub))
        b_l.append(np.full(upper[-1].size, lb))

    block(1.0, np.full(G, _U_ONE), (g_of, z, _ONE))
    if latency_objective:
        block(-np.inf, u_pre + stages,
              (j_of, z, s_pre + z), (stages, i_pre, _MINUS_ONE))
        block(-np.inf, u_dec + stages,
              (j_of, z, s_dec + z), (stages, i_dec, _MINUS_ONE))
        block(-np.inf, [_U_ZERO, _U_SPAN],
              (0, i_dec, _SPAN_MU), (0, i_d, _MINUS_ONE),
              (1, z, s_span + z), (1, i_d, _MINUS_ONE))
    block(-np.inf, u_cap + stages, (j_of, z, s_mem + gk))
    # Row (g, j): stages 0..j hold no less of group g than of group g+1.
    g, j, jj, k = np.indices((G - 1, N - 1, N - 1, K)).reshape(4, -1)
    r, c = (g * (N - 1) + j)[jj <= j], ((g * N + jj) * K + k)[jj <= j]
    block(0.0, np.full((G - 1) * (N - 1), _U_INF),
          (r, c, _ONE), (r, c + N * K, _MINUS_ONE))
    if N > 1:
        block(1.0, np.full(N, _U_INF), (j_of, z, _ONE))
    if budgeted:
        block(-np.inf, [_U_BUDGET], (0, z, s_omega + gk))

    rows_a, cols_a = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((rows_a, cols_a))
    pattern = _Pattern(
        source=np.concatenate(sources)[order],
        indices=rows_a[order].astype(np.int32),
        indptr=np.searchsorted(cols_a[order], np.arange(nz + 4)).astype(np.int32),
        b_l=np.concatenate(b_l),
        upper=np.concatenate(upper),
    )
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


class _Model(NamedTuple):
    """One subproblem in the arrays HiGHS reads, in the dtypes scipy's
    ``milp`` would pass: ``min c @ x  s.t.  b_l <= A @ x <= b_u,
    lb <= x <= ub`` with ``A`` in CSC form and integer columns marked 1
    in ``integrality``."""

    c: np.ndarray
    indptr: np.ndarray  # int32
    indices: np.ndarray  # int32
    data: np.ndarray
    b_l: np.ndarray
    b_u: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray  # uint8


def _build_milp(
    problem: PlanningProblem,
    theta: float,
    quality_budget: Optional[float],
    latency_objective: bool = True,
) -> _Model:
    """Assemble objective (4) + constraints (5)-(16) for one subproblem.

    Shared between the exact branch-and-bound solve and the LP relaxation
    the search engine uses as an admissible pruning bound — both must see
    bit-identical matrices for the bound to be sound.  Only coefficients
    and right-hand sides are computed here; zero coefficients are dropped.
    """
    G, N, K = problem.n_groups, problem.n_stages, problem.n_bits
    n = problem.workload.output_len
    nz = G * N * K
    pattern = _sparsity_pattern(
        G, N, K, latency_objective, quality_budget is not None
    )

    c = np.zeros(nz + 3)
    if latency_objective:
        c[:nz] = (problem.l_pre + theta * problem.omega[:, None, :]).ravel()
        c[nz], c[nz + 2] = max(problem.prefill_jobs - 1, 0), 1.0
    else:
        # Tiny latency tie-breaker: the quality-only problem has a large
        # plateau of symmetric optima that stalls branch-and-bound;
        # epsilon-perturbing with layer costs breaks the symmetry without
        # changing the quality optimum materially.
        c[:nz] = (
            problem.omega[:, None, :] + 1e-4 * (problem.l_pre + problem.l_dec)
        ).ravel()

    coef = np.concatenate((
        [1.0, -1.0, (n - 1) * problem.mu_dec],
        problem.l_pre.ravel(), problem.l_dec.ravel(),
        ((n - 1) * problem.l_dec).ravel(),
        problem.mem.ravel(), problem.omega.ravel(),
    ))
    span = -(n - 1) * (
        float(problem.const_dec.sum()) + float(problem.comm_dec.sum())
    )
    budget = np.inf if quality_budget is None else quality_budget
    bound = np.concatenate((
        [1.0, 0.0, np.inf, span, budget],
        -problem.const_pre, -problem.const_dec, problem.capacity,
    ))
    data = coef[pattern.source]
    nonzero = data != 0
    kept = np.concatenate(([0], np.cumsum(nonzero)))  # nonzeros before each

    integrality = np.zeros(nz + 3, np.uint8)
    integrality[:nz] = 1
    lb, ub = np.zeros(nz + 3), np.full(nz + 3, np.inf)
    ub[:nz] = 1.0
    if problem.comm_pre.size:
        lb[nz] = float(problem.comm_pre.max())
        lb[nz + 1] = float(problem.comm_dec.max())
    return _Model(
        c, kept[pattern.indptr].astype(np.int32), pattern.indices[nonzero],
        data[nonzero], pattern.b_l, bound[pattern.upper], lb, ub, integrality,
    )


class _Result(NamedTuple):
    """One HiGHS solve: the status code scipy's ``milp`` would report, and
    the solution and objective value (both ``None`` when there is none)."""

    status: int
    x: Optional[np.ndarray]
    fun: Optional[float]


_MS = _highs.HighsModelStatus
#: HiGHS model status -> the code scipy's ``milp`` reports for it; every
#: status not listed (kSolutionLimit included) reports 4.
_SCIPY_STATUS = {
    _MS.kOptimal: 0,
    _MS.kTimeLimit: 1,
    _MS.kIterationLimit: 1,
    _MS.kInfeasible: 2,
    _MS.kModelError: 2,
    _MS.kUnbounded: 3,
}
#: Statuses at which a MIP may still hold an incumbent solution.
_MIP_LIMITS = (_MS.kTimeLimit, _MS.kIterationLimit, _MS.kSolutionLimit)
#: HiGHS column type per ``integrality`` code: 0 continuous, 1 integer.
_VAR_TYPES = (_highs.HighsVarType(0), _highs.HighsVarType(1))


@functools.lru_cache(maxsize=16)
def _options(time_limit: float, mip_rel_gap: Optional[float]):
    """The options scipy's ``milp`` sets.  Shared by every solve
    and only ever read: ``passOptions`` copies them into the solver."""
    options = _highs.HighsOptions()
    options.log_to_console = False
    options.time_limit = time_limit
    if mip_rel_gap is not None:
        options.mip_rel_gap = mip_rel_gap
    return options


def milp(
    model: _Model, time_limit: float, mip_rel_gap: Optional[float] = None
) -> _Result:
    """Solve ``model`` with scipy's bundled HiGHS, as scipy's ``milp``
    does: the same model, option values and ``passOptions`` / ``passModel``
    / ``run`` calls, the same status codes and the same rules for when a
    solution may be read.  Left out are scipy's input validation and the
    duals, basis and result object nobody here reads.  Each call gets its
    own solver, so concurrent solves stay independent.
    """
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = model.b_u.size
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.col_cost_ = model.c
    lp.col_lower_ = model.lb
    lp.col_upper_ = model.ub
    lp.row_lower_ = model.b_l
    lp.row_upper_ = model.b_u
    lp.a_matrix_.start_ = model.indptr
    lp.a_matrix_.index_ = model.indices
    lp.a_matrix_.value_ = model.data
    integrality = model.integrality.tolist()
    lp.integrality_ = [_VAR_TYPES[i] for i in integrality]

    highs = _highs._Highs()
    error = _highs.HighsStatus.kError
    if highs.passOptions(_options(time_limit, mip_rel_gap)) == error:
        status = highs.getModelStatus()
    elif highs.passModel(lp) == error:
        status = _MS.kModelError  # a model that fails to load sets none
    elif highs.run() == error:
        status = highs.getModelStatus()
    else:
        status = highs.getModelStatus()
        fun = highs.getInfo().objective_function_value
        if any(integrality):
            solved = status == _MS.kOptimal or (
                status in _MIP_LIMITS and fun != _highs.kHighsInf
            )
        else:
            solved = status == _MS.kOptimal
        if solved:
            x = np.array(highs.getSolution().col_value)
            return _Result(_SCIPY_STATUS.get(status, 4), x, fun)
    return _Result(_SCIPY_STATUS.get(status, 4), None, None)


def solve_partition_ilp(
    problem: PlanningProblem,
    theta: float = 10.0,
    quality_budget: Optional[float] = None,
    time_limit_s: float = 60.0,
    latency_objective: bool = True,
) -> Optional[ILPSolution]:
    """Solve one planning subproblem; ``None`` when infeasible.

    ``latency_objective=False`` yields the *adabits* problem: minimize the
    quality indicator only (the latency epigraphs are dropped).
    """
    t0 = time.perf_counter()
    G, N, K = problem.n_groups, problem.n_stages, problem.n_bits
    model = _build_milp(problem, theta, quality_budget, latency_objective)

    with trace.span(
        "ilp.solve",
        groups=G,
        stages=N,
        bits=K,
        mode="latency" if latency_objective else "adabits",
        budgeted=quality_budget is not None,
    ) as sp:
        with _silenced_stdout():
            res = milp(model, time_limit_s, mip_rel_gap=1e-4)
        sp.set(status=int(res.status), feasible=res.x is not None)
    solve_time = time.perf_counter() - t0
    if trace.enabled:
        metrics.counter("ilp.solves").inc()
        metrics.histogram("ilp.solve_time_s").observe(solve_time)
        if res.x is None:
            metrics.counter("ilp.infeasible").inc()
    if res.x is None:
        return None

    z = res.x[: G * N * K].reshape(G, N * K)
    stage, kidx = np.unravel_index(z.argmax(axis=1), (N, K))
    assign_stage = [int(j) for j in stage]
    assign_bits = [int(problem.bit_choices[k]) for k in kidx]
    latency = problem.latency_estimate(assign_stage, assign_bits)
    quality = problem.quality_sum(assign_bits)
    return ILPSolution(
        assign_stage=tuple(assign_stage),
        assign_bits=tuple(assign_bits),
        objective=float(res.fun),
        latency_s=latency,
        quality=quality,
        solve_time_s=solve_time,
        status="optimal" if res.status == 0 else f"status-{res.status}",
    )


def solve_adabits(
    problem: PlanningProblem,
    quality_budget: Optional[float] = None,
    time_limit_s: float = 60.0,
) -> Optional[ILPSolution]:
    """Pure adaptive quantization: best quality that fits (no latency)."""
    return solve_partition_ilp(
        problem,
        theta=1.0,
        quality_budget=quality_budget,
        time_limit_s=time_limit_s,
        latency_objective=False,
    )


def solve_partition_lp_relaxation(
    problem: PlanningProblem,
    theta: float = 10.0,
    quality_budget: Optional[float] = None,
    time_limit_s: float = 60.0,
) -> Optional[float]:
    """LP relaxation of the partition MILP: an admissible score bound.

    Every feasible integer assignment scores
    ``latency + theta * quality  =  c @ z  +  sum(const_pre) +
    sum(comm_pre)`` (the epigraph variables are tight at a minimizer and
    the prefill constants/communication enter the score but not the
    objective vector), so the relaxation's optimum plus those constants
    lower-bounds the score of *any* solution a per-candidate solve can
    return.  Returns ``inf`` when the relaxation is provably infeasible
    (the integer problem then is too) and ``None`` when no bound could
    be computed (e.g. the LP hit the time limit) — callers must not
    prune on ``None``.
    """
    model = _build_milp(problem, theta, quality_budget, latency_objective=True)
    with trace.span(
        "ilp.lp_relaxation",
        groups=problem.n_groups,
        stages=problem.n_stages,
        budgeted=quality_budget is not None,
    ) as sp:
        with _silenced_stdout():
            res = milp(
                model._replace(integrality=np.zeros_like(model.integrality)),
                time_limit_s,
            )
        sp.set(status=int(res.status))
    if trace.enabled:
        metrics.counter("ilp.lp_relaxations").inc()
    if res.status == 2:  # LP infeasible => the ILP is infeasible as well
        return float("inf")
    if res.x is None:
        return None
    return float(res.fun) + float(
        problem.const_pre.sum() + problem.comm_pre.sum()
    )

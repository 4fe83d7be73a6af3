"""Planner configuration (the user inputs of Fig. 6, step 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of the SplitQuant assigner.

    ``theta`` is the paper's quality scalar trading throughput against
    model quality in objective (4); ``quality_budget`` instead imposes a
    hard cap on the summed variance indicator (the Sec. VI-C mode that
    guarantees at-least-Uniform quality).  ``group_size`` groups decoder
    layers for ILP-size reduction (Table VI); ``use_heuristic`` swaps the
    ILP for the bitwidth-transfer heuristic.
    """

    bit_choices: Tuple[int, ...] = (3, 4, 8, 16)
    #: Planning tier: ``"exact"`` runs the enumerating candidate search
    #: (MILP or hill-climb per candidate), ``"dp"`` the scalable
    #: DP-over-contiguous-segments planner, ``"auto"`` routes by instance
    #: size (exact up to :data:`repro.core.dp.AUTO_EXACT_MAX_DEVICES`
    #: GPUs, DP beyond).
    tier: str = "auto"
    theta: float = 10.0
    quality_budget: Optional[float] = None
    group_size: int = 2
    use_heuristic: bool = False
    #: Per-solve wall-clock limit for the MILP backend (seconds).
    time_limit_s: float = 60.0
    bit_kv: int = 16
    #: Candidate KV-cache bitwidths to enumerate (extension beyond the
    #: paper, which fixes ``bit_kv``); None plans at ``bit_kv`` only.
    kv_bit_choices: Optional[Tuple[int, ...]] = None
    #: Candidate micro-batch sizes; None derives powers of two from B.
    microbatch_candidates: Optional[Tuple[int, ...]] = None
    #: Cap on device-topology orderings explored (pruned search space).
    max_orderings: int = 24
    #: Re-score this many top candidates with the cost-model-driven event
    #: simulator before committing (dry-run refinement; 1 disables).
    verify_top_k: int = 3
    #: Explore intra-node tensor-parallel stage groupings.
    enable_tp: bool = True
    #: Ablation: force the prefill and decode micro-batch sizes equal.
    tie_microbatches: bool = False
    #: Ablation: plan with phase-blind costs (prefill ratios for both
    #: phases), disabling the paper's phase-aware partitioning.
    phase_blind: bool = False
    #: Worker threads for candidate solving in the search engine; 1 keeps
    #: the solve loop serial.  The chosen plan is bit-identical either way
    #: (deterministic reduction on (score, enumeration index)).
    parallelism: int = 1
    #: Planning objective: ``"throughput"`` (the paper's default),
    #: ``"energy"`` (J/token) or ``"cost"`` ($/Mtoken).  Non-throughput
    #: objectives re-rank the verified candidate frontier by the energy
    #: model (:mod:`repro.costmodel.energy`); with a ``budget`` they
    #: instead maximize throughput subject to the ceiling.
    objective: str = "throughput"
    #: Optional objective budget: a J/token ceiling under
    #: ``objective="energy"``, a $/Mtoken ceiling under
    #: ``objective="cost"``; ignored for ``"throughput"``.
    budget: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not self.bit_choices:
            raise ValueError("need at least one bitwidth choice")
        if sorted(self.bit_choices) != list(self.bit_choices):
            raise ValueError("bit_choices must be sorted ascending")
        # NaN passes ``x < 0`` and ``x <= 0``, so test finiteness explicitly.
        _check_finite("theta", self.theta, allow_zero=True)
        if self.quality_budget is not None:
            _check_finite("quality_budget", self.quality_budget, allow_zero=True)
        _check_finite("time_limit_s", self.time_limit_s, allow_zero=False)
        if self.budget is not None:
            _check_finite("budget", self.budget, allow_zero=False)
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.tier not in ("auto", "exact", "dp"):
            raise ValueError("tier must be one of 'auto', 'exact', 'dp'")
        if self.objective not in ("throughput", "energy", "cost"):
            raise ValueError(
                "objective must be one of 'throughput', 'energy', 'cost'"
            )


def _check_finite(name: str, value: float, *, allow_zero: bool) -> None:
    ok = math.isfinite(value) and (value >= 0 if allow_zero else value > 0)
    if not ok:
        sign = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")

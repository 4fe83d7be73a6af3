"""Fleet job model: offline serving jobs with deadline and quality SLOs.

A :class:`FleetJob` is one unit of fleet-level work: serve ``num_batches``
repetitions of a padded :class:`~repro.workloads.spec.BatchWorkload`
through one model, finishing within its deadline class, at a quality no
worse than uniform quantization at ``min_uniform_bits`` (the Sec. VI-C
hard-budget mode).  The scheduler carves a heterogeneous GPU group out of
the idle fleet for each job and runs the per-job SplitQuant planner on
that group.

:func:`make_job_queue` draws a seeded, reproducible queue of such jobs —
the multi-tenant offline traffic of the ROADMAP north star — mixing
models, batch shapes and deadline classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..workloads.spec import BatchWorkload, check_positive

__all__ = ["DEADLINE_HOURS", "FleetJob", "make_job_queue"]

#: Deadline classes (hours until due).  ``urgent`` jobs are scheduled
#: first, ``batch`` jobs soak up whatever capacity is left.
DEADLINE_HOURS: Dict[str, float] = {
    "urgent": 1.0,
    "daily": 24.0,
    "batch": 168.0,
}


@dataclass(frozen=True)
class FleetJob:
    """One offline serving job in the fleet queue."""

    job_id: str
    #: Registered model name (``repro.models.get_model``).
    model: str
    workload: BatchWorkload
    #: How many batches of ``workload`` the job must serve.
    num_batches: int = 1
    #: One of :data:`DEADLINE_HOURS`.
    deadline_class: str = "batch"
    #: Quality SLO: the plan's summed variance indicator must not exceed
    #: uniform quantization at this bitwidth (``None`` = planner default
    #: theta trade-off, no hard budget).
    min_uniform_bits: Optional[int] = None
    #: Tie-breaker within a deadline class; higher runs earlier.
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not self.model:
            raise ValueError("model must be non-empty")
        check_positive(num_batches=self.num_batches)
        if self.deadline_class not in DEADLINE_HOURS:
            raise ValueError(
                f"unknown deadline class {self.deadline_class!r} "
                f"(expected one of {sorted(DEADLINE_HOURS)})"
            )

    @property
    def deadline_s(self) -> float:
        """Seconds until this job is due."""
        return DEADLINE_HOURS[self.deadline_class] * 3600.0

    @property
    def total_output_tokens(self) -> int:
        """Output tokens the job produces across all its batches."""
        return self.num_batches * self.workload.total_output_tokens

    def sort_key(self) -> Tuple[float, int, str]:
        """Deterministic scheduling order: due-first, then priority."""
        return (self.deadline_s, -self.priority, self.job_id)

    def describe(self) -> str:
        return (
            f"{self.job_id}: {self.model} x{self.num_batches} "
            f"[{self.workload.describe()}] {self.deadline_class}"
        )


#: Default model mix for the synthetic queue: small enough to plan fast,
#: large enough that groups of 2-4 tail GPUs are genuinely needed.
_QUEUE_MODELS: Tuple[str, ...] = ("opt-1.3b", "bloom-3b", "opt-13b")

_QUEUE_CLASSES: Tuple[str, ...] = ("urgent", "daily", "batch")


def make_job_queue(
    n_jobs: int = 8,
    seed: int = 0,
    models: Sequence[str] = _QUEUE_MODELS,
    min_uniform_bits: Optional[int] = 4,
) -> Tuple[FleetJob, ...]:
    """A seeded, reproducible queue of offline serving jobs.

    Batch sizes, prompt/output lengths, batch counts and deadline classes
    are drawn from ranges typical of offline summarization / extraction
    traffic; the same ``(n_jobs, seed, models)`` always yields the same
    queue.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    if not models:
        raise ValueError("models must be non-empty")
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n_jobs):
        model = models[int(rng.integers(0, len(models)))]
        batch = int(rng.choice([8, 16, 32]))
        prompt_len = int(rng.choice([128, 256, 512]))
        output_len = int(rng.choice([32, 64, 128]))
        num_batches = int(rng.integers(2, 9))
        deadline = _QUEUE_CLASSES[int(rng.integers(0, len(_QUEUE_CLASSES)))]
        jobs.append(
            FleetJob(
                job_id=f"job-{i:02d}",
                model=model,
                workload=BatchWorkload(
                    batch=batch, prompt_len=prompt_len, output_len=output_len
                ),
                num_batches=num_batches,
                deadline_class=deadline,
                min_uniform_bits=min_uniform_bits,
                priority=int(rng.integers(0, 3)),
            )
        )
    return tuple(jobs)

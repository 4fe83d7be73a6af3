"""Execution timelines: record and render pipeline schedules.

``trace_plan`` reruns a plan through the discrete-event oracle with
per-job recording enabled and returns a :class:`Timeline`; ``render_gantt``
draws it as text — the quickest way to *see* pipeline bubbles, phase
boundaries and stage imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..plan import ExecutionPlan
from ..workloads.spec import BatchWorkload, VariableBatchWorkload
from .simulator import PipelineSimResult, simulate_plan_reference
from .stage import TimingSource


@dataclass(frozen=True)
class Timeline:
    """Per-stage job intervals of one simulated batch."""

    #: (stage name, ((start, finish, label), ...)) per pipeline stage.
    stages: Tuple[Tuple[str, Tuple[Tuple[float, float, str], ...]], ...]
    makespan_s: float
    result: PipelineSimResult

    def stage_jobs(self, index: int) -> Tuple[Tuple[float, float, str], ...]:
        return self.stages[index][1]

    def idle_gaps(self, index: int) -> List[Tuple[float, float]]:
        """Idle intervals of a stage between its first and last job."""
        jobs = sorted(self.stage_jobs(index))
        gaps: List[Tuple[float, float]] = []
        for (s0, f0, _), (s1, _, _) in zip(jobs, jobs[1:]):
            if s1 > f0 + 1e-12:
                gaps.append((f0, s1))
        return gaps


def trace_plan(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: Union[BatchWorkload, VariableBatchWorkload],
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
) -> Timeline:
    """Simulate ``plan`` with per-job recording and return the timeline."""
    captured: List[Tuple[str, Tuple[Tuple[float, float, str], ...]]] = []

    # simulate_plan_reference constructs its own servers (via the shared topology);
    # intercept them by wrapping the Server class used at that call site.
    from . import topology as _topo
    from .events import Server

    servers_seen: List[Server] = []
    original = _topo.Server

    def recording_server(loop, name):  # matches Server(loop, name) call sites
        srv = original(loop, name, record_jobs=True)
        servers_seen.append(srv)
        return srv

    _topo.Server = recording_server  # type: ignore[assignment]
    try:
        # Per-job recording only exists in the discrete-event engine:
        # the fast path computes the same finish times in closed form
        # without ever materializing servers.
        result = simulate_plan_reference(
            plan, cluster, spec, workload, timing=timing,
            check_memory=check_memory,
        )
    finally:
        _topo.Server = original  # type: ignore[assignment]
    for srv in servers_seen:
        captured.append((srv.name, tuple(srv.jobs)))
    return Timeline(
        stages=tuple(captured),
        makespan_s=result.makespan_s,
        result=result,
    )


def render_gantt(
    timeline: Timeline,
    width: int = 100,
    labels: Optional[Sequence[str]] = None,
) -> str:
    """Render a timeline as a text Gantt chart.

    Busy time is drawn with ``#`` (prefill-tagged jobs) and ``=``
    (decode-tagged jobs); idle time with spaces.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    span = timeline.makespan_s
    if span <= 0:
        return "(empty timeline)"
    lines = []
    name_w = max(len(n) for n, _ in timeline.stages)
    if labels is not None:
        if len(labels) != len(timeline.stages):
            raise ValueError("one label per stage required")
        name_w = max(name_w, max(len(l) for l in labels))
    for i, (name, jobs) in enumerate(timeline.stages):
        row = [" "] * width
        for start, finish, label in jobs:
            a = int(start / span * (width - 1))
            b = max(int(finish / span * (width - 1)), a)
            ch = "#" if label.startswith("P") else "="
            for k in range(a, b + 1):
                row[k] = ch
        shown = labels[i] if labels is not None else name
        lines.append(f"{shown:>{name_w}} |{''.join(row)}|")
    scale = f"{' ' * name_w} 0s{' ' * (width - 12)}{span:8.2f}s"
    lines.append(scale)
    lines.append(f"{' ' * name_w} #=prefill  ==decode")
    return "\n".join(lines)

"""Workload descriptions consumed by the planner and pipeline simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


def check_positive(**values: float) -> None:
    """Raise ``ValueError`` naming the first argument that is not finite
    and positive.  A bare ``x <= 0`` lets NaN through, and a NaN rate or
    horizon never ends the trace generators' drawing loops."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class BatchWorkload:
    """One offline serving batch after padding/uniformization (Sec. IV-C).

    Requests are padded to a uniform prompt length ``prompt_len`` and
    chunked-prefilled in ``kappa`` chunks of at most ``chunk_tokens``.
    """

    batch: int
    prompt_len: int
    output_len: int
    chunk_tokens: int = 2048
    #: KV reservation horizon when it must exceed the latency-planning
    #: ``output_len`` (variable-output workloads reserve for the longest
    #: request while planning latency for the mean).  None = output_len.
    reserve_output_len: int | None = None

    def __post_init__(self):
        check_positive(
            batch=self.batch,
            prompt_len=self.prompt_len,
            output_len=self.output_len,
            chunk_tokens=self.chunk_tokens,
        )
        if self.reserve_output_len is not None:
            check_positive(reserve_output_len=self.reserve_output_len)
            if self.reserve_output_len < self.output_len:
                raise ValueError("reserve_output_len must cover output_len")

    @property
    def kappa(self) -> int:
        """Number of prefill chunks per request."""
        return -(-self.prompt_len // self.chunk_tokens)

    @property
    def chunk_len(self) -> int:
        """Tokens per prefill chunk (last chunk may be shorter; we model
        uniform chunks of the average length)."""
        return -(-self.prompt_len // self.kappa)

    @property
    def context_len(self) -> int:
        """Maximum total sequence length ``s + n`` (KV reservation)."""
        return self.prompt_len + (self.reserve_output_len or self.output_len)

    @property
    def total_output_tokens(self) -> int:
        return self.batch * self.output_len

    def describe(self) -> str:
        return (
            f"B={self.batch} s={self.prompt_len} n={self.output_len} "
            f"kappa={self.kappa}"
        )


@dataclass(frozen=True)
class VariableBatchWorkload:
    """A batch whose requests generate *different* numbers of tokens.

    The paper's latency model assumes a uniform ``n`` but notes it "can be
    readily adapted to variable-output-length scenarios by estimating
    token generation based on workload distribution" (Sec. IV-C).  This
    class carries the true per-request lengths; planning uses a summary
    statistic via :meth:`planning_view`, and the simulator lets requests
    retire early so decode micro-batches shrink over time.
    """

    prompt_len: int
    output_lens: Tuple[int, ...]
    chunk_tokens: int = 2048

    def __post_init__(self):
        if not self.output_lens:
            raise ValueError("need at least one request")
        if min(self.output_lens) <= 0:
            raise ValueError("output lengths must be positive")
        if self.prompt_len <= 0 or self.chunk_tokens <= 0:
            raise ValueError("prompt_len and chunk_tokens must be positive")

    @property
    def batch(self) -> int:
        return len(self.output_lens)

    @property
    def max_output(self) -> int:
        return max(self.output_lens)

    @property
    def mean_output(self) -> float:
        return sum(self.output_lens) / len(self.output_lens)

    @property
    def total_output_tokens(self) -> int:
        return sum(self.output_lens)

    @property
    def context_len(self) -> int:
        """KV reservation covers the longest request."""
        return self.prompt_len + self.max_output

    def planning_view(self, estimate: str = "mean") -> BatchWorkload:
        """The uniform workload the assigner plans against.

        ``estimate`` picks the token-generation estimator: ``"mean"``
        (throughput-matched) or ``"max"`` (reservation-matched).
        """
        if estimate == "mean":
            n = max(int(round(self.mean_output)), 1)
        elif estimate == "max":
            n = self.max_output
        else:
            raise ValueError(f"unknown estimate {estimate!r}")
        return BatchWorkload(
            batch=self.batch,
            prompt_len=self.prompt_len,
            output_len=n,
            chunk_tokens=self.chunk_tokens,
            # KV must be reserved for the longest request regardless of
            # the latency estimator.
            reserve_output_len=self.max_output,
        )

    def describe(self) -> str:
        return (
            f"B={self.batch} s={self.prompt_len} "
            f"n={min(self.output_lens)}..{self.max_output} "
            f"(mean {self.mean_output:.0f})"
        )

"""Profiling API: noisy "measurements" from the simulated testbed.

The assigner fits its cost models from a small set of GPU calibration
payloads (Sec. III).  This module plays the role of those payloads: it
returns roofline latencies perturbed by seeded multiplicative measurement
noise, plus memory readings with allocator page granularity, so that fitting
and validation (Fig. 8) exercise a realistic estimation problem rather than
reading the ground truth back.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np

from ..hardware.gpus import GPUSpec
from ..models.architectures import ModelSpec
from ..models import layers as L
from .memory import PAGE_BYTES
from .roofline import layer_time

#: Relative std-dev of simulated latency measurements.
LATENCY_NOISE_SIGMA = 0.03


@dataclass(frozen=True)
class LatencySample:
    """One profiled layer execution."""

    phase: str
    bits: int
    batch: int
    seq: int
    time_s: float


@dataclass
class Profiler:
    """Measurement front-end over the roofline simulator."""

    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    #: Lognormal variates drawn so far — the RNG stream position.  Part of
    #: the persistent-cache key so a cache hit can *burn* the same number
    #: of draws and leave the stream exactly where a recompute would have.
    _draws: int = field(init=False, default=0, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def measure_layer(
        self,
        gpu: GPUSpec,
        spec: ModelSpec,
        bits: int,
        phase: str,
        batch: int,
        seq: int,
        bit_kv: int = 16,
        repeats: int = 3,
    ) -> float:
        """Median of ``repeats`` noisy timings of one layer execution."""
        truth = layer_time(gpu, spec, bits, phase, batch, seq, bit_kv)
        noise = self._rng.lognormal(
            mean=0.0, sigma=LATENCY_NOISE_SIGMA, size=repeats
        )
        self._draws += repeats
        return float(truth * np.median(noise))

    def measure_memory(
        self,
        spec: ModelSpec,
        bits_per_layer: Sequence[int],
        batch: int,
        context: int,
        bit_kv: int = 16,
    ) -> int:
        """Observed bytes for a stage holding the given quantized layers.

        Weights and the KV reservation are pooled into one arena each (as
        caching allocators do) and page-rounded — the two components the
        Fig. 8 memory-fidelity experiment compares.
        """
        weights = sum(L.weight_storage_bytes(spec, bits) for bits in bits_per_layer)
        kv = len(list(bits_per_layer)) * L.kv_cache_bytes(
            spec, batch, context, bit_kv
        )
        rounded_w = -(-weights // PAGE_BYTES) * PAGE_BYTES
        rounded_kv = -(-kv // PAGE_BYTES) * PAGE_BYTES
        return rounded_w + rounded_kv

    def profile_grid(
        self,
        gpu: GPUSpec,
        spec: ModelSpec,
        bits: int,
        phase: str,
        batches: Iterable[int] = (1, 2, 4, 8, 16),
        seqs: Iterable[int] = (64, 128, 256, 512, 1024),
        bit_kv: int = 16,
    ) -> List[LatencySample]:
        """Calibration payload: measure a (batch x seq) grid for one config.

        For decode, ``seqs`` are past context lengths.

        Grids are memoized in the persistent result cache
        (:mod:`repro.cache`): the key covers the full device/model specs,
        the grid, the noise seed *and* the RNG stream position, so cached
        replies are bit-identical to recomputation — including the state
        the generator is left in (a hit burns the same number of noise
        variates a recompute would have drawn).
        """
        from ..cache import MISS, cache_key, code_version_salt, default_cache

        batches = tuple(batches)
        seqs = tuple(seqs)
        cache = default_cache()
        key = None
        if cache is not None:
            key = cache_key(
                {
                    "kind": "profile_grid",
                    "salt": code_version_salt(),
                    "gpu": dataclasses.asdict(gpu),
                    "model": dataclasses.asdict(spec),
                    "bits": bits,
                    "phase": phase,
                    "batches": batches,
                    "seqs": seqs,
                    "bit_kv": bit_kv,
                    "seed": self.seed,
                    "rng_draws": self._draws,
                }
            )
            hit = cache.get("profiler_grid", key)
            if hit is not MISS:
                draws = int(hit["draws"])
                if draws > 0:
                    # Batched fills consume the PCG64 stream exactly like
                    # the equivalent sequence of per-measurement draws.
                    self._rng.lognormal(
                        mean=0.0, sigma=LATENCY_NOISE_SIGMA, size=draws
                    )
                    self._draws += draws
                return [
                    LatencySample(p, b, v, s, t)
                    for p, b, v, s, t in hit["samples"]
                ]
        # One batched draw, row by row in the stream order of one
        # measure_layer call per point; the median of 3 is exact.
        points = [(v, s) for v in batches for s in seqs]
        noise = self._rng.lognormal(
            mean=0.0, sigma=LATENCY_NOISE_SIGMA, size=(len(points), 3)
        )
        self._draws += noise.size
        samples: List[LatencySample] = []
        for (v, s), m in zip(points, np.median(noise, axis=1)):
            t = layer_time(gpu, spec, bits, phase, v, s, bit_kv)
            samples.append(LatencySample(phase, bits, v, s, float(t * m)))
        if cache is not None:
            cache.put(
                "profiler_grid",
                key,
                {
                    "draws": noise.size,
                    "samples": [
                        [s.phase, s.bits, s.batch, s.seq, s.time_s]
                        for s in samples
                    ],
                },
            )
        return samples

"""Memory cost model (paper Sec. IV-A).

Peak memory of a pipeline stage = quantized decoder-layer weights
+ KV-cache reservation for the maximum context (prompt ``s`` plus
generation budget ``n``) + peak activation workspace; the first stage
additionally holds the FP16 embeddings/LM head (``M_emb``, constraint 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..models import layers as L


def layer_memory_bytes(
    spec: ModelSpec,
    bits: int,
    batch: int,
    context: int,
    bit_kv: int = 16,
) -> int:
    """Weights + KV reservation of one decoder layer (paper's M_{i,b})."""
    if batch < 0 or context < 0:
        raise ValueError("batch and context must be non-negative")
    return L.weight_storage_bytes(spec, bits) + L.kv_cache_bytes(
        spec, batch, context, bit_kv
    )


def activation_workspace_bytes(
    spec: ModelSpec, microbatch: int, chunk_tokens: int
) -> int:
    """Peak transient activation storage of one stage.

    Worst case is a prefill chunk in flight: hidden states plus the MLP
    intermediate for ``microbatch * chunk_tokens`` tokens (FlashAttention
    avoids materializing the s^2 score matrix).
    """
    tokens = microbatch * max(chunk_tokens, 1)
    per_token = (4 * spec.hidden + 2 * spec.ffn) * L.FP16_BYTES
    return tokens * per_token


def embedding_memory_bytes(spec: ModelSpec, microbatch: int = 1) -> int:
    """``M_emb``: embeddings, LM head, and the logits workspace."""
    logits_ws = microbatch * spec.vocab_size * L.FP16_BYTES
    return L.embedding_bytes(spec) + logits_ws


def stage_resident_bytes(
    spec: ModelSpec,
    stage: int,
    n_stages: int,
    microbatch: int,
    chunk_tokens: int,
) -> int:
    """Bytes stage ``stage`` of ``n_stages`` keeps besides its layers.

    Every stage holds the activation workspace of one prefill chunk;
    stage 0 adds ``M_emb`` (embeddings + logits workspace), and the last
    stage, when it is not stage 0, the FP16 LM head (master
    postprocessing placement).
    """
    b = activation_workspace_bytes(spec, microbatch, chunk_tokens)
    if stage == 0:
        b += embedding_memory_bytes(spec, microbatch)
    if stage == n_stages - 1 and stage != 0:
        b += spec.lm_head_elements * L.FP16_BYTES
    return b


def stage_capacity_bytes(
    cluster: ClusterSpec, stage_device_ids: Sequence[Sequence[int]]
) -> Tuple[int, ...]:
    """Usable bytes per stage; a TP stage pools its devices' memory."""
    by_id = {d.device_id: d for d in cluster.devices}
    return tuple(
        sum(by_id[d].gpu.usable_mem_bytes for d in ids)
        for ids in stage_device_ids
    )


@dataclass(frozen=True)
class MemoryCostModel:
    """Predicts stage memory for partition/quantization candidates."""

    spec: ModelSpec
    batch: int
    context: int
    bit_kv: int = 16
    chunk_tokens: int = 2048

    def layer_bytes(self, bits: int) -> int:
        return layer_memory_bytes(
            self.spec, bits, self.batch, self.context, self.bit_kv
        )

    def stage_bytes(
        self,
        bits_per_layer: Sequence[int],
        microbatch: int,
        with_embeddings: bool = False,
    ) -> int:
        """Predicted peak bytes of a stage holding the given layers."""
        total = sum(self.layer_bytes(b) for b in bits_per_layer)
        total += activation_workspace_bytes(
            self.spec, microbatch, min(self.chunk_tokens, self.context)
        )
        if with_embeddings:
            total += embedding_memory_bytes(self.spec, microbatch)
        return total

    def fits(
        self,
        bits_per_layer: Sequence[int],
        microbatch: int,
        capacity_bytes: int,
        with_embeddings: bool = False,
    ) -> bool:
        """Constraint (12)/(13): does the stage fit in ``capacity_bytes``?"""
        return (
            self.stage_bytes(bits_per_layer, microbatch, with_embeddings)
            <= capacity_bytes
        )

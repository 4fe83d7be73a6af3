"""Tests for the memory cost model (Sec. IV-A)."""

import pytest

from repro.costmodel import (
    MemoryCostModel,
    activation_workspace_bytes,
    embedding_memory_bytes,
    layer_memory_bytes,
    stage_resident_bytes,
)
from repro.models import kv_cache_bytes, weight_storage_bytes


def test_layer_memory_is_weights_plus_kv(opt13b):
    got = layer_memory_bytes(opt13b, 4, batch=8, context=600)
    expect = weight_storage_bytes(opt13b, 4) + kv_cache_bytes(opt13b, 8, 600)
    assert got == expect


def test_layer_memory_monotone_in_bits(opt13b):
    mems = [layer_memory_bytes(opt13b, b, 8, 600) for b in (3, 4, 8, 16)]
    assert mems == sorted(mems)


def test_kv_dominates_at_large_batch_small_bits(opt13b):
    m = layer_memory_bytes(opt13b, 3, batch=256, context=2048)
    kv = kv_cache_bytes(opt13b, 256, 2048)
    assert kv / m > 0.8


def test_negative_inputs_rejected(opt13b):
    with pytest.raises(ValueError):
        layer_memory_bytes(opt13b, 4, batch=-1, context=100)


def test_stage_resident_bytes_placement(opt13b):
    """Workspace everywhere, M_emb on stage 0, LM head on a distinct last
    stage only."""
    from repro.models.layers import FP16_BYTES

    ws = activation_workspace_bytes(opt13b, 4, 512)
    emb = embedding_memory_bytes(opt13b, 4)
    head = opt13b.lm_head_elements * FP16_BYTES
    got = [stage_resident_bytes(opt13b, j, 3, 4, 512) for j in range(3)]
    assert got == [ws + emb, ws, ws + head]
    assert stage_resident_bytes(opt13b, 0, 1, 4, 512) == ws + emb


def test_activation_workspace_scales(opt13b):
    a = activation_workspace_bytes(opt13b, 4, 512)
    b = activation_workspace_bytes(opt13b, 8, 512)
    c = activation_workspace_bytes(opt13b, 4, 1024)
    assert b == 2 * a
    assert c == 2 * a


def test_embedding_memory_includes_logits_workspace(opt13b):
    small = embedding_memory_bytes(opt13b, microbatch=1)
    big = embedding_memory_bytes(opt13b, microbatch=64)
    assert big - small == 63 * opt13b.vocab_size * 2


def test_stage_bytes_sums_layers(opt13b):
    mm = MemoryCostModel(spec=opt13b, batch=8, context=600)
    one = mm.stage_bytes([4], microbatch=4)
    three = mm.stage_bytes([4, 4, 4], microbatch=4)
    assert three - one == 2 * mm.layer_bytes(4)


def test_stage_bytes_embedding_flag(opt13b):
    mm = MemoryCostModel(spec=opt13b, batch=8, context=600)
    plain = mm.stage_bytes([4], microbatch=4, with_embeddings=False)
    emb = mm.stage_bytes([4], microbatch=4, with_embeddings=True)
    assert emb - plain == embedding_memory_bytes(opt13b, 4)


def test_fits_constraint(opt13b):
    mm = MemoryCostModel(spec=opt13b, batch=8, context=600)
    need = mm.stage_bytes([8, 8], microbatch=4)
    assert mm.fits([8, 8], 4, need)
    assert not mm.fits([8, 8], 4, need - 1)


def test_kv_bitwidth_halves_reservation(opt13b):
    full = MemoryCostModel(spec=opt13b, batch=8, context=600, bit_kv=16)
    half = MemoryCostModel(spec=opt13b, batch=8, context=600, bit_kv=8)
    dk = full.layer_bytes(16) - half.layer_bytes(16)
    assert dk == kv_cache_bytes(opt13b, 8, 600, 16) - kv_cache_bytes(
        opt13b, 8, 600, 8
    )

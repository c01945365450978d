"""Baseline (no compression) and exact FP-COMP schemes.

The VAXX variants of the paper's contribution live in :mod:`repro.core`
(:mod:`repro.core.fp_vaxx`, :mod:`repro.core.di_vaxx`); this module provides
the comparison mechanisms every figure plots against.
"""

from __future__ import annotations

from typing import List, Optional

from repro.compression import fpc
from repro.compression.base import (
    CompressionScheme,
    DecodeResult,
    EncodedBlock,
    NodeCodec,
)
from repro.core.block import CacheBlock


class BaselineNode(NodeCodec):
    """Identity codec: every word travels verbatim."""

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        words = block.words
        return self._finish_encode(block, words, (None,) * len(words), 0,
                                   32 * len(words))

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        return DecodeResult(CacheBlock.trusted(  # repro: allow[hot-alloc]
            encoded.decoded, encoded.dtype, encoded.approximable))


class BaselineScheme(CompressionScheme):
    """The uncompressed NoC every mechanism is normalized against."""

    #: No codec in the NI, so no codec latency either.
    compression_cycles = 0
    decompression_cycles = 0

    @property
    def name(self) -> str:
        return "Baseline"

    def _make_node(self, node_id: int) -> NodeCodec:
        return BaselineNode(self, node_id)


class FpCompNode(NodeCodec):
    """Exact frequent-pattern compression (Das et al. [12])."""

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        # Exact matches recover every word verbatim, so ``decoded`` is the
        # original tuple itself.
        codes: List[Optional[int]] = []  # repro: allow[hot-alloc]
        match_exact = fpc.match_exact
        for word in block.words:
            codes.append(match_exact(word)[0].nr_code)
        return self._finish_encode(block, block.words, tuple(codes), 0,
                                   fpc.block_bits(codes))

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        return DecodeResult(CacheBlock.trusted(  # repro: allow[hot-alloc]
            encoded.decoded, encoded.dtype, encoded.approximable))


class FpCompScheme(CompressionScheme):
    """Static frequent pattern compression (FP-COMP)."""

    @property
    def name(self) -> str:
        return "FP-COMP"

    def _make_node(self, node_id: int) -> NodeCodec:
        return FpCompNode(self, node_id)

"""Tests for the adaptive compression controller."""

import pytest

from repro.compression.adaptive import AdaptiveScheme
from repro.compression.schemes import FpCompScheme
from repro.core import CacheBlock, FpVaxxScheme
from repro.util.rng import DeterministicRng


def compressible_block():
    return CacheBlock.from_ints([0, 0, 3, -5, 100, 7, 0, 0] * 2)


def incompressible_block(rng):
    return CacheBlock(tuple(rng.randbits(32) | 0x40000000
                            for _ in range(16)))


def make_scheme(**kw):
    return AdaptiveScheme(FpCompScheme(4), window=8, probe_period=4, **kw)


class TestControl:
    def test_starts_enabled(self):
        scheme = make_scheme()
        assert scheme.node(0).enabled

    def test_stays_on_for_compressible_traffic(self):
        scheme = make_scheme()
        node = scheme.node(0)
        for _ in range(40):
            node.encode(compressible_block(), 1)
        assert node.enabled
        assert scheme.stats.compression_ratio > 1.5

    def test_turns_off_on_incompressible_traffic(self):
        scheme = make_scheme()
        node = scheme.node(0)
        rng = DeterministicRng(1)
        for _ in range(40):
            node.encode(incompressible_block(rng), 1)
        assert not node.enabled
        assert scheme.toggles() >= 1

    def test_off_blocks_skip_codec_latency(self):
        scheme = make_scheme()
        node = scheme.node(0)
        rng = DeterministicRng(2)
        for _ in range(40):
            encoded = node.encode(incompressible_block(rng), 1)
        # not a probe block -> raw path with zero codec latency
        raw = [node.encode(incompressible_block(rng), 1)
               for _ in range(scheme.probe_period - 1)]
        assert any(e.compression_cycles == 0 for e in raw)

    def test_probing_turns_back_on(self):
        scheme = make_scheme()
        node = scheme.node(0)
        rng = DeterministicRng(3)
        for _ in range(40):
            node.encode(incompressible_block(rng), 1)
        assert not node.enabled
        for _ in range(200):
            node.encode(compressible_block(), 1)
        assert node.enabled

    def test_roundtrip_exact_in_both_states(self):
        scheme = make_scheme()
        rng = DeterministicRng(4)
        for _ in range(60):
            block = incompressible_block(rng)
            out, _ = scheme.roundtrip(block, 0, 1)
            assert out.words == block.words
        for _ in range(60):
            block = compressible_block()
            out, _ = scheme.roundtrip(block, 0, 1)
            assert out.words == block.words

    def test_wraps_vaxx_too(self):
        scheme = AdaptiveScheme(FpVaxxScheme(4, error_threshold_pct=10),
                                window=8)
        block = CacheBlock.from_ints([70000] * 16, approximable=True)
        out, encoded = scheme.roundtrip(block, 0, 1)
        assert encoded.approx_mask

    def test_name(self):
        assert make_scheme().name == "Adaptive(FP-COMP)"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveScheme(FpCompScheme(4), window=1)
        with pytest.raises(ValueError):
            AdaptiveScheme(FpCompScheme(4), min_gain=0.0)
        with pytest.raises(ValueError):
            AdaptiveScheme(FpCompScheme(4), probe_period=0)

"""Cross-scheme property matrix: invariants every codec must satisfy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    AdaptiveScheme,
    BaselineScheme,
    BdCompScheme,
    BdVaxxScheme,
    DiCompScheme,
    FpCompScheme,
)
from repro.core import CacheBlock, DataType, DiVaxxScheme, FpVaxxScheme
from repro.traffic.datagen import BlockGenerator, ValueModel
from repro.util.rng import DeterministicRng

EXACT_SCHEMES = [
    ("Baseline", lambda: BaselineScheme(4)),
    ("FP-COMP", lambda: FpCompScheme(4)),
    ("DI-COMP", lambda: DiCompScheme(4)),
    ("BD-COMP", lambda: BdCompScheme(4)),
    ("Adaptive(FP-COMP)", lambda: AdaptiveScheme(FpCompScheme(4))),
]

VAXX_SCHEMES = [
    ("FP-VAXX", lambda th=10: FpVaxxScheme(4, error_threshold_pct=th)),
    ("DI-VAXX", lambda th=10: DiVaxxScheme(4, error_threshold_pct=th,
                                           detect_threshold=1)),
    ("BD-VAXX", lambda th=10: BdVaxxScheme(4, error_threshold_pct=th)),
]

ALL_SCHEMES = EXACT_SCHEMES + [(n, f) for n, f in VAXX_SCHEMES]


def stream(scheme, blocks=30, seed=1, approximable=True,
           dtype=DataType.INT):
    model = ValueModel(name="mix",
                       dtype=dtype, p_zero=0.2, p_small=0.2, p_pool=0.4,
                       cluster_noise=0.03, exact_repeat=0.4, scale=1e5)
    generator = BlockGenerator(model, DeterministicRng(seed))
    outputs = []
    for _ in range(blocks):
        block = generator.next_block(16, approximable=approximable)
        out, encoded = scheme.roundtrip(block, 0, 1)
        outputs.append((block, out, encoded))
    return outputs


class TestUniversalInvariants:
    @pytest.mark.parametrize("name,factory", ALL_SCHEMES)
    def test_never_expands(self, name, factory):
        """No codec's NR may exceed the raw block size."""
        for block, _out, encoded in stream(factory()):
            assert encoded.size_bits <= block.size_bits

    @pytest.mark.parametrize("name,factory", ALL_SCHEMES)
    def test_word_count_preserved(self, name, factory):
        for block, out, encoded in stream(factory()):
            assert len(out) == len(block)
            assert len(encoded.decoded) == len(encoded.codes) == len(block)

    @pytest.mark.parametrize("name,factory", ALL_SCHEMES)
    def test_non_approximable_is_bit_exact(self, name, factory):
        for block, out, _ in stream(factory(), approximable=False):
            assert out.words == block.words

    @pytest.mark.parametrize("name,factory", ALL_SCHEMES)
    def test_metadata_preserved(self, name, factory):
        for block, out, _ in stream(factory(), dtype=DataType.FLOAT):
            assert out.dtype is block.dtype
            assert out.approximable == block.approximable

    @pytest.mark.parametrize("name,factory", EXACT_SCHEMES)
    def test_exact_schemes_never_approximate(self, name, factory):
        scheme = factory()
        stream(scheme)
        assert scheme.quality.approx_fraction == 0.0
        assert scheme.quality.data_quality == 1.0

    @pytest.mark.parametrize("name,factory", VAXX_SCHEMES)
    def test_vaxx_schemes_error_bounded(self, name, factory):
        for block, out, _ in stream(factory(10)):
            for precise, approx in zip(block.as_ints(), out.as_ints()):
                assert abs(approx - precise) <= 4 * abs(precise) * 0.10 + 1

    @pytest.mark.parametrize("name,factory", VAXX_SCHEMES)
    def test_quality_never_below_threshold_complement(self, name, factory):
        scheme = factory(10)
        stream(scheme)
        # even paper-mode slack keeps mean error far under 4x the budget
        assert scheme.quality.data_quality > 1 - 4 * 0.10

    @pytest.mark.parametrize("name,factory", VAXX_SCHEMES)
    def test_higher_threshold_never_hurts_compression(self, name, factory):
        tight = factory(5)
        loose = factory(20)
        stream(tight, seed=3)
        stream(loose, seed=3)
        assert (loose.stats.compression_ratio
                >= tight.stats.compression_ratio - 0.05)

    @pytest.mark.parametrize("name,factory", VAXX_SCHEMES)
    def test_stats_input_accounting(self, name, factory):
        scheme = factory(10)
        results = stream(scheme, blocks=10)
        assert scheme.stats.blocks_encoded == 10
        assert scheme.stats.input_bits == sum(
            block.size_bits for block, _, _ in results)
        assert scheme.stats.output_bits == sum(
            encoded.size_bits for _, _, encoded in results)


class TestFloatSafetyMatrix:
    SPECIALS = [float("inf"), float("-inf"), float("nan"), 0.0, -0.0,
                1e-40]

    @pytest.mark.parametrize("name,factory", ALL_SCHEMES)
    def test_float_specials_never_corrupted(self, name, factory):
        scheme = factory()
        block = CacheBlock.from_floats(self.SPECIALS + [1.5, 2.5] * 5,
                                       approximable=True)
        out, _ = scheme.roundtrip(block, 0, 1)
        for index in range(len(self.SPECIALS)):
            assert out.words[index] == block.words[index], \
                f"special value {self.SPECIALS[index]} corrupted"

    @given(st.lists(st.floats(width=32, allow_nan=False,
                              allow_infinity=False),
                    min_size=1, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_fp_vaxx_float_roundtrip_bounded(self, values):
        scheme = FpVaxxScheme(4, error_threshold_pct=10)
        block = CacheBlock.from_floats(values, approximable=True)
        out, _ = scheme.roundtrip(block, 0, 1)
        for precise, approx in zip(block.as_floats(), out.as_floats()):
            if precise == 0.0 or abs(precise) < 1e-38:
                assert approx == precise
            else:
                assert abs(approx - precise) / abs(precise) <= 0.45

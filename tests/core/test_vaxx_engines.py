"""Tests for the FP-VAXX and DI-VAXX engines (the paper's §4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.schemes import FpCompScheme
from repro.compression.dictionary import DiCompScheme
from repro.core.apcl import Apcl, TernaryPattern
from repro.core.avcl import Avcl
from repro.core.block import CacheBlock, DataType, relative_word_error
from repro.core.di_vaxx import DiVaxxScheme
from repro.core.fp_vaxx import FpVaxxScheme
from repro.core.error_control import WindowErrorBudget
from repro.util.bitops import float_to_bits


class TestTernaryPattern:
    def test_string_form(self):
        t = TernaryPattern(value=0b1001, mask=0b0011)
        assert str(t).endswith("10xx")

    def test_match_semantics(self):
        t = TernaryPattern(value=0b1001, mask=0b0011)
        assert t.matches(0b1000)
        assert t.matches(0b1011)
        assert not t.matches(0b1100)

    def test_covers(self):
        wide = TernaryPattern(value=0b1000, mask=0b0111)
        narrow = TernaryPattern(value=0b1010, mask=0b0001)
        assert wide.covers(narrow)
        assert not narrow.covers(wide)

    def test_apcl_uses_avcl_mask(self):
        apcl = Apcl(Avcl(20, mode="paper"))
        t = apcl.compute(9, DataType.INT)
        assert t.mask == 0b11  # the 10xx example

    def test_apcl_float_special_gets_empty_mask(self):
        apcl = Apcl(Avcl(20))
        t = apcl.compute(float_to_bits(float("inf")), DataType.FLOAT)
        assert t.mask == 0


class TestFpVaxx:
    def test_beats_fp_comp_on_near_patterns(self):
        """Approximation turns near-miss words into compressible ones."""
        values = [3, 70000, 130, -130, 0x10003, 12345] * 2
        block_a = CacheBlock.from_ints(values, approximable=True)
        vaxx = FpVaxxScheme(n_nodes=2, error_threshold_pct=10)
        comp = FpCompScheme(n_nodes=2)
        enc_vaxx = vaxx.node(0).encode(block_a, 1)
        enc_comp = comp.node(0).encode(block_a, 1)
        assert enc_vaxx.size_bits < enc_comp.size_bits

    def test_non_approximable_block_is_exact(self):
        block = CacheBlock.from_ints([3, 70000, 130], approximable=False)
        vaxx = FpVaxxScheme(n_nodes=2, error_threshold_pct=20)
        out, _ = vaxx.roundtrip(block, 0, 1)
        assert out.words == block.words

    def test_error_is_bounded_by_mask(self):
        vaxx = FpVaxxScheme(n_nodes=2, error_threshold_pct=10)
        block = CacheBlock.from_ints([70000], approximable=True)
        out, enc = vaxx.roundtrip(block, 0, 1)
        err = relative_word_error(block.words[0], out.words[0], DataType.INT)
        assert err <= 0.15  # paper-mode slack over the nominal 10%

    def test_float_specials_survive(self):
        values = [float("inf"), float("nan"), 0.0, 1.5]
        block = CacheBlock.from_floats(values, approximable=True)
        vaxx = FpVaxxScheme(n_nodes=2, error_threshold_pct=20)
        out, _ = vaxx.roundtrip(block, 0, 1)
        assert out.words[0] == block.words[0]  # inf untouched
        assert out.words[1] == block.words[1]  # nan untouched
        assert out.words[2] == block.words[2]  # zero untouched

    def test_quality_tracking(self):
        vaxx = FpVaxxScheme(n_nodes=2, error_threshold_pct=10)
        block = CacheBlock.from_ints([70000, 0, 5], approximable=True)
        vaxx.roundtrip(block, 0, 1)
        assert 0.9 <= vaxx.quality.data_quality <= 1.0
        assert vaxx.quality.total_words == 3

    def test_window_budget_can_veto(self):
        """A tiny window budget rejects every lossy substitution."""
        strict = FpVaxxScheme(
            n_nodes=2, error_threshold_pct=20,
            budget_factory=lambda: WindowErrorBudget(threshold_pct=0.0001,
                                                     window=4))
        block = CacheBlock.from_ints([70000, 12347], approximable=True)
        out, _ = strict.roundtrip(block, 0, 1)
        assert out.words == block.words

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1,
                    max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_int_error_bound_property(self, values):
        """Every word FP-VAXX delivers stays within the paper-mode bound."""
        vaxx = FpVaxxScheme(n_nodes=2, error_threshold_pct=10)
        block = CacheBlock.from_ints(values, approximable=True)
        out, _ = vaxx.roundtrip(block, 0, 1)
        for precise, approx in zip(block.as_ints(), out.as_ints()):
            assert abs(approx - precise) <= 4 * abs(precise) * 0.10 + 1


class TestDiVaxx:
    def _warm(self, scheme, values, rounds=3, src=0, dst=1):
        for _ in range(rounds):
            block = CacheBlock.from_ints(values, approximable=True)
            out, enc = scheme.roundtrip(block, src, dst)
        return out, enc

    def test_learns_then_compresses(self):
        scheme = DiVaxxScheme(n_nodes=2, error_threshold_pct=10,
                              detect_threshold=2)
        _, enc = self._warm(scheme, [1000] * 8)
        assert None not in enc.codes

    def test_approximate_hit_after_learning(self):
        scheme = DiVaxxScheme(n_nodes=2, error_threshold_pct=10,
                              detect_threshold=2)
        self._warm(scheme, [1000] * 8)
        near = CacheBlock.from_ints([1001] * 8, approximable=True)
        out, enc = scheme.roundtrip(near, 0, 1)
        assert None not in enc.codes
        assert enc.approx_mask == (1 << len(enc.codes)) - 1
        assert out.as_ints() == [1000] * 8  # recovered reference pattern

    def test_non_approximable_requires_exact(self):
        scheme = DiVaxxScheme(n_nodes=2, error_threshold_pct=10,
                              detect_threshold=2)
        self._warm(scheme, [1000] * 8)
        near = CacheBlock.from_ints([1001] * 8, approximable=False)
        out, enc = scheme.roundtrip(near, 0, 1)
        assert out.as_ints() == [1001] * 8
        assert enc.approx_mask == 0

    def test_exact_hit_on_original_pattern(self):
        scheme = DiVaxxScheme(n_nodes=2, error_threshold_pct=10,
                              detect_threshold=2)
        self._warm(scheme, [1000] * 8)
        same = CacheBlock.from_ints([1000] * 8, approximable=False)
        out, enc = scheme.roundtrip(same, 0, 1)
        assert None not in enc.codes
        assert out.as_ints() == [1000] * 8

    def test_dtype_segregation(self):
        """An int ternary entry must not capture float words."""
        scheme = DiVaxxScheme(n_nodes=2, error_threshold_pct=20,
                              detect_threshold=2)
        self._warm(scheme, [1000] * 8)
        fblock = CacheBlock.from_floats([1.401e-42] * 8, approximable=True)
        out, enc = scheme.roundtrip(fblock, 0, 1)
        assert out.words == fblock.words

    def test_per_destination_isolation(self):
        scheme = DiVaxxScheme(n_nodes=3, error_threshold_pct=10,
                              detect_threshold=2)
        self._warm(scheme, [1000] * 8, dst=1)
        block = CacheBlock.from_ints([1000] * 8, approximable=True)
        enc_to_2 = scheme.node(0).encode(block, dst=2)
        assert all(code is None for code in enc_to_2.codes)

    def test_notifications_counted(self):
        scheme = DiVaxxScheme(n_nodes=2, detect_threshold=2)
        self._warm(scheme, [1, 2, 3, 4])
        assert scheme.stats.notifications > 0

    @given(st.lists(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
                    min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_non_approximable_exactness_property(self, blocks):
        """Whatever was learned, non-approximable traffic is bit-exact."""
        scheme = DiVaxxScheme(n_nodes=2, error_threshold_pct=20,
                              detect_threshold=1)
        for values in blocks:
            approx = CacheBlock.from_ints(values, approximable=True)
            scheme.roundtrip(approx, 0, 1)
            precise = CacheBlock.from_ints(values, approximable=False)
            out, _ = scheme.roundtrip(precise, 0, 1)
            assert out.words == precise.words

    def test_beats_di_comp_on_clustered_values(self):
        """Clustered values compress better with approximate matching."""
        vaxx = DiVaxxScheme(n_nodes=2, error_threshold_pct=20,
                            detect_threshold=2)
        comp = DiCompScheme(n_nodes=2, detect_threshold=2)
        cluster = [1000, 1001, 1002, 1003, 999, 998, 1000, 1001]
        for scheme in (vaxx, comp):
            for shift in range(6):
                values = [v + (shift % 3) for v in cluster]
                block = CacheBlock.from_ints(values, approximable=True)
                scheme.roundtrip(block, 0, 1)
        assert (vaxx.stats.compression_ratio
                > comp.stats.compression_ratio)

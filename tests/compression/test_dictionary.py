"""Tests for DI-COMP: decoder detection, PMT protocol, encoder consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import NotificationKind
from repro.compression.dictionary import (
    DiCompScheme,
    DictionaryDecoder,
    PatternDetector,
    index_bits,
)
from repro.core.block import CacheBlock


class TestIndexBits:
    def test_eight_entries_need_three_bits(self):
        assert index_bits(8) == 3

    def test_two_entries(self):
        assert index_bits(2) == 1

    def test_non_power_of_two_rounds_up(self):
        assert index_bits(5) == 3

    def test_rejects_tiny_tables(self):
        with pytest.raises(ValueError):
            index_bits(1)


class TestPatternDetector:
    def test_first_occurrence_not_detected(self):
        detector = PatternDetector(threshold=2)
        assert detector.observe(42) is False

    def test_second_occurrence_detected(self):
        detector = PatternDetector(threshold=2)
        detector.observe(42)
        assert detector.observe(42) is True

    def test_counter_resets_after_detection(self):
        detector = PatternDetector(threshold=2)
        detector.observe(42)
        detector.observe(42)
        assert detector.observe(42) is False

    def test_threshold_one_detects_immediately(self):
        detector = PatternDetector(threshold=1)
        assert detector.observe(7) is True

    def test_capacity_eviction(self):
        detector = PatternDetector(capacity=2, threshold=3)
        detector.observe(1)
        detector.observe(1)
        detector.observe(2)
        detector.observe(3)  # evicts pattern 2 (lower count than 1)
        detector.observe(2)
        assert detector.observe(2) is False  # count restarted

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            PatternDetector(threshold=0)


class TestDictionaryDecoder:
    def test_promotion_emits_update(self):
        decoder = DictionaryDecoder(node_id=6, detect_threshold=2)
        assert decoder.observe_uncompressed(0xAB, src=3) == []
        notifications = decoder.observe_uncompressed(0xAB, src=3)
        assert len(notifications) == 1
        update = notifications[0]
        assert update.kind is NotificationKind.UPDATE
        assert update.src == 6 and update.dst == 3
        assert update.pattern == 0xAB

    def test_second_sender_gets_own_update(self):
        decoder = DictionaryDecoder(node_id=6, detect_threshold=2)
        decoder.observe_uncompressed(0xAB, src=3)
        first = decoder.observe_uncompressed(0xAB, src=3)
        second = decoder.observe_uncompressed(0xAB, src=5)
        assert len(second) == 1
        assert second[0].dst == 5
        assert second[0].index == first[0].index

    def test_replacement_invalidates_all_valid_encoders(self):
        decoder = DictionaryDecoder(node_id=0, n_entries=2,
                                    detect_threshold=1)
        decoder.observe_uncompressed(0x1, src=1)
        decoder.observe_uncompressed(0x2, src=2)
        # table is full; promoting a third pattern replaces an entry
        notifications = decoder.observe_uncompressed(0x3, src=3)
        kinds = [n.kind for n in notifications]
        assert NotificationKind.INVALIDATE in kinds
        assert kinds[-1] is NotificationKind.UPDATE

    def test_lfu_victim_selection(self):
        decoder = DictionaryDecoder(node_id=0, n_entries=2,
                                    detect_threshold=1)
        decoder.observe_uncompressed(0x1, src=1)
        decoder.observe_uncompressed(0x2, src=1)
        # bump pattern 0x1's frequency
        decoder.observe_uncompressed(0x1, src=1)
        notifications = decoder.observe_uncompressed(0x3, src=1)
        invalidate = [n for n in notifications
                      if n.kind is NotificationKind.INVALIDATE][0]
        assert invalidate.pattern == 0x2  # the less frequent entry

    def test_compressed_use_bumps_frequency(self):
        decoder = DictionaryDecoder(node_id=0, n_entries=2,
                                    detect_threshold=1)
        decoder.observe_uncompressed(0x1, src=1)
        entry_freq = decoder.entries[0].freq
        decoder.note_compressed_use(0)
        assert decoder.entries[0].freq == entry_freq + 1


class TestDiCompEndToEnd:
    def test_cold_encoder_compresses_nothing(self):
        scheme = DiCompScheme(n_nodes=4)
        block = CacheBlock.from_ints([1, 2, 3, 4])
        encoded = scheme.node(0).encode(block, dst=1)
        assert all(code is None for code in encoded.codes)
        # nothing compressed -> the block ships raw (the fallback marker
        # rides in the head flit, not the payload)
        assert encoded.size_bits == 4 * 32

    def test_learning_enables_compression(self):
        scheme = DiCompScheme(n_nodes=4, detect_threshold=2)
        block = CacheBlock.from_ints([7, 7, 7, 7])
        # Two round trips teach the decoder; notifications applied inline.
        scheme.roundtrip(block, 0, 1)
        scheme.roundtrip(block, 0, 1)
        encoded = scheme.node(0).encode(block, dst=1)
        assert None not in encoded.codes
        assert encoded.size_bits == 4 * (1 + 3)

    def test_compression_is_destination_specific(self):
        scheme = DiCompScheme(n_nodes=4, detect_threshold=2)
        block = CacheBlock.from_ints([7, 7, 7, 7])
        scheme.roundtrip(block, 0, 1)
        scheme.roundtrip(block, 0, 1)
        # Node 2 never learned the pattern: no compression toward it.
        encoded = scheme.node(0).encode(block, dst=2)
        assert all(code is None for code in encoded.codes)

    def test_roundtrip_is_always_exact(self):
        scheme = DiCompScheme(n_nodes=4)
        block = CacheBlock.from_ints([5, -9, 100000, 5, 5, -9, 0, 0])
        for _ in range(4):
            out, _ = scheme.roundtrip(block, 0, 1)
            assert out.words == block.words

    def test_invalidation_stops_compression(self):
        # Single-word blocks keep the decoder entries at the admission
        # frequency, so the third pattern's promotion may evict one.
        scheme = DiCompScheme(n_nodes=4, pmt_entries=2, detect_threshold=1)
        a = CacheBlock.from_ints([1])
        b = CacheBlock.from_ints([2])
        c = CacheBlock.from_ints([3])
        scheme.roundtrip(a, 0, 1)
        scheme.roundtrip(b, 0, 1)
        # compressible now
        assert scheme.node(0).encode(a, 1).codes[0] is not None
        # c's promotion evicts the LFU entry and invalidates the encoder
        scheme.roundtrip(c, 0, 1)
        enc_a = scheme.node(0).encode(a, 1)
        enc_b = scheme.node(0).encode(b, 1)
        assert enc_a.codes[0] is None or enc_b.codes[0] is None

    def test_admission_control_protects_hot_entries(self):
        """A hot PMT entry is not evicted by a marginal new pattern."""
        scheme = DiCompScheme(n_nodes=4, pmt_entries=2, detect_threshold=1)
        hot = CacheBlock.from_ints([1] * 8)
        for _ in range(3):
            scheme.roundtrip(hot, 0, 1)  # entry frequency well above 1
        warm = CacheBlock.from_ints([2] * 8)
        scheme.roundtrip(warm, 0, 1)  # fills the second slot, heats it
        cold = CacheBlock.from_ints([3])
        scheme.roundtrip(cold, 0, 1)  # admission denied: both entries hot
        assert scheme.node(0).encode(hot, 1).codes[0] is not None
        assert scheme.node(0).encode(warm, 1).codes[0] is not None

    def test_notification_misdelivery_raises(self):
        scheme = DiCompScheme(n_nodes=4, detect_threshold=1)
        block = CacheBlock.from_ints([9] * 4)
        encoded = scheme.node(0).encode(block, 1)
        result = scheme.node(1).decode(encoded, src=0)
        assert result.notifications
        with pytest.raises(ValueError):
            scheme.node(2).deliver_notification(result.notifications[0])

    @given(st.lists(st.lists(st.integers(-100, 100), min_size=4, max_size=4),
                    min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_exactness_property(self, blocks):
        """DI-COMP never alters data, whatever the traffic history."""
        scheme = DiCompScheme(n_nodes=3, detect_threshold=2)
        for values in blocks:
            block = CacheBlock.from_ints(values)
            out, _ = scheme.roundtrip(block, 0, 1)
            assert out.words == block.words

"""Differential tests for the flat codec datapath's lookups.

Each indexed or batched step is driven with random operation sequences
and checked against a linear reference kept in this file:

* the DI-VAXX TCAM search (precomputed care mask / care value) against a
  linear scan through :meth:`TernaryPattern.matches` — same hit, same
  ``require_exact`` behaviour, ``freq`` bumped on the same entry;
* DI-COMP's encoder pattern -> entry dict and the dictionary decoder's
  pattern -> slot dict against linear scans of their rows, and the
  decoder's detector eviction against a keyed ``min``;
* the per-block quality tally against a per-word recount, compared with
  ``==`` (the tally must be bit-identical, not approximately equal).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import Notification, NotificationKind
from repro.compression.dictionary import (
    FREQ_SATURATION,
    DiCompScheme,
    DictionaryDecoder,
    PatternDetector,
)
from repro.core.block import DataType, relative_word_error
from repro.core.di_vaxx import DiVaxxScheme
from repro.core.quality import QualityTracker

#: A few INT/FLOAT patterns plus near neighbours, so TCAM hits, misses,
#: shared care prefixes and replacements all happen.
POOL = (0, 1, 7, 100, 104, 1000, 1003, 65536, 65540, 0x3F800000,
        0x3F800003, 0x40490FDB, 0x7F800000, 0xFFFFFFFF, 0xFFFFFF00)
NODES = 4

near_pool = st.tuples(st.sampled_from(POOL), st.integers(-8, 8)).map(
    lambda pair: (pair[0] + pair[1]) & 0xFFFFFFFF)
words = st.sampled_from(POOL) | near_pool | st.integers(0, 0xFFFFFFFF)
dtypes = st.sampled_from([DataType.INT, DataType.FLOAT])

#: The TCAM test's smaller pool and decoder set: most searches then
#: probe a stored pattern or a neighbour inside its don't-care range.
TCAM_POOL = (100, 1000, 1003, 65536, 0x3F800000, 0x3F800003)
TCAM_DECODERS = st.integers(1, 2)


def tcam_ops_for(dtype):
    """Update / invalidate / search sequences that mostly stay in one
    dtype and on the pool, so hits, approximate hits and replacements
    are common."""
    mostly = st.sampled_from([dtype, dtype, dtype]) | dtypes
    near = st.tuples(st.sampled_from(TCAM_POOL), st.integers(-8, 8)).map(
        lambda pair: pair[0] + pair[1])
    update = st.tuples(st.just("update"), TCAM_DECODERS,
                       st.sampled_from(TCAM_POOL), st.integers(0, 3),
                       mostly)
    invalidate = st.tuples(st.just("invalidate"), TCAM_DECODERS,
                           st.integers(0, 3))
    search = st.tuples(st.just("search"),
                       st.sampled_from(TCAM_POOL) | near | words,
                       TCAM_DECODERS, mostly, st.booleans())
    return st.lists(st.one_of(update, update, invalidate, search, search),
                    min_size=10, max_size=60)


tcam_ops = dtypes.flatmap(tcam_ops_for)


def reference_tcam_search(node, word, dst, dtype, require_exact):
    """The TCAM as a linear scan of ternary matches, first entry wins."""
    for entry in node.encoder_entries:
        if entry is None or entry.dtype is not dtype:
            continue
        if not entry.ternary.matches(word):
            continue
        slot = entry.slots.get(dst)
        if slot is None:
            continue
        if require_exact and slot.original != word:
            continue
        if entry.freq < FREQ_SATURATION:
            entry.freq += 1
        return slot
    return None


def tcam_state(node):
    return [None if entry is None else
            (entry.ternary, entry.dtype, entry.freq,
             sorted((dst, slot.index, slot.original)
                    for dst, slot in entry.slots.items()))
            for entry in node.encoder_entries]


class TestIndexedTcam:
    @settings(max_examples=100, deadline=None)
    @given(ops=tcam_ops)
    def test_search_matches_linear_reference(self, ops):
        fast = DiVaxxScheme(NODES, pmt_entries=4).node(0)
        slow = DiVaxxScheme(NODES, pmt_entries=4).node(0)
        for op in ops:
            if op[0] == "search":
                _, word, dst, dtype, exact = op
                got = fast._tcam_search(word, dst, dtype, exact)
                want = reference_tcam_search(slow, word, dst, dtype, exact)
                assert (got is None) == (want is None)
                if got is not None:
                    assert (got.index, got.original) == (want.index,
                                                         want.original)
            else:
                if op[0] == "update":
                    _, src, pattern, index, dtype = op
                    note = Notification(NotificationKind.UPDATE, src, 0,
                                        pattern, index, dtype)
                else:
                    _, src, index = op
                    note = Notification(NotificationKind.INVALIDATE, src,
                                        0, 0, index)
                fast.deliver_notification(note)
                slow.deliver_notification(note)
            assert tcam_state(fast) == tcam_state(slow)


def reference_lookup(node, word, dst):
    """DI-COMP's encoder CAM as a linear scan of its rows."""
    for entry in node.encoder_entries:
        if entry is not None and entry.pattern == word:
            if entry.freq < FREQ_SATURATION:
                entry.freq += 1
            return entry.index_by_dst.get(dst)
    return None


def encoder_state(node):
    return [None if entry is None else
            (entry.pattern, entry.freq, sorted(entry.index_by_dst.items()))
            for entry in node.encoder_entries]


class TestIndexedDiCompEncoder:
    @settings(max_examples=100, deadline=None)
    @given(ops=tcam_ops)
    def test_lookup_matches_linear_reference(self, ops):
        fast = DiCompScheme(NODES, pmt_entries=4).node(0)
        slow = DiCompScheme(NODES, pmt_entries=4).node(0)
        for op in ops:
            if op[0] == "search":
                _, word, dst, _, _ = op
                assert fast._lookup(word, dst) == reference_lookup(
                    slow, word, dst)
            else:
                if op[0] == "update":
                    _, src, pattern, index, _ = op
                    note = Notification(NotificationKind.UPDATE, src, 0,
                                        pattern, index)
                else:
                    _, src, index = op
                    note = Notification(NotificationKind.INVALIDATE, src,
                                        0, 0, index)
                fast.deliver_notification(note)
                slow.deliver_notification(note)
            assert encoder_state(fast) == encoder_state(slow)


def reference_find(entries, pattern):
    """The decoder CAM as a linear scan."""
    for idx, entry in enumerate(entries):
        if entry is not None and entry.pattern == pattern:
            return idx
    return None


decoder_ops = st.lists(st.one_of(
    st.tuples(st.just("observe"), st.sampled_from(POOL),
              st.integers(0, NODES - 1), dtypes),
    st.tuples(st.just("use"), st.integers(0, 3))), max_size=120)


class TestDecoderSlotIndex:
    @settings(max_examples=100, deadline=None)
    @given(ops=decoder_ops, threshold=st.integers(1, 3))
    def test_slot_dict_matches_linear_find(self, ops, threshold):
        decoder = DictionaryDecoder(node_id=0, n_entries=4,
                                    detect_threshold=threshold)
        for op in ops:
            if op[0] == "observe":
                _, pattern, src, dtype = op
                decoder.observe_uncompressed(pattern, src, dtype)
            else:
                decoder.note_compressed_use(op[1])
            for pattern in POOL:
                assert decoder._slot_of.get(pattern) == reference_find(
                    decoder.entries, pattern)
            assert set(decoder._slot_of) == {
                entry.pattern for entry in decoder.entries
                if entry is not None}


class ReferenceDetector:
    """The recurrence detector with its eviction as a keyed linear min."""

    def __init__(self, capacity, threshold):
        self.capacity, self.threshold = capacity, threshold
        self.counts = {}

    def observe(self, pattern):
        count = self.counts.get(pattern, 0) + 1
        if count >= self.threshold:
            self.counts.pop(pattern, None)
            return True
        if pattern not in self.counts and len(self.counts) >= self.capacity:
            del self.counts[min(self.counts, key=self.counts.get)]
        self.counts[pattern] = count
        return False


class TestDetectorEviction:
    @settings(max_examples=100, deadline=None)
    @given(patterns=st.lists(st.sampled_from(POOL), max_size=80),
           capacity=st.integers(1, 5), threshold=st.integers(1, 4))
    def test_eviction_matches_keyed_min(self, patterns, capacity,
                                        threshold):
        fast = PatternDetector(capacity=capacity, threshold=threshold)
        slow = ReferenceDetector(capacity, threshold)
        for pattern in patterns:
            assert fast.observe(pattern) == slow.observe(pattern)
            assert list(fast._counts.items()) == list(slow.counts.items())


blocks = st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.lists(words, min_size=n, max_size=n),
    st.lists(st.one_of(st.none(), words), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))


class TestBlockQualityTally:
    @settings(max_examples=100, deadline=None)
    @given(stream=st.lists(st.tuples(blocks, dtypes), max_size=8))
    def test_tally_equals_per_word_recount(self, stream):
        batched, per_word = QualityTracker(), QualityTracker()
        for (original, replacement, encoded, approximated), dtype in stream:
            original = tuple(original)
            decoded = tuple(o if r is None else r
                            for o, r in zip(original, replacement))
            approx = [a and e for a, e in zip(approximated, encoded)]
            approx_mask = sum(1 << i for i, a in enumerate(approx) if a)
            batched.record_block_words(original, decoded, sum(encoded),
                                       sum(approx), dtype)
            assert approx_mask.bit_count() == sum(approx)
            for precise, value, enc, appr in zip(original, decoded,
                                                 encoded, approx):
                err = (relative_word_error(precise, value, dtype)
                       if precise != value else 0.0)
                per_word.record_word(encoded=enc, approximated=appr,
                                     relative_error=err)
        assert batched.error_sum == per_word.error_sum
        assert batched.max_word_error == per_word.max_word_error
        assert batched.total_words == per_word.total_words
        assert batched.exact_encoded_words == per_word.exact_encoded_words
        assert batched.approx_encoded_words == per_word.approx_encoded_words

#!/usr/bin/env python3
"""Plug-and-play: attach VAXX to your own compression mechanism.

§3.2's claim: "the proposed APPROX-NoC framework can use the VAXX technique
on top of any data compression mechanisms."  This example builds a tiny
custom codec — significance-based byte truncation — and couples the AVCL to
it in ~40 lines, then verifies the approximate variant compresses more on
clustered data while staying inside the error budget.
"""

from repro.compression.base import (
    CompressionScheme,
    DecodeResult,
    EncodedBlock,
    NodeCodec,
)
from repro.core import Avcl, CacheBlock


class ByteTruncationNode(NodeCodec):
    """Custom codec: words whose low byte is zero ship without it.

    With the AVCL in front, a word whose low byte lies entirely inside its
    don't-care mask also qualifies — the byte is dropped and the decoder
    reconstructs it as zero, within the error budget.

    An encoder hands ``_finish_encode`` three per-word results: the word
    the decoder will recover (``decoded``), what the packet carries in its
    place (``codes``; None for a verbatim word) and a bitmask of the words
    it approximated.  The mask is the encoder's declaration: NoCSan rejects
    any delivered value that differs from the original without its bit.
    """

    def __init__(self, scheme, node_id):
        super().__init__(scheme, node_id)
        self.avcl = (Avcl(scheme.error_threshold_pct)
                     if scheme.error_threshold_pct else None)

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        decoded, codes = [], []
        approx_mask = 0
        size_bits = 0
        for index, word in enumerate(block.words):
            mask = 0
            if self.avcl is not None and block.approximable:
                info = self.avcl.evaluate(word, block.dtype)
                if not info.bypass:
                    mask = info.mask
            if (word & ~mask & 0xFF) == 0:  # low byte is zero or don't-care
                kept = word & ~0xFF & 0xFFFFFFFF
                decoded.append(kept)
                codes.append(kept >> 8)  # the 24 bits that travel
                if kept != word:
                    approx_mask |= 1 << index
                size_bits += 25
            else:
                decoded.append(word)
                codes.append(None)
                size_bits += 33
        return self._finish_encode(block, tuple(decoded), tuple(codes),
                                   approx_mask, size_bits)

    def decode(self, encoded: EncodedBlock, src: int) -> DecodeResult:
        return DecodeResult(CacheBlock(encoded.decoded, dtype=encoded.dtype,
                                       approximable=encoded.approximable))


class ByteTruncationScheme(CompressionScheme):
    """The scheme wrapper: set error_threshold_pct > 0 to enable VAXX."""

    def __init__(self, n_nodes: int, error_threshold_pct: float = 0.0):
        super().__init__(n_nodes)
        self.error_threshold_pct = error_threshold_pct

    @property
    def name(self) -> str:
        return ("BT-VAXX" if self.error_threshold_pct else "BT-COMP")

    def _make_node(self, node_id: int) -> NodeCodec:
        return ByteTruncationNode(self, node_id)


def main() -> None:
    # Values with small-but-nonzero low bytes: exact truncation fails,
    # VAXX drops the insignificant byte within the 10% budget.
    block = CacheBlock.from_ints(
        [1193987, 70003, 2560000, 12, 99841, 66003, 819207, 65536,
         1048582, 5120009, 65550, 120, 7111168, 0, 6599900, 771],
        approximable=True)

    for scheme in (ByteTruncationScheme(4),
                   ByteTruncationScheme(4, error_threshold_pct=10)):
        delivered, encoded = scheme.roundtrip(block, 0, 1)
        print(f"{scheme.name}: {encoded.size_bits:4d} bits "
              f"(ratio {encoded.compression_ratio:.2f}x), "
              f"quality {scheme.quality.data_quality:.4f}")
        if scheme.error_threshold_pct:
            print("  approximated words:")
            for original, word in zip(block.as_ints(), delivered.as_ints()):
                if original != word:
                    error = abs(word - original) / original
                    print(f"    {original} -> {word} "
                          f"({error * 100:.1f}% error)")


if __name__ == "__main__":
    main()

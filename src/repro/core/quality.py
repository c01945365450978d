"""Quality accounting for approximated traffic.

Aggregates the per-word relative errors every codec reports into the two
metrics the paper plots:

* **data value quality** (Figure 9, right axis): ``1 - mean relative error``
  over *all* words transmitted during the run (exactly-compressed and
  uncompressed words contribute zero error), and
* per-mechanism word accounting (Figure 10a): fraction of words encoded,
  split into exact compression and approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.block import DataType, relative_word_error


@dataclass
class QualityTracker:
    """Accumulates word-level outcomes across a simulation run."""

    total_words: int = 0
    exact_encoded_words: int = 0
    approx_encoded_words: int = 0
    error_sum: float = 0.0
    max_word_error: float = 0.0
    blocks: int = 0
    approximable_blocks: int = 0

    def record_word(self, encoded: bool, approximated: bool,
                    relative_error: float = 0.0) -> None:
        """Record the outcome of one transmitted word."""
        self.total_words += 1
        if encoded and approximated:
            self.approx_encoded_words += 1
        elif encoded:
            self.exact_encoded_words += 1
        self.error_sum += relative_error
        if relative_error > self.max_word_error:
            self.max_word_error = relative_error

    def record_block_words(self, original: Tuple[int, ...],
                           decoded: Tuple[int, ...], encoded: int,
                           approximated: int, dtype: DataType) -> None:
        """Record every word of one transmitted block in one call.

        ``encoded`` counts the block's compressed words and
        ``approximated`` those of them the encoder approximated.  Only
        words whose decoded pattern differs from the original are priced,
        and only nonzero errors are added to ``error_sum``, in word order:
        adding 0.0 never changes a float sum, so the total is bit-identical
        to calling :meth:`record_word` once per word.
        """
        self.total_words += len(original)
        self.approx_encoded_words += approximated
        self.exact_encoded_words += encoded - approximated
        if decoded is original or decoded == original:
            return
        for precise, approx in zip(original, decoded):
            if precise != approx:
                err = relative_word_error(precise, approx, dtype)
                if err:
                    self.error_sum += err
                    if err > self.max_word_error:
                        self.max_word_error = err

    def record_block(self, approximable: bool) -> None:
        """Record one transmitted block (for approximable-ratio accounting)."""
        self.blocks += 1
        if approximable:
            self.approximable_blocks += 1

    @property
    def encoded_words(self) -> int:
        """Words compressed, exactly or approximately."""
        return self.exact_encoded_words + self.approx_encoded_words

    @property
    def encoded_fraction(self) -> float:
        """Fraction of transmitted words that were encoded (Figure 10a)."""
        if not self.total_words:
            return 0.0
        return self.encoded_words / self.total_words

    @property
    def exact_fraction(self) -> float:
        """Fraction of words encoded by exact compression."""
        if not self.total_words:
            return 0.0
        return self.exact_encoded_words / self.total_words

    @property
    def approx_fraction(self) -> float:
        """Fraction of words encoded via approximation."""
        if not self.total_words:
            return 0.0
        return self.approx_encoded_words / self.total_words

    @property
    def mean_error(self) -> float:
        """Mean relative error across every transmitted word."""
        if not self.total_words:
            return 0.0
        return self.error_sum / self.total_words

    @property
    def data_quality(self) -> float:
        """Data value quality (1 - mean relative error), Figure 9."""
        return 1.0 - self.mean_error

    def merge(self, other: "QualityTracker") -> None:
        """Fold another tracker (e.g. a different node's) into this one."""
        self.total_words += other.total_words
        self.exact_encoded_words += other.exact_encoded_words
        self.approx_encoded_words += other.approx_encoded_words
        self.error_sum += other.error_sum
        self.max_word_error = max(self.max_word_error, other.max_word_error)
        self.blocks += other.blocks
        self.approximable_blocks += other.approximable_blocks

    def reset(self) -> None:
        """Clear counters (warmup/measurement boundary)."""
        self.__init__()

    def as_dict(self) -> Dict[str, float]:
        """Summary dictionary used by the harness report formatter."""
        return {
            "total_words": self.total_words,
            "encoded_fraction": self.encoded_fraction,
            "exact_fraction": self.exact_fraction,
            "approx_fraction": self.approx_fraction,
            "mean_error": self.mean_error,
            "data_quality": self.data_quality,
            "max_word_error": self.max_word_error,
        }

"""Cache-block data model.

APPROX-NoC compresses *cache blocks* — fixed-size vectors of 32-bit words —
annotated with the two pieces of metadata the paper assumes travel with the
access request (§3.2, §5.1):

* whether the block is **approximable** (compiler/programmer annotation), and
* the **data type** of its words (integer or IEEE-754 single float; a block
  is only approximated when *all* its words share one type).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.util.bitops import (
    WORD_MASK,
    bits_to_float,
    float_to_bits,
    to_signed,
    to_unsigned,
)

#: Default cache block geometry (Table 1: 64-byte lines of 4-byte words).
WORD_BYTES = 4
BLOCK_BYTES = 64
WORDS_PER_BLOCK = BLOCK_BYTES // WORD_BYTES


class DataType(enum.Enum):
    """Word interpretation carried as block metadata."""

    INT = "int"
    FLOAT = "float"


@dataclass(frozen=True)
class CacheBlock:
    """An immutable cache block: raw 32-bit word patterns plus metadata.

    ``words`` always stores raw unsigned 32-bit patterns; use
    :meth:`as_ints` / :meth:`as_floats` for typed views and the
    :meth:`from_ints` / :meth:`from_floats` constructors to build blocks from
    typed values.
    """

    words: Tuple[int, ...]
    dtype: DataType = DataType.INT
    approximable: bool = False

    def __post_init__(self) -> None:
        cleaned = tuple(w & WORD_MASK for w in self.words)
        if any(w != c for w, c in zip(self.words, cleaned)):
            object.__setattr__(self, "words", cleaned)
        if not self.words:
            raise ValueError("a cache block must contain at least one word")

    @classmethod
    def trusted(cls, words: Tuple[int, ...], dtype: DataType,
                approximable: bool) -> "CacheBlock":
        """Build a block from words already known to be 32-bit patterns.

        Skips the :meth:`__post_init__` masking and emptiness checks: the
        codec decoders (whose output words are the encoder's 32-bit
        patterns) and trace replay (whose words were validated when the
        record was parsed or recorded) call this once per block.
        """
        block = object.__new__(cls)
        object.__setattr__(block, "words", words)
        object.__setattr__(block, "dtype", dtype)
        object.__setattr__(block, "approximable", approximable)
        return block

    @classmethod
    def from_ints(cls, values: Iterable[int],
                  approximable: bool = False) -> "CacheBlock":
        """Build an integer block from signed Python ints."""
        return cls(tuple(to_unsigned(v) for v in values),
                   dtype=DataType.INT, approximable=approximable)

    @classmethod
    def from_floats(cls, values: Iterable[float],
                    approximable: bool = False) -> "CacheBlock":
        """Build a float block from Python floats (stored as float32 bits)."""
        return cls(tuple(float_to_bits(v) for v in values),
                   dtype=DataType.FLOAT, approximable=approximable)

    @property
    def size_bytes(self) -> int:
        """Uncompressed payload size of the block."""
        return len(self.words) * WORD_BYTES

    @property
    def size_bits(self) -> int:
        """Uncompressed payload size of the block, in bits."""
        return len(self.words) * WORD_BYTES * 8

    def as_ints(self) -> List[int]:
        """Words as signed integers."""
        return [to_signed(w) for w in self.words]

    def as_floats(self) -> List[float]:
        """Words as float32 values."""
        return [bits_to_float(w) for w in self.words]

    def replace_words(self, words: Sequence[int]) -> "CacheBlock":
        """A copy of this block with different word patterns."""
        return CacheBlock(tuple(words), dtype=self.dtype,
                          approximable=self.approximable)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[int]:
        return iter(self.words)


@dataclass
class BlockErrorReport:
    """Per-block record of the value error an approximation step incurred.

    ``relative_errors`` holds one entry per word: |approx - precise| divided
    by max(|precise|, 1) for integers, or the relative significand deviation
    for floats. ``quality`` is ``1 - mean(relative_errors)`` — the "data
    value quality" metric plotted on the right axis of Figure 9.
    """

    relative_errors: List[float] = field(default_factory=list)
    approximated_words: int = 0
    exact_words: int = 0

    @property
    def total_words(self) -> int:
        """Words the report covers."""
        return len(self.relative_errors)

    @property
    def mean_error(self) -> float:
        """Mean per-word relative error (0.0 for an empty report)."""
        if not self.relative_errors:
            return 0.0
        return sum(self.relative_errors) / len(self.relative_errors)

    @property
    def quality(self) -> float:
        """Data value quality: 1 minus the mean relative error."""
        return 1.0 - self.mean_error


def relative_word_error(precise: int, approx: int, dtype: DataType) -> float:
    """Relative error between a precise and an approximated word pattern.

    For integers the error is measured on the signed values; for floats it is
    measured on the decoded float32 values, with special values (inf/NaN)
    contributing 0 when unchanged and 1 when corrupted — the AVCL is supposed
    to bypass them entirely.
    """
    if dtype is DataType.INT:
        p, a = to_signed(precise), to_signed(approx)
        return abs(a - p) / max(abs(p), 1)
    pf, af = bits_to_float(precise), bits_to_float(approx)
    if pf != pf or af != af:  # NaN on either side
        return 0.0 if precise == approx else 1.0
    if pf in (float("inf"), float("-inf")) or af in (float("inf"),
                                                     float("-inf")):
        return 0.0 if pf == af else 1.0
    # The 1e-30 clamp keeps the divisor positive; the int-interval
    # domain cannot represent float constants.  # repro: allow[possible-zero-div]
    return abs(af - pf) / max(abs(pf), 1e-30)

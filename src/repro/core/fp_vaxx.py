"""FP-VAXX: value approximation on frequent pattern compression (Figure 6).

For every word of an approximable block, the AVCL first determines the
don't-care bits; the masked word is then matched against the static frequent
pattern table, so only the care bits must coincide with a pattern row.  The
delivered word is the best pattern-class member inside the don't-care block,
and the paper's priority rule applies: the highest-priority row wins even
when a lower-priority row would have matched exactly (§5.3.1).

Non-approximable blocks — and float special values the AVCL bypasses —
fall back to exact FP-COMP matching.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.compression import fpc
from repro.compression.base import EncodedBlock, NodeCodec
from repro.compression.schemes import FpCompNode, FpCompScheme
from repro.core.avcl import Avcl
from repro.core.block import CacheBlock
from repro.core.error_control import ErrorBudget


class FpVaxxNode(FpCompNode):
    """Per-node FP-VAXX codec: AVCL + masked frequent-pattern matching."""

    def __init__(self, scheme: "FpVaxxScheme", node_id: int):
        super().__init__(scheme, node_id)
        self.avcl = Avcl(scheme.error_threshold_pct, mode=scheme.avcl_mode)
        self.budget = scheme.make_budget()

    def encode(self, block: CacheBlock, dst: int) -> EncodedBlock:
        if not block.approximable:
            return super().encode(block, dst)
        dtype = block.dtype
        evaluate = self.avcl.evaluate
        budget = self.budget
        decoded: List[int] = []  # repro: allow[hot-alloc]
        codes: List[Optional[int]] = []  # repro: allow[hot-alloc]
        approx_mask = 0
        bit = 1  # this word's bit in approx_mask
        for word in block.words:
            info = evaluate(word, dtype)
            if info.bypass or info.mask == 0:
                cls, candidate = fpc.match_exact(word)
                budget.record_exact()
            else:
                cls, candidate = fpc.match_approx(word, info.mask)
                if candidate == word:
                    budget.record_exact()
                elif not budget.admits(word, candidate, dtype):
                    cls, candidate = fpc.match_exact(word)
                else:
                    # A changed candidate always comes from a compressible
                    # row: the uncompressed row returns the word itself.
                    approx_mask |= bit
            decoded.append(candidate)
            codes.append(cls.nr_code)
            bit <<= 1
        return self._finish_encode(block, tuple(decoded), tuple(codes),
                                   approx_mask, fpc.block_bits(codes))


class FpVaxxScheme(FpCompScheme):
    """FP-VAXX: the VAXX engine coupled to FP-COMP.

    ``budget_factory`` lets experiments swap the per-word error policy for
    the window-based budget of the paper's future-work section.
    """

    def __init__(self, n_nodes: int, error_threshold_pct: float = 10.0,
                 avcl_mode: str = "paper",
                 budget_factory: Optional[Callable[[], ErrorBudget]] = None):
        super().__init__(n_nodes)
        self.error_threshold_pct = error_threshold_pct
        self.avcl_mode = avcl_mode
        self._budget_factory = budget_factory or ErrorBudget

    @property
    def name(self) -> str:
        return "FP-VAXX"

    def make_budget(self) -> ErrorBudget:
        """A fresh per-node error-control policy instance."""
        return self._budget_factory()

    def _make_node(self, node_id: int) -> NodeCodec:
        return FpVaxxNode(self, node_id)

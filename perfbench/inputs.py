"""Seeded input generation for the benchmark workloads.

Every input a workload feeds the simulator is derived here from the
``--seed`` the benchmark was given, so the same seed always yields the
same inputs and the simulator only ever sees generated data.
"""

from __future__ import annotations

import random
import struct
from typing import Iterator, List

from repro.core.block import DataType
from repro.noc.packet import PacketKind
from repro.traffic import TraceRecord

#: Words per cache block on the simulated 64-byte line.
WORDS_PER_BLOCK = 16

#: The sparse trace: one injection episode per ``GAP`` cycles, from one of
#: ``SOURCES`` active nodes, mostly to one of ``HOT_NODES`` destinations.
#: ``DATA_RATIO`` of the packets carry data, ``APPROX_RATIO`` of those are
#: approximable.
GAP = 200
SOURCES = 32
HOT_NODES = 8
DATA_RATIO = 0.7
APPROX_RATIO = 0.75


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed for one input stream, fixed by ``seed`` and labels.

    ``random.Random`` seeds strings through SHA-512, so the result does
    not depend on ``PYTHONHASHSEED`` or the interpreter run.
    """
    key = ":".join(str(part) for part in (seed,) + labels)
    return random.Random(key).getrandbits(31)


def _float_word(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _block_words(rng: random.Random, base: float,
                 dtype: DataType) -> tuple:
    """One block of words clustered around ``base``.

    Offsets come from a small set, so the same words recur across blocks
    (what the dictionary schemes learn) and neighbouring words differ by
    a few percent (what the approximate matchers exploit).
    """
    if dtype is DataType.INT:
        start = int(base)
        return tuple((start + rng.randrange(4)) & 0xFFFFFFFF
                     for _ in range(WORDS_PER_BLOCK))
    return tuple(_float_word(base * (1.0 + 0.01 * rng.randint(-3, 3)))
                 for _ in range(WORDS_PER_BLOCK))


def sparse_trace_records(seed: int, n_nodes: int, cycles: int
                         ) -> Iterator[TraceRecord]:
    """A sparse, bursty trace: one short injection episode in every
    ``GAP`` cycles, starting at a random point of its first half, and
    quiet in between.

    Each episode picks one of ``SOURCES`` active nodes and sends 1-4
    packets over a few cycles, mostly to one of ``HOT_NODES`` shared
    destinations (the way cores share a few memory controllers).  Data
    packets carry INT or FLOAT blocks drawn around a shared pool of base
    values.  Records come out in cycle order, as the trace writer
    requires.
    """
    rng = random.Random(derive_seed(seed, "sparse_trace"))
    active = rng.sample(range(n_nodes), SOURCES)
    hot = rng.sample(range(n_nodes), HOT_NODES)
    pool = [rng.randrange(1 << 20) for _ in range(4)] + \
        [rng.uniform(1.0, 1e4) for _ in range(4)]
    for episode in range(cycles // GAP):
        at = episode * GAP + rng.randrange(GAP // 2)
        src = rng.choice(active)
        for _ in range(rng.randint(1, 4)):
            dst = rng.choice(hot) if rng.random() < 0.8 \
                else rng.randrange(n_nodes)
            if dst == src:
                dst = (dst + 1) % n_nodes
            if rng.random() < DATA_RATIO:
                base = rng.choice(pool)
                dtype = (DataType.FLOAT if isinstance(base, float)
                         else DataType.INT)
                yield TraceRecord(cycle=at, src=src, dst=dst,
                                  kind=PacketKind.DATA,
                                  words=_block_words(rng, base, dtype),
                                  dtype=dtype,
                                  approximable=rng.random() < APPROX_RATIO)
            else:
                yield TraceRecord(cycle=at, src=src, dst=dst,
                                  kind=PacketKind.CONTROL)
            at += rng.randint(0, 2)


def campaign_grid(seed: int, benchmarks: List[str],
                  mechanisms: List[str]) -> dict:
    """The campaign workload's first request: every benchmark under every
    mechanism, with the trace seed derived from ``seed``."""
    return {"benchmarks": list(benchmarks),
            "mechanisms": list(mechanisms),
            "seeds": [derive_seed(seed, "campaign") % 100_000]}

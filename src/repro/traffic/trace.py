"""Communication-trace format, IO and replay.

The paper collects gem5 region-of-interest communication traces and feeds
them to the NoC simulator (§5.1).  We mirror that flow: any traffic source
(synthetic, benchmark models, the cache simulator) can be *recorded* into a
trace, saved as JSON-lines, and replayed cycle-accurately under a different
compression mechanism — which is precisely how the figures compare
mechanisms on identical traffic.

Two on-disk encodings share one record model:

* JSON-lines (this module): human-readable, one record per line — the
  interchange format, loaded eagerly or streamed via :func:`iter_trace`;
* the versioned binary format (:mod:`repro.traffic.tracefile`):
  memory-mapped, chunk-indexed, O(chunk) replay memory — the format for
  million-packet traces on big meshes (DESIGN.md §17).

Every import path funnels through :func:`validate_record`, so a malformed
trace is rejected with the offending record named instead of surfacing as
a simulator crash thousands of cycles later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from repro.core.block import CacheBlock, DataType
from repro.noc.ni import TrafficRequest
from repro.noc.packet import PacketKind

#: Exclusive upper bound of a 32-bit word pattern.
WORD_LIMIT = 1 << 32


class TraceFormatError(ValueError):
    """A trace file (JSONL or binary) is malformed or violates the record
    invariants.  The message always names the offending file location
    (line or record index) and what was expected."""


@dataclass(frozen=True)
class TraceRecord:
    """One packet injection event."""

    cycle: int
    src: int
    dst: int
    kind: PacketKind
    words: Optional[tuple] = None
    dtype: DataType = DataType.INT
    approximable: bool = False

    def to_request(self) -> TrafficRequest:
        """Convert to the NI-facing request.

        The words are trusted as 32-bit patterns: every ingestion path
        validates them (:meth:`from_json`, :func:`validate_record`, the
        binary reader's unsigned 32-bit decode) or took them from a
        recorded :class:`CacheBlock`.
        """
        block = None
        if self.kind is PacketKind.DATA:
            block = CacheBlock.trusted(tuple(self.words), self.dtype,
                                       self.approximable)
        return TrafficRequest(self.src, self.dst, self.kind, block)

    def to_json(self) -> str:
        """Serialize to one JSON line."""
        payload = {"c": self.cycle, "s": self.src, "d": self.dst,
                   "k": self.kind.value}
        if self.kind is PacketKind.DATA:
            payload["w"] = list(self.words)
            payload["t"] = self.dtype.value
            payload["a"] = int(self.approximable)
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str, where: str = "record") -> "TraceRecord":
        """Parse and validate one JSON line.

        ``where`` names the source location (e.g. ``"trace.jsonl:17"``) in
        error messages.  Structural problems — wrong types, unknown kinds,
        words outside ``[0, 2**32)`` — raise :class:`TraceFormatError`;
        stream-level invariants (cycle monotonicity, src/dst vs the mesh)
        are checked by the callers via :func:`validate_record`, which know
        the previous cycle and the node count.
        """
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise TraceFormatError(f"{where}: not valid JSON ({exc})") \
                from None
        if not isinstance(payload, dict):
            raise TraceFormatError(
                f"{where}: expected a JSON object, got "
                f"{type(payload).__name__}")
        for key in ("c", "s", "d", "k"):
            if key not in payload:
                raise TraceFormatError(
                    f"{where}: missing required field {key!r}")
        for key in ("c", "s", "d"):
            value = payload[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise TraceFormatError(
                    f"{where}: field {key!r} must be an integer, got "
                    f"{value!r}")
        try:
            kind = PacketKind(payload["k"])
        except ValueError:
            raise TraceFormatError(
                f"{where}: unknown packet kind {payload['k']!r} (expected "
                f"one of {[k.value for k in PacketKind]})") from None
        words: Optional[tuple] = None
        if kind is PacketKind.DATA:
            raw = payload.get("w")
            if not isinstance(raw, list) or not raw:
                raise TraceFormatError(
                    f"{where}: data record needs a non-empty word list "
                    f"'w', got {raw!r}")
            for i, word in enumerate(raw):
                if not isinstance(word, int) or isinstance(word, bool) or \
                        not 0 <= word < WORD_LIMIT:
                    raise TraceFormatError(
                        f"{where}: word {i} is {word!r}, expected an "
                        f"integer in [0, 2**32)")
            words = tuple(raw)
        elif "w" in payload:
            raise TraceFormatError(
                f"{where}: {kind.value} record must not carry words")
        try:
            dtype = DataType(payload.get("t", "int"))
        except ValueError:
            raise TraceFormatError(
                f"{where}: unknown dtype {payload['t']!r} (expected one "
                f"of {[t.value for t in DataType]})") from None
        return cls(cycle=payload["c"], src=payload["s"], dst=payload["d"],
                   kind=kind, words=words, dtype=dtype,
                   approximable=bool(payload.get("a", 0)))


def validate_record(record: TraceRecord, prev_cycle: int,
                    n_nodes: Optional[int], where: str) -> None:
    """Reject a record that could not have come from a real recording.

    Shared by the JSONL loader, the binary writer and the external-trace
    importer, so every ingestion path enforces the same invariants:

    * cycles are non-negative and non-decreasing (``prev_cycle`` is the
      previous record's cycle, ``-1`` before the first record);
    * ``src``/``dst`` address distinct nodes inside the mesh when
      ``n_nodes`` is known (pass None to skip the range check);
    * data records carry at least one word in ``[0, 2**32)``, non-data
      records carry none.

    ``where`` names the offending location in the raised
    :class:`TraceFormatError`.
    """
    if record.cycle < 0:
        raise TraceFormatError(
            f"{where}: negative cycle {record.cycle}")
    if record.cycle < prev_cycle:
        raise TraceFormatError(
            f"{where}: cycle {record.cycle} goes backwards (previous "
            f"record was at cycle {prev_cycle}); traces must be "
            f"cycle-sorted")
    if record.src == record.dst:
        raise TraceFormatError(
            f"{where}: src and dst are both node {record.src}; a packet "
            f"must cross the network")
    for label, node in (("src", record.src), ("dst", record.dst)):
        if node < 0 or (n_nodes is not None and node >= n_nodes):
            bound = f"[0, {n_nodes})" if n_nodes is not None else ">= 0"
            raise TraceFormatError(
                f"{where}: {label} node {node} outside the mesh "
                f"({bound})")
    if record.kind is PacketKind.DATA:
        if not record.words:
            raise TraceFormatError(
                f"{where}: data record carries no words")
        for i, word in enumerate(record.words):
            if not 0 <= word < WORD_LIMIT:
                raise TraceFormatError(
                    f"{where}: word {i} is {word!r}, expected an integer "
                    f"in [0, 2**32)")
    elif record.words:
        raise TraceFormatError(
            f"{where}: {record.kind.value} record must not carry words")


def iter_recorded(source, cycles: int) -> Iterator[TraceRecord]:
    """Stream a traffic source's injections as :class:`TraceRecord`
    objects, one cycle at a time — the streaming counterpart of
    :func:`record_trace` (nothing is accumulated; feed the generator to
    :func:`save_trace` or :func:`repro.traffic.tracefile.write_trace` to
    record arbitrarily long runs in bounded memory)."""
    for cycle in range(cycles):
        for request in source.generate(cycle):
            words = request.block.words if request.block is not None else None
            dtype = (request.block.dtype if request.block is not None
                     else DataType.INT)
            approximable = (request.block.approximable
                            if request.block is not None else False)
            yield TraceRecord(
                cycle=cycle, src=request.src, dst=request.dst,
                kind=request.kind, words=words, dtype=dtype,
                approximable=approximable)


def record_trace(source, cycles: int) -> List[TraceRecord]:
    """Run a traffic source standalone and capture its injections."""
    return list(iter_recorded(source, cycles))


def save_trace(records: Iterable[TraceRecord],
               path: Union[str, Path]) -> None:
    """Write a trace as JSON lines.

    ``records`` may be any iterable — a list, or a generator such as
    :func:`iter_recorded` / :func:`iter_trace`; records are written as
    they arrive, never materialized."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(record.to_json())
            handle.write("\n")


def iter_trace(path: Union[str, Path],
               n_nodes: Optional[int] = None) -> Iterator[TraceRecord]:
    """Stream a JSON-lines trace one record at a time.

    O(1) memory in the trace length.  Every record is validated
    (:func:`validate_record`), including cycle monotonicity across the
    stream; pass ``n_nodes`` to also pin src/dst to the mesh.  Errors
    name the offending ``path:line``.
    """
    prev_cycle = -1
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            record = TraceRecord.from_json(line, where=where)
            validate_record(record, prev_cycle, n_nodes, where)
            prev_cycle = record.cycle
            yield record


def load_trace(path: Union[str, Path],
               n_nodes: Optional[int] = None) -> List[TraceRecord]:
    """Read a JSON-lines trace eagerly (see :func:`iter_trace` for the
    streaming variant and the validation it applies)."""
    return list(iter_trace(path, n_nodes=n_nodes))


def approx_override_marked(ordinal: int, ratio: float) -> bool:
    """Deterministic stride marking for ``approx_override`` replay: whether
    the ``ordinal``-th data packet (1-based) is marked approximable so the
    stream's approximable fraction converges to ``ratio``.  Shared by
    :class:`TraceTraffic` and the streaming binary replayer so the same
    packets flip for every mechanism under test, keeping comparisons
    paired."""
    return (ordinal * ratio) % 1.0 >= (1.0 - ratio)


class TraceTraffic:
    """Replays a recorded trace into the network.

    ``loop`` restarts the trace when exhausted (with cycle offsets), so a
    short trace can drive an arbitrarily long measurement window.
    ``approx_override`` forces the approximable-packet ratio to a different
    value than recorded (used by the Figure 14 sensitivity sweep): packets
    are re-marked deterministically by packet ordinal.
    """

    def __init__(self, records: List[TraceRecord], loop: bool = False,
                 approx_override: Optional[float] = None):
        self._records = sorted(records, key=lambda r: r.cycle)
        self.loop = loop
        self.approx_override = approx_override
        self._index = 0
        self._offset = 0
        self._span = (self._records[-1].cycle + 1) if self._records else 0
        self._ordinal = 0

    def exhausted(self, cycle: int) -> bool:
        """True when a non-looping trace has been fully injected."""
        return not self.loop and self._index >= len(self._records)

    def _mark(self, request: TrafficRequest) -> TrafficRequest:
        if (self.approx_override is None
                or request.kind is not PacketKind.DATA):
            return request
        self._ordinal += 1
        approximable = approx_override_marked(self._ordinal,
                                              self.approx_override)
        block = CacheBlock.trusted(request.block.words, request.block.dtype,
                                   approximable)
        return TrafficRequest(request.src, request.dst, request.kind, block)

    def next_arrival(self, now: int,
                     limit: Optional[int] = None) -> Optional[int]:
        """Earliest cycle ``>= now`` with recorded injections, or None when
        the trace is exhausted (or nothing is due by ``limit``).

        Pure index arithmetic — no RNG, no lookahead buffering: the next
        record's due cycle is already known.  Loop wrap-around happens
        inside :meth:`generate` (which the network always calls at the due
        cycle, skipped or not), so the offset here is always current.
        """
        if self._index >= len(self._records):
            return None
        when = self._records[self._index].cycle + self._offset
        if when < now:
            when = now  # defensive: overdue record -> never skip past it
        if limit is not None and when > limit:
            return None
        return when

    def generate(self, cycle: int) -> List[TrafficRequest]:
        """Requests recorded for this cycle."""
        requests = []
        while self._index < len(self._records):
            record = self._records[self._index]
            when = record.cycle + self._offset
            if when > cycle:
                break
            requests.append(self._mark(record.to_request()))
            self._index += 1
            if self._index >= len(self._records) and self.loop:
                self._index = 0
                self._offset = cycle + 1
        return requests

"""Network Interface: packetization, compression hooks, reassembly.

The NI is where APPROX-NoC lives (Figure 1): outbound cache blocks pass
through the VAXX + encoder pipeline before fragmentation into flits, and
inbound packets pass through the decoder after reassembly.

Latency model (§4.3):

* compression costs ``scheme.compression_cycles`` (3: two match + one
  encode) but overlaps with NI queueing — a packet's injection may not start
  before ``created + compression_cycles``, yet time spent waiting behind
  earlier packets counts against that bound, so a busy queue hides the
  codec entirely;
* the head flit is never compressed, so its VC arbitration overlaps with
  compression (already covered by the same bound);
* decompression costs ``scheme.decompression_cycles`` (2) after the tail
  flit arrives.

Dictionary-protocol notifications produced by the decoder are injected here
as single-flit control packets addressed to the corresponding encoder node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.compression.base import (
    CompressionScheme,
    Notification,
    packet_flits,
)
from repro.core.block import CacheBlock
from repro.noc.packet import Flit, Packet, PacketKind, fragment
from repro.noc.stats import NetworkStats

#: Delivery callback: ``(packet, delivered_block, now)``; the block is None
#: for control/notification packets.
DeliverCallback = Callable[[Packet, Optional[CacheBlock], int], None]


@dataclass(frozen=True, slots=True)
class TrafficRequest:
    """What a producer (traffic generator, cache, application) asks the NI
    to transmit."""

    src: int
    dst: int
    kind: PacketKind
    block: Optional[CacheBlock] = None


class NetworkInterface:
    """Per-node NI: injection queue, codec, reassembly and delivery."""

    def __init__(self, node_id: int, scheme: CompressionScheme,
                 num_vcs: int, vc_depth: int, stats: NetworkStats,
                 flit_bytes: int = 8,
                 on_deliver: Optional[DeliverCallback] = None,
                 overlap_compression: bool = True):
        self.node_id = node_id
        self.scheme = scheme
        self.codec = scheme.node(node_id)
        self.stats = stats
        self.flit_bytes = flit_bytes
        self.num_vcs = num_vcs
        self.on_deliver = on_deliver
        #: §4.3 latency-hiding optimization: compression overlaps with NI
        #: queueing.  Disable to quantify the optimization (ablation).
        self.overlap_compression = overlap_compression
        #: Fault-injection layer (repro.faults), attached by the network
        #: when ``config.faults`` is set; None leaves every hook dormant.
        self._fault_layer = None
        self._queue: deque[Packet] = deque()
        self._current_flits: Optional[List[Flit]] = None
        self._current_index = 0
        self._current_vc: Optional[int] = None
        self._vc_rr = 0
        self._credits = [vc_depth] * num_vcs
        #: (completion_cycle, packet) decode jobs, in completion order.
        self._pending_decodes: deque[tuple[int, Packet]] = deque()
        #: Notifications waiting to be packetized.
        self._outbound_notifications: deque[Notification] = deque()

    def attach_fault_layer(self, layer) -> None:
        """Wire the fault-injection layer's NI hooks (network construction
        time, before any simulation)."""
        self._fault_layer = layer

    # ----------------------------------------------------------- ingress

    def submit(self, request: TrafficRequest, now: int) -> Packet:
        """Accept a transmission request; returns the queued packet."""
        if request.src != self.node_id:
            raise ValueError(
                f"request for node {request.src} submitted to NI "
                f"{self.node_id}")
        layer = self._fault_layer
        if layer is not None and request.kind is PacketKind.DATA:
            # Graceful degradation may force the block exact (§13).
            request = layer.on_submit_request(request, now)
        if request.kind is PacketKind.DATA:
            if request.block is None:
                raise ValueError("data packets must carry a cache block")
            encoded = self.codec.encode(request.block, request.dst)
            self.stats.compression_ops += 1
            size = packet_flits(encoded.size_bytes, self.flit_bytes)
            comp_cycles = (encoded.compression_cycles
                           if encoded.compression_cycles is not None
                           else self.scheme.compression_cycles)
            packet = Packet(src=request.src, dst=request.dst,
                            kind=PacketKind.DATA, size_flits=size,
                            block=request.block, encoded=encoded,
                            created=now,
                            inject_ready=now + comp_cycles)
        else:
            packet = Packet(src=request.src, dst=request.dst,
                            kind=request.kind, created=now, inject_ready=now)
        self._queue.append(packet)
        if layer is not None:
            layer.on_packet_queued(self, packet, now)
        return packet

    def credit(self, vc: int) -> None:
        """Credit return from the router's local input port."""
        self._credits[vc] += 1

    @property
    def queue_depth(self) -> int:
        """Packets waiting (including the one being transmitted)."""
        return len(self._queue) + (1 if self._current_flits else 0)

    def busy(self) -> bool:
        """Anything left to inject, decode or notify?"""
        return bool(self._queue or self._current_flits
                    or self._pending_decodes or self._outbound_notifications)

    def next_work(self, now: int) -> Optional[int]:
        """Earliest cycle ``>= now`` this NI can act without external
        input, or None when only network activity can unblock it
        (skip-safety wakeup; DESIGN.md §12).

        Called at a skip decision point, i.e. right after a zero-activity
        cycle (or on an empty network), so any transition this NI could
        make on its own resolves to one of the timers below.  Answering
        too early merely costs a stepped cycle that re-proves quiescence;
        answering too late would skip real work, so every uncertain case
        answers ``now``.
        """
        horizon: Optional[int] = None
        if self._pending_decodes:
            due = self._pending_decodes[0][0]
            if due <= now:
                return now
            horizon = due
        if self._outbound_notifications:
            return now  # defensive: process() drains these every cycle
        if self._current_flits is not None:
            # Mid-packet.  After a zero-activity cycle the next flit must
            # be credit-blocked (otherwise it would have injected, which is
            # activity); credits only arrive via network activity, so no
            # self-wakeup — unless the credit view says otherwise, in
            # which case refuse to skip.
            vc = self._current_vc
            if vc is None:
                if any(credits > 0 for credits in self._credits):
                    return now
            elif self._credits[vc] > 0:
                return now
        elif self._queue:
            head = self._queue[0]
            if not self.overlap_compression and not head.compression_started \
                    and head.kind is PacketKind.DATA:
                # Compression starts when the head packet is first *tried*
                # (§4.3 ablation path); that try stamps inject_ready, so it
                # must happen on a stepped cycle.
                return now
            ready = head.inject_ready
            if ready > now:
                if horizon is None or ready < horizon:
                    horizon = ready
            elif any(credits > 0 for credits in self._credits):
                return now
            # else: injectable but credit-starved — external credits only.
        return horizon

    def audit_credits(self, local_occupancy: List[int],
                      vc_depth: int,
                      missing: Optional[List[int]] = None) -> List[str]:
        """NoCSan hook: check this NI's credit view per VC.

        ``local_occupancy[vc]`` is the current buffer occupancy of the
        router's local input port.  At the end of a network step (credits
        applied, injection synchronous) ``credits + occupancy`` must equal
        ``vc_depth`` exactly; anything else means a credit was lost,
        duplicated or stolen.  ``missing[vc]`` discounts credits the fault
        injector is known to have swallowed (outstanding until the
        watchdog resynchronizes them); without recovery the strict
        equation stands and a swallowed credit is a violation.
        """
        violations: List[str] = []
        for vc, credits in enumerate(self._credits):
            if credits < 0:
                violations.append(f"vc {vc}: negative credit count "
                                  f"{credits}")
            occupancy = local_occupancy[vc]
            expected = vc_depth - (missing[vc] if missing is not None else 0)
            if credits + occupancy != expected:
                violations.append(
                    f"vc {vc}: credits {credits} + local-port occupancy "
                    f"{occupancy} != expected {expected} "
                    f"(vc_depth {vc_depth})")
        return violations

    # -------------------------------------------------------------- tick

    def tick(self, now: int,
             accept: Callable[[int, Flit, int], None]) -> bool:
        """This NI's turn in one network cycle: finish the decode jobs due
        now and packetize their notifications (:meth:`process`), then
        push at most one flit (:meth:`inject`).  Each half runs only when
        it has something to do.  Returns :meth:`busy` afterwards, so the
        network can drop an idle NI from its active set."""
        pending = self._pending_decodes
        if (pending and pending[0][0] <= now) \
                or self._outbound_notifications:
            self.process(now)
        if self._current_flits is not None or self._queue:
            self.inject(now, accept)
        return self.busy()

    # --------------------------------------------------------- injection

    def inject(self, now: int,
               accept: Callable[[int, Flit, int], None]) -> None:
        """Push at most one flit into the router's local input port.

        ``accept(vc, flit, now)`` buffers the flit in the router.
        """
        if self._current_flits is None and not self._start_next_packet(now):
            return
        flits = self._current_flits
        packet = flits[0].packet
        if self._current_vc is None:
            self._current_vc = self._pick_vc()
            if self._current_vc is None:
                return  # every VC is out of credits
        vc = self._current_vc
        if self._credits[vc] <= 0:
            return
        flit = flits[self._current_index]
        self._credits[vc] -= 1
        accept(vc, flit, now)
        if flit.is_head:
            packet.head_injected = now
            self.stats.record_injection(packet)
        self._current_index += 1
        if self._current_index >= len(flits):
            self._current_flits = None
            self._current_index = 0
            self._current_vc = None

    def _start_next_packet(self, now: int) -> bool:
        """Dequeue the next injectable packet (FIFO, §4.3 overlap rule)."""
        if not self._queue:
            return False
        head = self._queue[0]
        if not self.overlap_compression and not head.compression_started \
                and head.kind is PacketKind.DATA:
            # Without the overlap optimization, compression only begins
            # when the packet reaches the head of the queue.
            comp_cycles = (head.encoded.compression_cycles
                           if head.encoded.compression_cycles is not None
                           else self.scheme.compression_cycles)
            head.inject_ready = max(head.inject_ready, now + comp_cycles)
            head.compression_started = True
        if head.inject_ready > now:
            return False
        packet = self._queue.popleft()
        self._current_flits = fragment(packet)
        self._current_index = 0
        self._current_vc = None
        return True

    def _pick_vc(self) -> Optional[int]:
        """Round-robin VC selection for a new packet."""
        for k in range(self.num_vcs):
            vc = (self._vc_rr + k) % self.num_vcs
            if self._credits[vc] > 0:
                self._vc_rr = (vc + 1) % self.num_vcs
                return vc
        return None

    # ---------------------------------------------------------- ejection

    def eject(self, flit: Flit, now: int) -> None:
        """A flit arrived on the ejection port."""
        if not flit.is_tail:
            return  # reassembly is implicit: flits arrive in order per packet
        packet = flit.packet
        packet.tail_ejected = now
        if packet.kind is PacketKind.DATA:
            delay = (packet.encoded.decompression_cycles
                     if packet.encoded.decompression_cycles is not None
                     else self.scheme.decompression_cycles)
            self._pending_decodes.append((now + delay, packet))
        else:
            self._complete(packet, decode_latency=0, now=now)

    def process(self, now: int) -> None:
        """Finish decode jobs due this cycle and queue their notifications."""
        while self._pending_decodes and self._pending_decodes[0][0] <= now:
            due, packet = self._pending_decodes.popleft()
            result = self.codec.decode(packet.encoded, packet.src)
            self.stats.decompression_ops += 1
            block = result.block
            fault = packet.fault
            if fault is not None and fault.corrupted:
                # Injected corruption damages the *delivered* value, after
                # decode — the codec and dictionary state stay clean.
                block = fault.apply(block)
                layer = self._fault_layer
                if layer is not None and layer.reject_corrupt(self, packet,
                                                              now):
                    # CRC rejected: consumed (a NACK is queued in its
                    # place); protocol notifications still apply — the
                    # decoders already learned from the encoded stream.
                    for notification in result.notifications:
                        self._outbound_notifications.append(notification)
                    continue
                if layer is not None:
                    layer.on_delivery(self, packet, block, now)
            self._complete(packet, decode_latency=now - packet.tail_ejected,
                           now=now, delivered_block=block)
            for notification in result.notifications:
                self._outbound_notifications.append(notification)
        while self._outbound_notifications:
            notification = self._outbound_notifications.popleft()
            self.submit(TrafficRequest(src=self.node_id,
                                       dst=notification.dst,
                                       kind=PacketKind.NOTIFICATION), now)
            self._queue[-1].notification = notification

    def _complete(self, packet: Packet, decode_latency: int, now: int,
                  delivered_block: Optional[CacheBlock] = None) -> None:
        """Record delivery and hand the payload to the attached consumer."""
        if packet.kind is PacketKind.NOTIFICATION:
            self.codec.deliver_notification(packet.notification)
        elif packet.kind is PacketKind.NACK \
                and self._fault_layer is not None:
            # This node's earlier transmission was CRC-rejected at the
            # destination: retransmit within the retry budget.
            self._fault_layer.on_nack(self, packet, now)
        self.stats.record_delivery(packet, decode_latency)
        if self.on_deliver is not None:
            self.on_deliver(packet, delivered_block, now)

"""The deterministic fault-injection layer.

One :class:`FaultInjector` is built per :class:`~repro.noc.network.Network`
when ``NocConfig.faults`` is set.  Every stochastic decision draws from the
injector's own :class:`~repro.util.rng.DeterministicRng` tree (seeded from
``FaultConfig.seed``, forked per fault class, and per link/router for the
scheduled classes), so fault campaigns are seed-reproducible and entirely
independent of the traffic RNG.

Determinism under the event horizon (DESIGN.md §13):

* **Traversal-coupled faults** (bit-flips, drops, credit loss) draw one
  Bernoulli per event *as the event happens*.  Traversals and credit
  returns are activity, and activity is bit-identical between always-step
  and event-horizon runs, so the draw sequences are too.
* **Scheduled faults** (stuck-at windows, router fail-stop) pre-draw their
  window sequences per link/router with geometric inter-arrivals.  A
  schedule is advanced lazily, but only ever *to* the queried cycle: the
  state after any query at cycle ``t`` is a pure function of ``t`` (prefix
  property of the draw sequence), so querying patterns that differ between
  execution modes cannot diverge the streams.  Armed schedules pin
  event-horizon wakeups through :meth:`FaultInjector.next_event`, so a
  skip can never jump over a fail-stop onset or revival.

Corruption is recorded as metadata (:class:`PacketFaultState` on
``Packet.fault``) and applied to the *delivered* words at the destination
NI — never to the encoded stream — so the NoCSan end-to-end oracle can
tell injected faults from intended approximation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.config import (
    BITFLIP_SALT,
    CREDIT_LOSS_SALT,
    DROP_SALT,
    FAILSTOP_SALT,
    FaultConfig,
    STUCK_SALT,
)
from repro.faults.recovery import RecoveryManager
from repro.noc.packet import Flit, PacketKind
from repro.noc.topology import NUM_DIRECTIONS
from repro.util.rng import DeterministicRng


def geometric(rng: DeterministicRng, p: float) -> int:
    """Cycles until the next event of a per-cycle-probability-``p`` process
    (inverse-CDF sampling; one uniform draw per call)."""
    if p >= 1.0:
        return 0
    u = rng.random()
    # log1p keeps the tail exact for tiny rates; u < 1 so log1p(-u) <= 0.
    return int(math.log1p(-u) / math.log1p(-p))


class PacketFaultState:
    """Per-packet fault metadata riding on ``Packet.fault``.

    ``xors`` records injected corruption as ``(word_index, xor_mask)``
    pairs against the *decoded* words the encoder promised; ``apply``
    materializes them on the delivered block.  ``dropped_flits`` counts
    body flits that vanished in transit (the modeled CRC detects those
    through the length mismatch even when the value damage happens to be
    zero).  ``nack_pid`` is set only on NACK packets and names the packet
    being complained about.
    """

    __slots__ = ("xors", "dropped_flits", "nack_pid")

    def __init__(self) -> None:
        self.xors: List[Tuple[int, int]] = []
        self.dropped_flits = 0
        self.nack_pid: Optional[int] = None

    @property
    def corrupted(self) -> bool:
        """Would a per-packet CRC at the destination reject this packet?"""
        return bool(self.xors) or self.dropped_flits > 0

    def record_xor(self, index: int, mask: int) -> None:
        """Record one word corruption (a zero mask is a no-op)."""
        if mask:
            self.xors.append((index, mask))

    def apply(self, block: Any) -> Any:
        """The delivered :class:`~repro.core.block.CacheBlock` after this
        packet's injected corruption."""
        if not self.xors:
            return block
        words = list(block.words)
        n = len(words)
        for index, mask in self.xors:
            words[index % n] ^= mask
        return block.replace_words(words)


def _fault_state(packet: Any) -> PacketFaultState:
    """The packet's fault state, created on first corruption."""
    state = packet.fault
    if state is None:
        state = PacketFaultState()
        packet.fault = state
    return state


@dataclass(slots=True)
class FaultStats:
    """Injection counters (one instance per network)."""

    bitflips: int = 0
    flits_dropped: int = 0
    stuck_corruptions: int = 0
    credits_lost: int = 0

    @property
    def total(self) -> int:
        """Faults injected across every class."""
        return (self.bitflips + self.flits_dropped
                + self.stuck_corruptions + self.credits_lost)

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe counter snapshot."""
        return {"bitflips": self.bitflips,
                "flits_dropped": self.flits_dropped,
                "stuck_corruptions": self.stuck_corruptions,
                "credits_lost": self.credits_lost,
                "faults_injected": self.total}


class _WindowSchedule:
    """Lazily-advanced fault-window sequence for one link or router.

    Windows are ``[onset, onset + duration)`` with geometric gaps between
    them.  ``_advance(now)`` consumes draws only while the current window
    lies entirely in the past, so the schedule state after any query at
    cycle ``now`` depends on ``now`` alone — never on how often or from
    which execution mode it was queried (the event-horizon determinism
    argument, DESIGN.md §13).
    """

    __slots__ = ("_rng", "_rate", "_duration", "_stuck",
                 "onset", "bit", "value", "hits", "prev_end")

    def __init__(self, rng: DeterministicRng, rate: float, duration: int,
                 stuck: bool = False):
        self._rng = rng
        self._rate = rate
        self._duration = duration
        self._stuck = stuck
        self.bit = 0
        self.value = 0
        #: Payload flits corrupted by the current window (drives which word
        #: a stuck bit lands on; advances only on traversals = activity).
        self.hits = 0
        #: End cycle of the last window the schedule advanced past —
        #: i.e. the most recent revival at or before the latest query
        #: (consulted by FaultInjector.revived_since).
        self.prev_end = 0
        self.onset = geometric(rng, rate)
        if stuck:
            self._draw_stuck_shape()

    def _draw_stuck_shape(self) -> None:
        self.bit = self._rng.randint(0, 31)
        self.value = self._rng.randint(0, 1)
        self.hits = 0

    def _advance(self, now: int) -> None:
        while self.onset + self._duration <= now:
            self.prev_end = self.onset + self._duration
            self.onset = self.prev_end + geometric(self._rng, self._rate)
            if self._stuck:
                self._draw_stuck_shape()

    def active(self, now: int) -> bool:
        """Whether a fault window covers cycle ``now``."""
        self._advance(now)
        return self.onset <= now

    def next_boundary(self, now: int) -> int:
        """The next onset or offset at or after ``now`` (wakeup pin)."""
        self._advance(now)
        if now < self.onset:
            return self.onset
        return self.onset + self._duration


class FaultInjector:
    """Per-network fault models + recovery plumbing.

    The network consults it from four choke points — link traversal
    (:meth:`on_link_traversal`), credit application
    (:meth:`swallow_credit`), router scheduling (:meth:`router_dead`) and
    the top of :meth:`~repro.noc.network.Network.step`
    (:meth:`begin_cycle`) — and the NIs route their submit/decode/deliver
    hooks through it.  Every hook is gated by a precomputed ``affects_*``
    flag so an all-zero :class:`FaultConfig` leaves the hot paths exactly
    as they are without faults (the rate-0 bit-identity guarantee).
    """

    def __init__(self, config: FaultConfig, noc_config: Any,
                 topology: Any):
        self.config = config
        self.stats = FaultStats()
        rng = DeterministicRng(config.seed)
        self._bitflip_rng = rng.fork(BITFLIP_SALT)
        self._drop_rng = rng.fork(DROP_SALT)
        self._credit_rng = rng.fork(CREDIT_LOSS_SALT)
        self.affects_links = config.link_faults
        self.affects_credits = config.credit_loss_rate > 0
        self.affects_routers = config.failstop_rate > 0
        self.recovery: Optional[RecoveryManager] = (
            RecoveryManager(config) if config.recovery else None)
        #: Credits lost in transit, by upstream pool — ``(router, out_port,
        #: vc)`` for inter-router links, ``(node, vc)`` for NI local ports.
        #: The watchdog drains these; NoCSan's fault-aware credit audits
        #: subtract them while they are outstanding.
        self.lost_link_credits: Dict[Tuple[int, int, int], int] = {}
        self.lost_ni_credits: Dict[Tuple[int, int], int] = {}
        #: (router, out_port) -> stuck-at window schedule, built eagerly
        #: for every inter-router link so next_event never has to draw.
        self._stuck: Dict[Tuple[int, int], _WindowSchedule] = {}
        if config.stuck_rate > 0:
            stuck_rng = rng.fork(STUCK_SALT)
            ports = topology.ports_per_router
            for rid in range(noc_config.n_routers):
                for port in range(NUM_DIRECTIONS):
                    if topology.link(rid, port) is None:
                        continue
                    self._stuck[(rid, port)] = _WindowSchedule(
                        stuck_rng.fork(rid * ports + port),
                        config.stuck_rate, config.stuck_duration,
                        stuck=True)
        #: Per-router fail-stop schedules (empty list when unarmed).
        self._failstop: List[_WindowSchedule] = []
        if config.failstop_rate > 0:
            failstop_rng = rng.fork(FAILSTOP_SALT)
            self._failstop = [
                _WindowSchedule(failstop_rng.fork(rid),
                                config.failstop_rate,
                                config.failstop_duration)
                for rid in range(noc_config.n_routers)]

    # ------------------------------------------------------------ gating

    @property
    def recovery_enabled(self) -> bool:
        """Whether the recovery mechanisms (and NoCSan fault tolerance)
        are active."""
        return self.recovery is not None

    @property
    def needs_tick(self) -> bool:
        """Whether :meth:`begin_cycle` must run every stepped cycle (only
        the credit watchdog needs one, and only when credits can be
        lost)."""
        return (self.recovery is not None and self.config.credit_watchdog
                and (self.config.drop_rate > 0
                     or self.config.credit_loss_rate > 0))

    @property
    def has_events(self) -> bool:
        """Whether :meth:`next_event` can ever pin a wakeup horizon."""
        return bool(self._stuck or self._failstop or self.needs_tick)

    # ------------------------------------------------------- fault models

    def on_link_traversal(self, rid: int, out_port: int, out_vc: int,
                          flit: Flit, now: int) -> bool:
        """Apply link fault models to one traversing flit.

        Returns True when the flit is dropped (the caller must swallow
        it).  Head flits and non-data packets are never targeted: routing
        and framing stay intact, which keeps the wormhole state machine
        sound and guarantees the tail (and with it the CRC check) always
        reaches the destination.
        """
        packet = flit.packet
        if flit.is_head or packet.kind is not PacketKind.DATA:
            return False
        config = self.config
        if config.drop_rate > 0 and not flit.is_tail \
                and self._drop_rng.bernoulli(config.drop_rate):
            self._drop(rid, out_port, out_vc, flit)
            return True
        if config.bitflip_rate > 0 \
                and self._bitflip_rng.bernoulli(config.bitflip_rate):
            self._bitflip(flit)
        if config.stuck_rate > 0:
            self._stuck_hit(rid, out_port, flit, now)
        return False

    def _bitflip(self, flit: Flit) -> None:
        """One transient single-bit flip somewhere in the payload."""
        packet = flit.packet
        words = packet.encoded.decoded
        index = self._bitflip_rng.randint(0, len(words) - 1)
        bit = self._bitflip_rng.randint(0, 31)
        _fault_state(packet).record_xor(index, 1 << bit)
        self.stats.bitflips += 1

    def _drop(self, rid: int, out_port: int, out_vc: int,
              flit: Flit) -> None:
        """A body flit vanishes mid-link: one word's worth of payload is
        lost (delivered as zero) and the buffer credit the sender spent
        never comes back — until the watchdog resynchronizes it."""
        packet = flit.packet
        words = packet.encoded.decoded
        index = self._drop_rng.randint(0, len(words) - 1)
        state = _fault_state(packet)
        state.record_xor(index, words[index])
        state.dropped_flits += 1
        self.stats.flits_dropped += 1
        key = (rid, out_port, out_vc)
        self.lost_link_credits[key] = self.lost_link_credits.get(key, 0) + 1

    def _stuck_hit(self, rid: int, out_port: int, flit: Flit,
                   now: int) -> None:
        """Force the link's stuck bit on one payload word if a stuck-at
        window covers this cycle (no RNG draw on the traversal path: the
        window shape was drawn with the schedule)."""
        schedule = self._stuck.get((rid, out_port))
        if schedule is None or not schedule.active(now):
            return
        packet = flit.packet
        words = packet.encoded.decoded
        index = schedule.hits % len(words)
        schedule.hits += 1
        current = (words[index] >> schedule.bit) & 1
        mask = (current ^ schedule.value) << schedule.bit
        if mask:
            _fault_state(packet).record_xor(index, mask)
            self.stats.stuck_corruptions += 1

    def swallow_credit(self, rid: int, in_port: int, vc: int,
                       target: Tuple) -> bool:
        """Decide whether one returning credit is lost in transit.

        ``target`` is the network's precomputed credit destination for
        ``(rid, in_port)`` — ``(True, node)`` or ``(False, upstream,
        out_port)`` — which names the pool the loss is ledgered against.
        """
        if not self._credit_rng.bernoulli(self.config.credit_loss_rate):
            return False
        self.stats.credits_lost += 1
        if target[0]:
            key = (target[1], vc)
            self.lost_ni_credits[key] = self.lost_ni_credits.get(key, 0) + 1
        else:
            link_key = (target[1], target[2], vc)
            self.lost_link_credits[link_key] = \
                self.lost_link_credits.get(link_key, 0) + 1
        return True

    def router_dead(self, rid: int, now: int) -> bool:
        """Whether router ``rid`` is inside a fail-stop window (it holds
        its buffered flits frozen and runs no pipeline stage)."""
        return self._failstop[rid].active(now)

    def revived_since(self, rid: int, now: int, since: int) -> bool:
        """Whether router ``rid`` is alive at ``now`` but was fail-stopped
        at some cycle in ``(since, now]``.

        The event-horizon quiescence proof assumes every buffered router
        *ran* during the proof cycle and couldn't move its heads — so the
        heads are blocked on credits, which only activity releases.  A
        fail-stopped router never ran: its frozen heads carry stale
        ``ready_at`` stamps that pin no wakeup, yet they become movable
        the moment the router revives.  A proof made at cycle ``since``
        is therefore void for any buffered router that revived after it —
        the network must step (``Network._may_skip`` consults this).
        """
        schedule = self._failstop[rid]
        return not schedule.active(now) and schedule.prev_end > since

    # ------------------------------------------------- per-cycle / wakeup

    def begin_cycle(self, now: int, network: Any) -> None:
        """Top-of-step hook (only called when :attr:`needs_tick`): fire
        the credit watchdog on its period when losses are outstanding."""
        if now % self.config.watchdog_period != 0:
            return
        if not (self.lost_link_credits or self.lost_ni_credits):
            return
        assert self.recovery is not None  # needs_tick implies recovery
        self.recovery.resync_credits(network, self)

    def next_event(self, now: int) -> Optional[int]:
        """Earliest cycle ``>= now`` at which a scheduled fault boundary
        or a pending watchdog tick fires (event-horizon wakeup pin; the
        traversal-coupled fault classes need none — they only act on
        activity, which ends a skip window by itself)."""
        horizon: Optional[int] = None
        for schedule in self._failstop:
            boundary = schedule.next_boundary(now)
            if horizon is None or boundary < horizon:
                horizon = boundary
        for schedule in self._stuck.values():
            boundary = schedule.next_boundary(now)
            if horizon is None or boundary < horizon:
                horizon = boundary
        if self.needs_tick and (self.lost_link_credits
                                or self.lost_ni_credits):
            period = self.config.watchdog_period
            tick = ((now + period - 1) // period) * period
            if horizon is None or tick < horizon:
                horizon = tick
        return horizon

    # --------------------------------------------- NI-facing layer hooks

    def on_submit_request(self, request: Any, now: int) -> Any:
        """Transform an outbound request (graceful degradation)."""
        if self.recovery is not None:
            return self.recovery.transform_request(request, now)
        return request

    def on_packet_queued(self, ni: Any, packet: Any, now: int) -> None:
        """A packet entered an NI injection queue (retx registration)."""
        if self.recovery is not None:
            self.recovery.on_packet_queued(ni, packet, now)

    def reject_corrupt(self, ni: Any, packet: Any, now: int) -> bool:
        """Destination-side CRC: True consumes the corrupt packet (a NACK
        is queued); False delivers it corrupted (detector mode)."""
        return (self.recovery is not None
                and self.recovery.reject_corrupt(ni, packet, now))

    def on_delivery(self, ni: Any, packet: Any, block: Any,
                    now: int) -> None:
        """A data block reached its consumer (degradation oracle)."""
        if self.recovery is not None:
            self.recovery.on_delivery(ni, packet, block, now)

    def on_nack(self, ni: Any, packet: Any, now: int) -> None:
        """A NACK reached the source NI (retransmission)."""
        if self.recovery is not None:
            self.recovery.on_nack(ni, packet, now)

    # --------------------------------------------------------- reporting

    def summary(self) -> Dict[str, int]:
        """Injection + recovery counters, JSON-safe."""
        payload = self.stats.to_dict()
        payload["lost_credits_outstanding"] = (
            sum(self.lost_link_credits.values())
            + sum(self.lost_ni_credits.values()))
        if self.recovery is not None:
            payload.update(self.recovery.stats.to_dict())
        return payload

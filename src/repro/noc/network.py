"""The network: routers + NIs wired over a mesh, advanced cycle by cycle.

Per-cycle sequencing (all effects of cycle *t* become visible at *t+1*):

1. deliver flits sent at *t-1* into router buffers / NI ejection;
2. run traffic generation and NI decode completions;
3. NIs inject (at most one flit each) into their router's local port;
4. routers run RC/VA/SA and traverse winning flits (departures are queued
   for delivery at *t+1*; credits are collected);
5. credits collected in (4) are applied, becoming usable at *t+1*.

**Event horizon** (DESIGN.md §12): :meth:`Network.run` and
:meth:`Network.drain` skip stretches of simulated time that provably
contain no work.  When the last stepped cycle had zero activity (or no
flit is buffered anywhere) and nothing is pending for the next cycle, the
network state is at a fixed point: stepping can only repeat it until one of
the registered wakeups fires — the traffic source's next injection
(``next_arrival``), an NI timer (``next_work``) or a router pipeline exit
(``next_ready``).  ``_fast_forward`` jumps ``cycle`` and ``stats.cycles``
straight to that horizon, replaying the one piece of per-cycle state a
quiescent cycle advances (the VA input rotation) so every observable
number is bit-identical to having stepped.  The accounting that makes the
quiescence proof O(1) lives in :data:`SKIP_ACCOUNTED_STATE`.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

from repro.compression.base import CompressionScheme
from repro.noc.config import NocConfig
from repro.noc.ni import NetworkInterface, TrafficRequest
from repro.noc.packet import Flit
from repro.noc.router import Router
from repro.noc.routing import get_routing_fn
from repro.noc.stats import NetworkStats
from repro.noc.topology import MeshTopology, NUM_DIRECTIONS

#: Effectively infinite credit for ejection ports: the NI sink never
#: backpressures (decode bandwidth is provisioned, §4.3).
EJECTION_CREDITS = 1 << 30

#: Opposite cardinal direction per input port (N<->S, E<->W), used when
#: returning credits upstream.  Hoisted out of the per-credit hot loop.
OPPOSITE_PORT = (2, 3, 0, 1)

#: Valid skip-safety classifications for :data:`SKIP_ACCOUNTED_STATE`.
SKIP_CLASSIFICATIONS = frozenset({
    # set at construction and never reassigned while simulating
    "static",
    # unchanged across any zero-activity cycle (the §12 fixed-point
    # argument covers it; activity that changes it ends the skip window)
    "frozen",
    # O(1) activity accounting, maintained on every state transition and
    # consulted by the skip precondition / idle()
    "counter",
    # pending-event queue: the skip precondition requires it empty
    "queue",
    # carries a future-work timer surfaced to _skip_horizon through
    # next_arrival / next_work / next_ready
    "wakeup",
    # advances every cycle regardless of activity; Router.skip_cycles
    # replays it across a skipped window
    "replayed",
    # the simulated-time counters themselves, advanced by _fast_forward
    "clock",
    # conservative cached bound consulted only to *skip work* (never to
    # decide an outcome): staleness across a skipped window costs extra
    # scans, not correctness, so skip/step divergence is unobservable
    "advisory",
    # intra-cycle scratch: filled and drained within one cycle pass, so
    # it is provably empty whenever a skip window is even considered
    "scratch",
    # quiescence-proof bookkeeping: recomputed before every use, never
    # part of simulated state, so skip/step runs may disagree on it
    # without observable divergence
    "proof",
})

#: Skip-safety accounting registry (lint rule REPRO701).  Every mutable
#: state attribute assigned in ``Network.__init__``, ``Router.__init__`` or
#: ``NetworkInterface.__init__`` must appear here with the classification
#: explaining how the event-horizon fast path stays sound in its presence.
#: A new field that is absent fails the linter: unclassified state could
#: silently advance during cycles the fast path proves "dead", breaking the
#: bit-identity guarantee.  NoCSan cross-checks the ``counter`` entries
#: against full recounts every sanitized cycle.
SKIP_ACCOUNTED_STATE: Dict[str, Dict[str, str]] = {
    "Network": {
        "config": "static",
        "scheme": "frozen",
        "topology": "static",
        "stats": "clock",
        "_route": "static",
        "cycle": "clock",
        "routers": "static",
        "nis": "static",
        "traffic_source": "wakeup",
        "_pending_router_arrivals": "queue",
        "_pending_ejections": "queue",
        "_credit_events": "queue",
        "_ni_active": "counter",
        "_busy_ni_count": "counter",
        "_buffered_total": "counter",
        # Quiescence-proof flag: recomputed by every step/_quiet_step
        # before _may_skip consults it, so it carries no state across
        # cycles (the 'counter' claim it previously made was wrong —
        # it is wholesale-assigned, never incrementally maintained).
        "_quiet": "proof",
        "_credit_targets": "static",
        "_route_fns": "static",
        "_send_fns": "static",
        "_credit_fns": "static",
        "_accept_fns": "static",
        "_sanitizer": "static",
        "_skipping": "static",
        "_profile": "static",
        # Cycle stamp of the last quiescence proof, paired with _quiet.
        "_proof_cycle": "proof",
        # The fault injector is itself skip-safe: traversal-coupled models
        # only act on activity, and its scheduled models pin wakeups via
        # next_event (consulted by _skip_horizon); see DESIGN.md §13.
        "_faults": "wakeup",
        "_fault_tick": "static",
        "_core": "static",
    },
    # Struct-of-arrays core (DESIGN.md §14): the flat arrays carry exactly
    # the object core's state, so each inherits its classification —
    # bufs/head_ready are the wakeup-pinning buffers, va_input_rr is the
    # replayed rotation, buffered the O(1) activity counter, and the
    # arbiter/ownership arrays are frozen across zero-activity cycles.
    "SoaCore": {
        "n_routers": "static",
        "n_ports": "static",
        "num_vcs": "static",
        "vc_depth": "static",
        "pipe_delay": "static",
        "slots": "static",
        "stats": "static",
        "bufs": "wakeup",
        "head_ready": "wakeup",
        "route_out": "frozen",
        "out_vc": "frozen",
        "out_credits": "frozen",
        "out_owner": "frozen",
        # Pure caches of frozen allocation state (flat index of the held
        # output VC; unowned-VC count per out port): change only when an
        # allocation event does, which quiescent cycles have none of.
        "out_idx": "frozen",
        "free_out_vcs": "frozen",
        # SA scratch, provably empty between cycles (drained by the same
        # cycle_all pass that fills it) — 'scratch', not 'static': the
        # list objects are appended to and cleared every active cycle.
        "_req_lists": "scratch",
        # VA/SA scratch lists reused across router visits within one
        # cycle_all pass; emptied after every use, so never carry state.
        "_scratch_elig": "scratch",
        "_scratch_parked": "scratch",
        # Parked slots (credit-blocked SA candidates; VC-starved heads)
        # move only on allocation activity or credit returns, neither of
        # which occurs in a skipped window.
        "credit_waiter": "frozen",
        "va_waiters": "frozen",
        "va_rr": "frozen",
        "sa_rr": "frozen",
        "port_rr": "frozen",
        "va_input_rr": "replayed",
        "buffered": "counter",
        # Lazily-pruned cache of buffered routers; a skipped window buffers
        # and drains nothing, so membership cannot change across it.
        "active": "frozen",
        "va_pending": "frozen",
        "sa_cand": "frozen",
        "min_ready": "advisory",
        "route_table": "static",
        "send_targets": "static",
        "credit_dests": "static",
        "routers": "static",
        "net": "static",
        "send_fns": "static",
        "credit_fns": "static",
    },
    "NumpyCore": {
        "_np": "static",
        "head_ready": "wakeup",
    },
    "SoaRouter": {
        "core": "static",
        "router_id": "static",
        "_inputs_view": "static",
        "_credits_view": "static",
    },
    "Router": {
        "router_id": "static",
        "n_ports": "static",
        "num_vcs": "static",
        "vc_depth": "static",
        "pipe_delay": "static",
        "stats": "static",
        "inputs": "wakeup",
        "out_credits": "frozen",
        "out_owner": "frozen",
        "_va_rr": "frozen",
        "_va_input_rr": "replayed",
        "_sa_rr": "frozen",
        "_port_rr": "frozen",
        "_buffered": "counter",
        "_slot_table": "static",
        "_occupied": "frozen",
        # Per-cycle scratch (SA request lists; VA visiting order), filled
        # and drained within a single cycle() call.
        "_req_lists": "scratch",
        "_va_order": "scratch",
    },
    "NetworkInterface": {
        "node_id": "static",
        "scheme": "static",
        "codec": "frozen",
        "stats": "static",
        "flit_bytes": "static",
        "num_vcs": "static",
        "on_deliver": "static",
        "overlap_compression": "static",
        "_queue": "wakeup",
        "_current_flits": "wakeup",
        "_current_index": "frozen",
        "_current_vc": "frozen",
        "_vc_rr": "frozen",
        "_credits": "frozen",
        "_pending_decodes": "wakeup",
        "_outbound_notifications": "wakeup",
        "_fault_layer": "static",
    },
    # Streaming trace replay (repro.traffic.tracefile; DESIGN.md §17).
    # The replay cursor mirrors TraceTraffic's and moves only inside
    # generate(), i.e. only on cycles with actual injections — which end
    # any skip window — so every cursor field is 'frozen'.  next_arrival
    # is pure: it reads the due cycle from the cached chunk or via an O(1)
    # peek of the mapping, and never touches the chunk cache.
    "StreamingTraceTraffic": {
        "_file": "static",
        "_path": "static",
        "loop": "static",
        "approx_override": "static",
        "_start": "static",
        "_stop": "static",
        "_index": "frozen",
        "_offset": "frozen",
        "_ordinal": "frozen",
        "_chunk": "frozen",
        "_chunk_lo": "frozen",
        "_chunk_hi": "frozen",
    },
    # Read-only mmap view: everything is fixed at open.  The mapping and
    # file handle are rebound (to None) only by close(), which never runs
    # while a network is simulating — 'frozen', not 'static'.
    "TraceFile": {
        "path": "static",
        "_fh": "frozen",
        "_mm": "frozen",
        "record_count": "static",
        "n_nodes": "static",
        "chunk_records": "static",
        "_records_off": "static",
        "_heap_off": "static",
        "_heap_words": "static",
        "_index_off": "static",
        "_n_chunks": "static",
    },
}


class Network:
    """A complete simulated NoC under one compression scheme."""

    def __init__(self, config: NocConfig, scheme: CompressionScheme,
                 routing: str = "xy",
                 on_deliver: Optional[Callable] = None,
                 router_factory: Optional[Callable[..., Router]] = None):
        if scheme.n_nodes != config.n_nodes:
            raise ValueError(
                f"scheme built for {scheme.n_nodes} nodes but the network "
                f"has {config.n_nodes}")
        # Static verification gate: prove the (config, routing) pair
        # deadlock-free and internally consistent before building anything.
        # Imported lazily — repro.verify imports repro.noc modules at import
        # time, so a module-level import here would be circular.
        from repro.verify.static import ensure_network_verified
        ensure_network_verified(config, routing)
        self.config = config
        self.scheme = scheme
        self.topology = MeshTopology(config)
        self.stats = NetworkStats()
        self._route = get_routing_fn(routing)
        self.cycle = 0
        # Core selection (DESIGN.md §14): the batched struct-of-arrays core
        # is the default; custom router classes (router_factory) require
        # per-object routers, so they force the object core.
        core_kind = config.core if router_factory is None else "object"
        self._core = None
        if core_kind != "object":
            from repro.noc.core_soa import make_core
            self._core = make_core(core_kind, config, self.topology,
                                   self.stats, self._route)
            self.routers = self._core.routers
        else:
            make_router = (router_factory if router_factory is not None
                           else Router)
            self.routers = [
                make_router(r, self.topology.ports_per_router,
                            config.num_vcs, config.vc_depth,
                            config.router_stages, self.stats)
                for r in range(config.n_routers)]
        for router in self.routers:
            for port in range(NUM_DIRECTIONS, self.topology.ports_per_router):
                router.set_output_credits(port, EJECTION_CREDITS)
        self.nis = [
            NetworkInterface(node, scheme, config.num_vcs, config.vc_depth,
                             self.stats, flit_bytes=config.flit_bytes,
                             on_deliver=on_deliver,
                             overlap_compression=config.overlap_compression)
            for node in range(config.n_nodes)]
        self.traffic_source = None
        # (dst_router, port, vc, flit) due next cycle.
        self._pending_router_arrivals: List[Tuple[int, int, int, Flit]] = []
        # (node, flit) ejections due next cycle.
        self._pending_ejections: List[Tuple[int, Flit]] = []
        # (router, port, vc) credits to apply at end of cycle.
        self._credit_events: List[Tuple[int, int, int]] = []
        # Active-NI fast path (mirrors the router ``_buffered`` skip): an NI
        # with nothing queued, in flight or decoding is skipped entirely in
        # :meth:`step`.  Flags are raised on submit/eject and lowered once
        # the NI reports idle again.
        self._ni_active = [False] * config.n_nodes
        # Event-horizon activity accounting (DESIGN.md §12; every field
        # registered in SKIP_ACCOUNTED_STATE).  _busy_ni_count tracks the
        # raised _ni_active flags, _buffered_total the flits held in router
        # buffers network-wide; both are O(1)-maintained so idle() and the
        # skip precondition never rescan the mesh.  _quiet records whether
        # the last stepped cycle had zero activity.
        self._busy_ni_count = 0
        self._buffered_total = 0
        self._quiet = False
        # Cycle whose step established the current _quiet proof.  Only
        # consulted when fail-stop faults are armed: a proof made while a
        # buffered router was dead is void once that router revives (its
        # frozen heads pin no wakeup yet become movable), and the revival
        # check in _may_skip needs to know which cycle the proof covers.
        self._proof_cycle = 0
        self._skipping = config.event_horizon
        self._profile = config.profile_phases
        # Fault-injection layer (DESIGN.md §13).  Built before the send
        # closures and the sanitizer: both specialize on it.  An all-zero
        # FaultConfig constructs the injector (so the plumbing is always
        # exercised) but arms no hook — the hot paths compile to exactly
        # the faults=None closures and the run is bit-identical.
        self._faults = None
        if config.faults is not None:
            from repro.faults.inject import FaultInjector
            self._faults = FaultInjector(config.faults, config,
                                         self.topology)
        self._fault_tick = (self._faults is not None
                            and self._faults.needs_tick)
        # Credit destination per (router, input port): the attached NI for
        # local ports, the upstream router + opposite port otherwise.
        # Precomputed so _apply_credits does no topology lookups.
        self._credit_targets: List[List[Optional[Tuple]]] = [
            [self._credit_target(r, p)
             for p in range(self.topology.ports_per_router)]
            for r in range(config.n_routers)]
        self._route_fns = [self._make_route_fn(r)
                           for r in range(config.n_routers)]
        self._send_fns = [self._make_send_fn(r)
                          for r in range(config.n_routers)]
        self._credit_fns = [self._make_credit_fn(r)
                            for r in range(config.n_routers)]
        self._accept_fns = [self._make_accept_fn(n)
                            for n in range(config.n_nodes)]
        if self._faults is not None:
            for ni in self.nis:
                ni.attach_fault_layer(self._faults)
            if self._faults.recovery is not None:
                self._faults.recovery.bind(self)
        # NoCSan: when enabled, route every callback through the sanitizer.
        # When disabled, the fast path above is untouched (zero-cost
        # opt-out).  Lazy import for the same cycle reason as above.
        from repro.verify.sanitizer import sanitize_enabled
        self._sanitizer = None
        if sanitize_enabled(config):
            from repro.verify.sanitizer import NocSanitizer
            sanitizer = NocSanitizer(self)
            self._sanitizer = sanitizer
            self._send_fns = [sanitizer.wrap_send(r, fn)
                              for r, fn in enumerate(self._send_fns)]
            self._credit_fns = [sanitizer.wrap_credit(r, fn)
                                for r, fn in enumerate(self._credit_fns)]
            self._accept_fns = [sanitizer.wrap_accept(n, fn)
                                for n, fn in enumerate(self._accept_fns)]
            for ni in self.nis:
                ni.on_deliver = sanitizer.wrap_deliver(ni.node_id,
                                                       ni.on_deliver)
        # Bind last: the core specializes on the final (possibly wrapped)
        # callback tables and on whether link faults need per-flit hooks.
        if self._core is not None:
            self._core.bind(self)

    # -------------------------------------------------------------- wiring

    def _make_route_fn(self, router_id: int):
        topology = self.topology
        route = self._route

        def route_fn(flit: Flit) -> int:
            return route(topology, router_id, flit.packet.dst)

        return route_fn

    def _credit_target(self, rid: int, in_port: int) -> Optional[Tuple]:
        """``(True, node)`` for local ports, ``(False, upstream, port)`` for
        linked directions, None at mesh edges (unreachable by wiring)."""
        if in_port >= NUM_DIRECTIONS:
            return (True, self.topology.node_at(rid, in_port))
        upstream = self.topology.neighbor(rid, in_port)
        if upstream is None:
            return None
        return (False, upstream, OPPOSITE_PORT[in_port])

    def _make_send_fn(self, rid: int):
        topology = self.topology
        stats = self.stats
        # Per-port destination, resolved once: (dst_router, dst_port) for
        # linked directions, (None, node) for local/ejection ports.
        targets = []
        for port in range(topology.ports_per_router):
            link = topology.link(rid, port)
            if link is not None:
                targets.append((link.dst_router, link.dst_port))
            elif port >= NUM_DIRECTIONS:
                targets.append((None, topology.node_at(rid, port)))
            else:
                targets.append(None)  # mesh edge: never routed to

        faults = self._faults
        if faults is None or not faults.affects_links:
            # Hot path: no link fault model armed — no per-flit overhead.
            def send(out_port: int, out_vc: int, flit: Flit) -> None:
                self._buffered_total -= 1
                target = targets[out_port]
                dst_router, dst_port = target
                if dst_router is not None:
                    stats.link_traversals += 1
                    self._pending_router_arrivals.append(
                        (dst_router, dst_port, out_vc, flit))
                else:
                    self._pending_ejections.append((dst_port, flit))

            return send

        def send_faulty(out_port: int, out_vc: int, flit: Flit) -> None:
            self._buffered_total -= 1
            target = targets[out_port]
            dst_router, dst_port = target
            if dst_router is not None:
                if faults.on_link_traversal(rid, out_port, out_vc, flit,
                                            self.cycle):
                    # Dropped mid-link: the flit never arrives and the
                    # spent credit leaks (ledgered for the watchdog).
                    sanitizer = self._sanitizer
                    if sanitizer is not None and sanitizer.fault_tolerant:
                        sanitizer.note_drop(flit)
                    return
                stats.link_traversals += 1
                self._pending_router_arrivals.append(
                    (dst_router, dst_port, out_vc, flit))
            else:
                self._pending_ejections.append((dst_port, flit))

        return send_faulty

    def _make_credit_fn(self, rid: int):
        events = self._credit_events

        def credit(in_port: int, in_vc: int) -> None:
            events.append((rid, in_port, in_vc))

        return credit

    def _make_accept_fn(self, node: int):
        rid = self.topology.router_of(node)
        port = self.topology.local_port_of(node)
        core = self._core
        if core is not None:
            core_accept = core.accept

            def accept(vc: int, flit: Flit, now: int) -> None:
                self._buffered_total += 1
                core_accept(rid, port, vc, flit, now)

            return accept
        router = self.routers[rid]

        def accept(vc: int, flit: Flit, now: int) -> None:
            self._buffered_total += 1
            router.accept(port, vc, flit, now)

        return accept

    def set_traffic(self, source) -> None:
        """Attach a traffic source (``generate(cycle) -> [TrafficRequest]``)."""
        self.traffic_source = source

    def submit(self, request: TrafficRequest):
        """Directly enqueue one request at its source NI (trace replay and
        cache-simulator driven modes use this).  Returns the queued
        packet."""
        packet = self.nis[request.src].submit(request, self.cycle)
        if not self._ni_active[request.src]:
            self._ni_active[request.src] = True
            self._busy_ni_count += 1
        return packet

    # ---------------------------------------------------------- main loop

    def step(self) -> None:
        """Advance the network by one cycle."""
        now = self.cycle
        # Direct step() calls invalidate the quiescence proof; the run
        # loop's _quiet_step wrapper re-establishes it after stepping.
        self._quiet = False
        if self._fault_tick:
            # Credit watchdog (fires on its period when losses are
            # outstanding).  Runs before anything else so restored credits
            # are usable this very cycle — the restoration's first effect
            # is then ordinary activity, which keeps the quiescence proof
            # untouched.
            self._faults.begin_cycle(now, self)
        profile = self._profile
        if profile and (self._pending_router_arrivals
                        or self._pending_ejections):
            self.stats.deliver_phase_ticks += 1
        self._deliver_arrivals(now)
        active = self._ni_active
        if self.traffic_source is not None:
            requests = self.traffic_source.generate(now)
            if profile and requests:
                self.stats.traffic_phase_ticks += 1
            for request in requests:
                self.nis[request.src].submit(request, now)
                if not active[request.src]:
                    active[request.src] = True
                    self._busy_ni_count += 1
        # Only NIs with queued, in-flight or decoding work take their turn
        # (one tick each: process, then inject); idle ones are skipped
        # (analogous to the router _buffered skip).  NIs never interact
        # with each other within a cycle.
        if profile and self._busy_ni_count:
            self.stats.ni_phase_ticks += 1
        if self._busy_ni_count:
            nis = self.nis
            accept_fns = self._accept_fns
            # compress() walks the active flags in C, in node order; a
            # tick only ever clears its own node's flag.
            for node in compress(range(len(nis)), active):
                if not nis[node].tick(now, accept_fns[node]):
                    active[node] = False
                    self._busy_ni_count -= 1
        if profile and self._buffered_total:
            self.stats.router_phase_ticks += 1
        self._cycle_routers(now)
        if profile and self._credit_events:
            self.stats.credit_phase_ticks += 1
        self._apply_credits()
        if self._sanitizer is not None:
            self._sanitizer.after_cycle(now)
        self.cycle += 1
        self.stats.cycles += 1

    def run(self, cycles: int) -> None:
        """Advance by ``cycles`` simulated cycles (jumping over quiescent
        stretches when the event horizon is enabled; DESIGN.md §12)."""
        end = self.cycle + cycles
        if self._use_horizon():
            self._run_with_horizon(end, stop_when_idle=False)
        else:
            while self.cycle < end:
                self.step()

    def drain(self, max_cycles: int = 100_000) -> bool:
        """Run with traffic off until the network is empty.

        Returns True when fully drained, False on the cycle budget expiring
        (which a test would treat as a deadlock).  Under the event horizon
        a stuck network exhausts the budget in one jump instead of stepping
        through it.
        """
        saved = self.traffic_source
        self.traffic_source = None
        end = self.cycle + max_cycles
        try:
            if self._skipping:
                self._run_with_horizon(end, stop_when_idle=True)
            else:
                while self.cycle < end:
                    if self.idle():
                        return True
                    self.step()
            return self.idle()
        finally:
            self.traffic_source = saved

    def idle(self) -> bool:
        """No flit buffered, in flight, queued or pending anywhere.

        O(1): reads the skip-accounting counters instead of rescanning
        every router and NI (NoCSan cross-checks them every sanitized
        cycle)."""
        return (self._buffered_total == 0
                and self._busy_ni_count == 0
                and not self._pending_router_arrivals
                and not self._pending_ejections)

    # ------------------------------------------------------ event horizon

    def _use_horizon(self) -> bool:
        """Whether run() may skip cycles: the config enables it and the
        attached traffic source (if any) supports the lookahead API.
        Custom sources without ``next_arrival`` fall back to always-step —
        without arrival lookahead the quiescence proof has a hole."""
        if not self._skipping:
            return False
        source = self.traffic_source
        return source is None or hasattr(source, "next_arrival")

    def _run_with_horizon(self, end: int, stop_when_idle: bool) -> None:
        while self.cycle < end:
            if stop_when_idle and self.idle():
                return
            if self._may_skip():
                target = self._skip_horizon(end)
                if target > self.cycle:
                    self._fast_forward(target)
                    continue
            self._quiet_step()

    def _may_skip(self) -> bool:
        """Quiescence precondition: nothing due next cycle, and the router
        state proven at fixed point — either because the last stepped cycle
        had zero activity, or vacuously (no flit buffered anywhere).

        With fail-stop faults armed, a proof made at ``_proof_cycle`` is
        void for any buffered router that has revived since: it never ran
        during the proof cycle, so its heads — stale ``ready_at``, no
        wakeup pinned — are *not* provably credit-blocked and become
        movable the moment the router comes back (DESIGN.md §13)."""
        if self._pending_router_arrivals or self._pending_ejections:
            return False
        if self._buffered_total == 0:
            return True
        if not self._quiet:
            return False
        faults = self._faults
        if faults is not None and faults.affects_routers:
            now = self.cycle
            proof = self._proof_cycle
            for router in self.routers:
                if router._buffered and faults.revived_since(
                        router.router_id, now, proof):
                    return False
        return True

    def _quiet_step(self) -> None:
        """Step once, recording whether the cycle had zero activity.

        A cycle is quiet when no flit moved anywhere: no buffer write or
        read, no codec operation, nothing left pending for the next cycle.
        VC allocations are deliberately not consulted: a quiet cycle's VA
        pass is at its fixed point (§12) — an allocation in an otherwise
        dead cycle leaves a head that is still credit- or pipeline-blocked,
        which the wakeup horizons already cover.
        """
        stats = self.stats
        writes = stats.buffer_writes
        reads = stats.buffer_reads
        comp = stats.compression_ops
        decomp = stats.decompression_ops
        self.step()
        self._quiet = (stats.buffer_writes == writes
                       and stats.buffer_reads == reads
                       and stats.compression_ops == comp
                       and stats.decompression_ops == decomp
                       and not self._pending_router_arrivals
                       and not self._pending_ejections)
        self._proof_cycle = self.cycle - 1

    def _skip_horizon(self, end: int) -> int:
        """Earliest cycle in ``[self.cycle, end]`` at which anything can
        happen, assuming the network is quiescent now.

        Conservative-early answers are safe (the cycle is stepped and
        quiescence re-proven); a late answer would skip real work, so every
        contributor is a hard bound: traffic arrivals, NI timers, router
        pipeline exits.  Credit-blocked and VC-blocked flits contribute no
        wakeup — unblocking them requires activity, which only a wakeup
        can start.
        """
        now = self.cycle
        horizon = end
        faults = self._faults
        if faults is not None and faults.has_events:
            # Scheduled faults (stuck-at / fail-stop window boundaries) and
            # pending watchdog ticks pin wakeups: a skip must never jump
            # over a router dying, reviving, or a credit resync.
            event = faults.next_event(now)
            if event is not None and event < horizon:
                horizon = event
        source = self.traffic_source
        if source is not None:
            arrival = source.next_arrival(now, end - 1)
            if arrival is not None and arrival < horizon:
                horizon = arrival
            if horizon <= now:
                return now
        if self._busy_ni_count:
            nis = self.nis
            for node, active in enumerate(self._ni_active):
                if not active:
                    continue
                work = nis[node].next_work(now)
                if work is not None and work < horizon:
                    horizon = work
            if horizon <= now:
                return now
        if self._buffered_total:
            core = self._core
            if core is not None:
                # One min-reduction over the flat head_ready array replaces
                # the per-router next_ready loop (vectorized under numpy).
                ready = core.next_ready_all(now)
                if ready is not None and ready < horizon:
                    horizon = ready
            else:
                for router in self.routers:
                    if router._buffered:
                        ready = router.next_ready(now)
                        if ready is not None and ready < horizon:
                            horizon = ready
        return max(horizon, now)

    def _fast_forward(self, target: int) -> None:
        """Jump straight to ``target``, skipping provably-dead cycles.

        Preconditions (established by the run loop): :meth:`_may_skip`
        holds and ``target <= _skip_horizon(end)``.  Skipped cycles count
        as simulated time — ``stats.cycles`` advances with ``cycle``, so
        every observable number matches an always-step run bit for bit —
        and are tallied in ``stats.skipped_cycles``.
        """
        skipped = target - self.cycle
        if self._buffered_total:
            faults = self._faults
            if faults is not None and faults.affects_routers:
                # A skip window never crosses a fail-stop boundary (pinned
                # by _skip_horizon), so each router is uniformly dead or
                # alive across it.  Dead routers run no pipeline stage in
                # stepped cycles, so their VA rotation must not be
                # replayed either.
                now = self.cycle
                for router in self.routers:
                    if not faults.router_dead(router.router_id, now):
                        router.skip_cycles(skipped)
            elif self._core is not None:
                self._core.skip_all(skipped)
            else:
                for router in self.routers:
                    router.skip_cycles(skipped)
        if self._sanitizer is not None:
            self._sanitizer.after_skip(self.cycle, target)
        self.cycle = target
        self.stats.cycles += skipped
        self.stats.skipped_cycles += skipped

    # ------------------------------------------------------------ phases

    def _deliver_arrivals(self, now: int) -> None:
        router_arrivals = self._pending_router_arrivals
        ejections = self._pending_ejections
        self._pending_router_arrivals = []
        self._pending_ejections = []
        self._buffered_total += len(router_arrivals)
        if router_arrivals:
            core = self._core
            if core is not None:
                core.accept_arrivals(router_arrivals, now)
            else:
                for router_id, port, vc, flit in router_arrivals:
                    self.routers[router_id].accept(port, vc, flit, now)
        active = self._ni_active
        for node, flit in ejections:
            self.nis[node].eject(flit, now)
            if not active[node]:
                active[node] = True
                self._busy_ni_count += 1

    def _cycle_routers(self, now: int) -> None:
        core = self._core
        if core is not None:
            core.cycle_all(now, self._faults)
            return
        faults = self._faults
        if faults is not None and faults.affects_routers:
            for router in self.routers:
                rid = router.router_id
                if faults.router_dead(rid, now):
                    # Fail-stop window: no pipeline stage runs, buffered
                    # flits freeze (arrivals are still accepted — the
                    # buffers themselves are not the failed logic).
                    continue
                # repro: allow[router-surface-parity] object-router pipeline:
                # guarded by _core is None, SoaRouter views never reach here
                router.cycle(now, self._route_fns[rid], self._send_fns[rid],
                             self._credit_fns[rid])
            return
        for router in self.routers:
            rid = router.router_id
            # repro: allow[router-surface-parity] object-router pipeline:
            # guarded by _core is None, SoaRouter views never reach here
            router.cycle(now, self._route_fns[rid], self._send_fns[rid],
                         self._credit_fns[rid])

    def _apply_credits(self) -> None:
        events = self._credit_events
        if not events:
            return
        core = self._core
        if core is not None:
            core.apply_credits(events, self.nis, self._credit_targets,
                               self._faults)
            return
        targets = self._credit_targets
        nis = self.nis
        routers = self.routers
        faults = self._faults
        swallow = faults is not None and faults.affects_credits
        for rid, in_port, vc in events:
            target = targets[rid][in_port]
            if target is None:  # pragma: no cover - impossible by wiring
                continue
            if swallow and faults.swallow_credit(rid, in_port, vc, target):
                continue  # credit message lost in transit (ledgered)
            if target[0]:  # local port: credit the attached NI
                nis[target[1]].credit(vc)
            else:
                routers[target[1]].credit_return(target[2], vc)
        del events[:]

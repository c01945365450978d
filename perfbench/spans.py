"""Layer spans for the traced benchmark run.

A :class:`Tracer` substitutes timing wrappers for the public entry points
of each ``repro`` layer (class attributes and module functions), records
one span per call -- layer, start, end and the enclosing span -- and puts
the originals back on :meth:`Tracer.restore`.  Spans are kept in flat
arrays so a traced run of a few million calls stays a few tens of MiB.

Self time is a span's duration minus the time its direct child spans
cover; :func:`self_times` does that arithmetic and :func:`ledger` sums
it per layer, with the uncovered rest of the window as the remainder.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer names, in ledger order.  A span name is ``layer`` or
#: ``layer.operation``; self time is reported per span name.
LAYERS = ("traffic", "codec", "ni", "router", "network", "stats", "verify",
          "harness", "service")

#: (span name, owner, attribute) for every wrapped entry point.  The owner
#: is ``module:Class`` for methods and ``module`` for module functions; a
#: module function is replaced in every ``repro`` module that imported it.
#: A method is listed on the class that defines it: a subclass that
#: inherits it goes through the base class's wrapper.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("traffic", "repro.traffic.trace:TraceTraffic", "generate"),
    ("traffic", "repro.traffic.trace:TraceTraffic", "next_arrival"),
    ("traffic", "repro.traffic.tracefile:StreamingTraceTraffic", "generate"),
    ("traffic", "repro.traffic.tracefile:StreamingTraceTraffic",
     "next_arrival"),
    ("traffic", "repro.traffic.generator:SyntheticTraffic", "generate"),
    ("traffic", "repro.traffic.generator:SyntheticTraffic", "next_arrival"),
    ("traffic", "repro.traffic.trace", "record_trace"),
    ("traffic", "repro.traffic.tracefile", "write_trace"),
    ("codec.encode", "repro.compression.schemes:BaselineNode", "encode"),
    ("codec.decode", "repro.compression.schemes:BaselineNode", "decode"),
    ("codec.encode", "repro.compression.schemes:FpCompNode", "encode"),
    ("codec.decode", "repro.compression.schemes:FpCompNode", "decode"),
    ("codec.encode", "repro.core.fp_vaxx:FpVaxxNode", "encode"),
    ("codec.encode", "repro.compression.dictionary:DiCompNode", "encode"),
    ("codec.decode", "repro.compression.dictionary:DiCompNode", "decode"),
    ("codec.notify", "repro.compression.dictionary:DiCompNode",
     "deliver_notification"),
    ("codec.encode", "repro.core.di_vaxx:DiVaxxNode", "encode"),
    ("codec.decode", "repro.core.di_vaxx:DiVaxxNode", "decode"),
    ("codec.notify", "repro.core.di_vaxx:DiVaxxNode",
     "deliver_notification"),
    # The stateless codecs inherit this no-op.
    ("codec.notify", "repro.compression.base:NodeCodec",
     "deliver_notification"),
    ("ni.submit", "repro.noc.ni:NetworkInterface", "submit"),
    ("ni", "repro.noc.ni:NetworkInterface", "process"),
    ("ni", "repro.noc.ni:NetworkInterface", "inject"),
    ("ni", "repro.noc.ni:NetworkInterface", "eject"),
    ("router", "repro.noc.core_soa:SoaCore", "cycle_all"),
    ("router", "repro.noc.core_soa:SoaCore", "accept_arrivals"),
    ("router", "repro.noc.core_soa:SoaCore", "apply_credits"),
    ("network.run", "repro.noc.network:Network", "run"),
    ("network.run", "repro.noc.network:Network", "drain"),
    ("network", "repro.noc.network:Network", "step"),
    ("stats", "repro.noc.stats:NetworkStats", "record_injection"),
    ("stats", "repro.noc.stats:NetworkStats", "record_delivery"),
    ("verify", "repro.verify.static", "ensure_network_verified"),
    ("harness", "repro.harness.experiment", "run_trace"),
    ("harness", "repro.harness.experiment", "run_synthetic"),
    ("harness", "repro.harness.experiment", "benchmark_trace"),
    ("harness.load", "repro.harness.parallel", "load_cached"),
    ("harness.store", "repro.harness.parallel", "store_cached"),
    ("service.journal", "repro.service.journal:Journal", "append"),
)


#: Modules that import a wrapped module function by name; imported before
#: patching so their bindings are patched and restored with the rest.
IMPORTERS = ("repro.traffic", "repro.harness", "repro.service.supervisor",
             "repro.verify")


class Probe:
    """Observes the calls of one wrapped entry point: ``before(args)``
    returns a snapshot, ``after(tracer, args, result, snapshot)`` runs
    once the call has returned.  Either may be None."""

    def __init__(self, before: Optional[Callable] = None,
                 after: Optional[Callable] = None):
        self.before = before
        self.after = after


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``"codec.encode"`` -> codec)."""
    return name.split(".", 1)[0]


class Tracer:
    """Records spans around wrapped entry points; see the module doc."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Counters the probes add to (requests, cycles, flit moves).
        self.counts: Dict[str, int] = {}
        #: Observations a probe keeps for later (e.g. journal records).
        self.events: List[tuple] = []
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span_counts(self) -> Dict[str, int]:
        """Number of spans per span name (calls of its entry points)."""
        tally = [0] * len(self.names)
        for ident in self.name_id:
            tally[ident] += 1
        return dict(zip(self.names, tally))

    def wrap(self, name: str, fn: Callable,
             probe: Optional[Probe] = None) -> Callable:
        """A wrapper that records a ``name`` span around each call of
        ``fn`` and, given a probe, reports the call to it.  A call made
        directly inside a span of the same name (an override calling
        ``super()``) records nothing: the outer span covers it."""
        ident = self._name_id(name)
        clock = time.perf_counter
        name_ids, starts, ends, parents = (self.name_id, self.start,
                                           self.end, self.parent)
        stack_of = self._stack
        lock = self._lock
        before = probe.before if probe is not None else None
        after = probe.after if probe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack and name_ids[stack[-1]] == ident:
                return fn(*args, **kwargs)
            with lock:  # executor threads append spans too
                index = len(starts)
                name_ids.append(ident)
                parents.append(stack[-1] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
            snapshot = before(args) if before is not None else None
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, snapshot)
            return result

        return traced

    # ----------------------------------------------------------- install

    def patch(self, owner: object, attribute: str, wrapper: Callable
              ) -> None:
        """Set ``owner.attribute`` to ``wrapper`` until :meth:`restore`."""
        original = vars(owner)[attribute]
        setattr(owner, attribute, wrapper)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def install(self, probes: Optional[Dict[Tuple[str, str], Probe]] = None
                ) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`; ``probes``
        maps ``(owner, attribute)`` to the probe of that entry point."""
        probes = probes or {}
        # Import every owner first: a module imported after patching
        # would bind the wrapper and keep it after restore().
        for _, owner_path, _ in ENTRY_POINTS:
            importlib.import_module(owner_path.partition(":")[0])
        for module_name in IMPORTERS:
            importlib.import_module(module_name)
        for name, owner_path, attribute in ENTRY_POINTS:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            probe = probes.get((owner_path, attribute))
            if class_name:
                owner = getattr(module, class_name)
                original = vars(owner).get(attribute)
                if original is not None:  # inherited: wrapped on its owner
                    self.patch(owner, attribute,
                               self.wrap(name, original, probe))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original, probe)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and \
                        getattr(other, attribute, None) is original:
                    self.patch(other, attribute, wrapper)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._restore:
            self._restore.pop()()

    # ----------------------------------------------------------- results

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``."""
        ident = self._ids.get(name)
        return [e - s for n, s, e in zip(self.name_id, self.start, self.end)
                if n == ident]


def self_times(names: Sequence[str], name_id: Sequence[int],
               start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the durations
    of its direct children (children never outlive their parent)."""
    child = [0.0] * len(start)
    for index, up in enumerate(parent):
        if up >= 0:
            child[up] += end[index] - start[index]
    totals: Dict[str, float] = {}
    for index, ident in enumerate(name_id):
        name = names[ident]
        totals[name] = (totals.get(name, 0.0)
                        + (end[index] - start[index]) - child[index])
    return totals


def ledger(self_s: Dict[str, float], window_s: float) -> Dict[str, float]:
    """Self seconds per layer from :func:`self_times` output, over a
    traced window of ``window_s`` host seconds, plus ``remainder``: the
    part of the window no span covers.  The values sum to ``window_s``."""
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        per_layer[layer_of(name)] += seconds
    per_layer["remainder"] = window_s - sum(per_layer.values())
    return per_layer


def log_cache_calls(log_dir: str) -> None:
    """Pool-worker initializer: time each result-cache call this worker
    makes and append ``name<TAB>seconds<TAB>hit`` to a per-process file
    in ``log_dir`` (pool workers leave no exit hook to flush spans)."""
    import os

    from repro.harness import parallel

    path = os.path.join(log_dir, f"cache-{os.getpid()}.tsv")

    def logged(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def call(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            with open(path, "a") as log:
                log.write(f"{name}\t{seconds!r}\t{int(result is not None)}\n")
            return result
        return call

    parallel.load_cached = logged("harness.load", parallel.load_cached)
    parallel.store_cached = logged("harness.store", parallel.store_cached)

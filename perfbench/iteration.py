"""One benchmark iteration in a fresh interpreter.

Usage: ``python3 perfbench/iteration.py WORKLOAD SEED TRACED WORKDIR``
(with ``src`` on ``PYTHONPATH``).  Runs the workload's set-up and timed
body once and prints one JSON object: the timings, every spec's checked
outcome and, when ``TRACED`` is 1, the layer ledger of the iteration.

A fresh interpreter per iteration means process-wide state -- the FPC
and AVCL ``lru_cache``s, the static-verification memo, the harness trace
cache -- starts empty on every iteration, whatever ran before.
"""

from __future__ import annotations

import atexit
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker helper, if a pool
    started one, so no process outlives the iteration.  Registered with
    atexit before multiprocessing is imported, so it runs after
    multiprocessing's own exit hook has released the pools' semaphores."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":  # not in spawned pool workers
    atexit.register(stop_resource_tracker)

from spans import LAYERS, Probe, Tracer, ledger, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _network_before(args) -> tuple:
    network = args[0]
    stats = network.stats
    return network.cycle, stats.skipped_cycles, stats.crossbar_traversals


def _network_after(tracer: Tracer, args, result, before: tuple) -> None:
    cycle, skipped, moves = _network_before(args)
    tracer.count("network.cycles", cycle - before[0])
    tracer.count("network.skipped", skipped - before[1])
    tracer.count("router.flit_moves", moves - before[2])


def _count_requests(tracer: Tracer, args, result, before) -> None:
    tracer.count("traffic.requests", len(result))


def _journal_record(tracer: Tracer, args, result, before) -> None:
    record = args[1]
    tracer.events.append((time.perf_counter(), record.get("t"),
                          record.get("job"), record.get("index"),
                          record.get("kind"), record.get("ok")))


def probes() -> Dict[tuple, Probe]:
    """The counters the traced run collects at the layer boundaries."""
    network = Probe(_network_before, _network_after)
    requests = Probe(after=_count_requests)
    table = {
        ("repro.noc.network:Network", "run"): network,
        ("repro.noc.network:Network", "drain"): network,
        ("repro.service.journal:Journal", "append"):
            Probe(after=_journal_record),
    }
    for owner in ("repro.traffic.trace:TraceTraffic",
                  "repro.traffic.tracefile:StreamingTraceTraffic",
                  "repro.traffic.generator:SyntheticTraffic"):
        table[(owner, "generate")] = requests
    return table


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def service_metrics(events: List[tuple]) -> Dict[str, float]:
    """Queue wait, run time, validation and seal time from the journal
    records the supervisor appended (time, type, job, index, kind, ok)."""
    submitted: Dict[str, float] = {}
    leased: Dict[tuple, float] = {}
    waits, runs = [], []
    last_done: Dict[str, float] = {}
    last_audit: Dict[str, float] = {}
    validate = seal = 0.0
    mismatches = 0
    for at, kind, job, index, lease_kind, ok in events:
        if kind == "job":
            submitted[job] = at
        elif kind == "lease" and lease_kind == "run":
            if (job, index) not in leased:
                waits.append(at - submitted[job])
            leased[(job, index)] = at
        elif kind == "done":
            runs.append(at - leased[(job, index)])
            last_done[job] = at
        elif kind == "audit":
            last_audit[job] = at
            mismatches += ok is False
        elif kind == "seal":
            gate_start = last_done.get(job, submitted[job])
            gate_end = last_audit.get(job, gate_start)
            validate += gate_end - gate_start
            seal += at - gate_end
    return {"service.queue_wait_p50_s": _p50(waits),
            "service.run_p50_s": _p50(runs),
            "service.validate_s": validate,
            "service.seal_s": seal,
            "service.audit_mismatches": mismatches}


def worker_cache_calls(log_dir: str) -> List[tuple]:
    """(span name, seconds, hit) lines the pool workers logged."""
    calls = []
    for path in sorted(Path(log_dir).glob("cache-*.tsv")):
        for line in path.read_text().splitlines():
            name, seconds, hit = line.split("\t")
            calls.append((name, float(seconds), hit == "1"))
    return calls


def layer_metrics(tracer: Tracer, window_s: float, state: dict,
                  extra: dict) -> Dict[str, float]:
    """The traced iteration's per-layer metrics (see README.md)."""
    own = self_times(tracer.names, tracer.name_id, tracer.start, tracer.end,
                     tracer.parent)
    per_layer = ledger(own, window_s)
    calls = tracer.span_counts()
    counts = tracer.counts
    # Spec runs read and write the result cache in the pool workers; the
    # parent only reads finished artifacts back for the envelope.
    loads = hits = 0
    store_s = 0.0
    if state.get("log_dir"):
        for name, seconds, hit in worker_cache_calls(state["log_dir"]):
            if name == "harness.load":
                loads += 1
                hits += hit
            else:
                store_s += seconds
    cycles = counts.get("network.cycles", 0)
    skipped = counts.get("network.skipped", 0)
    appends = tracer.durations("service.journal")
    metrics = {f"{layer}.self_s": per_layer[layer] for layer in LAYERS}
    metrics.update({
        "traffic.requests": counts.get("traffic.requests", 0),
        "codec.encode_s": own.get("codec.encode", 0.0),
        "codec.decode_s": own.get("codec.decode", 0.0),
        "codec.notify_s": own.get("codec.notify", 0.0),
        "codec.encodes": calls.get("codec.encode", 0),
        "codec.decodes": calls.get("codec.decode", 0),
        "ni.submits": calls.get("ni.submit", 0),
        "router.flit_moves": counts.get("router.flit_moves", 0),
        "network.stepped_cycles": cycles - skipped,
        "network.skip_ratio": skipped / cycles if cycles else 0.0,
        "verify.calls": calls.get("verify", 0),
        "harness.cache_hit_ratio": hits / loads if loads else 0.0,
        "harness.cache_store_s": store_s,
        "service.journal_append_s": sum(appends),
        "service.journal_appends": len(appends),
        "service.reclaims": extra.get("reclaims", 0),
        "trace.remainder_s": per_layer["remainder"],
        "trace.window_s": window_s,
    })
    metrics.update(service_metrics(tracer.events))
    return metrics


def peak_rss_mib() -> float:
    """Peak resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_iteration(name: str, seed: int, traced: bool,
                  workdir: Path) -> dict:
    workload = WORKLOADS[name]()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(probes=probes())
    try:
        start = time.perf_counter()
        state = workload.setup(seed, workdir, traced)
        setup_done = time.perf_counter()
        specs = workload.body(state)
        body_done = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    extra = workload.finish(state)
    specs += extra.get("specs", [])
    record = {"setup_s": setup_done - start,
              "wall_s": body_done - setup_done,
              "specs": [asdict(spec) for spec in specs]}
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, body_done - start, state,
                                         extra)
    record["peak_rss_mib"] = peak_rss_mib()
    return record


def main(argv: List[str]) -> int:
    name, seed, traced, workdir = argv
    workdir_path = Path(workdir)
    workdir_path.mkdir(parents=True, exist_ok=True)
    record = run_iteration(name, int(seed), traced == "1", workdir_path)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

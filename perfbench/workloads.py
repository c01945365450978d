"""The benchmark's workloads: set-up, timed body and output check.

Each workload runs in a fresh interpreter (see ``iteration.py``): its
``setup`` builds every input from the seed, ``body`` is the timed part
and returns one :class:`SpecRun` per simulator run ("spec"), and
``finish`` releases what ``setup`` acquired.  The simulator is called
through module attributes (``experiment.run_trace``, not a name imported
here), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import traffic
from repro.harness import experiment
from repro.harness.experiment import MECHANISM_ORDER, RunResult
from repro.noc import Network, NocConfig
from repro.service import journal as service_journal
from repro.service.config import ServiceConfig
from repro.service.model import parse_request
from repro.service.supervisor import Supervisor
from repro.traffic import BENCHMARK_ORDER

from inputs import campaign_grid, derive_seed, sparse_trace_records

#: The error threshold every VAXX run uses (the paper's default, in %).
ERROR_THRESHOLD_PCT = 10.0


@dataclass
class SpecRun:
    """Outcome of one simulator run, as the benchmark checks and reports
    it.  ``done_s`` is host seconds from the start of the timed body (the
    workload's "submit") until this run finished."""

    label: str
    mechanism: str
    done_s: float
    digest: Optional[str] = None
    error: Optional[str] = None
    cached: bool = False
    packets: int = 0
    latency: float = 0.0
    queue_latency: float = 0.0
    network_latency: float = 0.0
    quality: float = 1.0
    compression_ratio: float = 1.0
    encoded_fraction: float = 0.0
    approx_fraction: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


def output_error(mechanism: str, outputs: Dict[str, object]
                 ) -> Optional[str]:
    """The output check every run must pass; None when it does."""
    if mechanism == "Baseline" and outputs["compression_ratio"] != 1.0:
        return (f"Baseline compression ratio {outputs['compression_ratio']}"
                f" != 1.0")
    floor = 1.0 - ERROR_THRESHOLD_PCT / 100.0
    if mechanism.endswith("VAXX") and outputs["data_quality"] < floor:
        return (f"{mechanism} data quality {outputs['data_quality']} "
                f"below {floor}")
    return None


def spec_from_outputs(label: str, mechanism: str, done_s: float,
                      digest: str, outputs: Dict[str, object],
                      cached: bool = False) -> SpecRun:
    """A checked :class:`SpecRun` from a run's simulation outputs."""
    return SpecRun(
        label=label, mechanism=mechanism, done_s=done_s, digest=digest,
        error=output_error(mechanism, outputs), cached=cached,
        packets=int(outputs["packets_delivered"]),
        latency=float(outputs["avg_packet_latency"]),
        queue_latency=float(outputs["avg_queue_latency"]),
        network_latency=float(outputs["avg_network_latency"]),
        quality=float(outputs["data_quality"]),
        compression_ratio=float(outputs["compression_ratio"]),
        encoded_fraction=float(outputs["encoded_fraction"]),
        approx_fraction=float(outputs["approx_fraction"]))


def run_spec(label: str, mechanism: str, started: float,
             run: Callable[[], RunResult]) -> SpecRun:
    """Run one in-process spec; an exception is a failed run, not a
    crash of the benchmark."""
    try:
        result = run()
    except Exception as exc:  # the output check counts it as failed
        return SpecRun(label=label, mechanism=mechanism,
                       done_s=time.perf_counter() - started,
                       error=f"{type(exc).__name__}: {exc}")
    spec = spec_from_outputs(label, mechanism,
                             time.perf_counter() - started,
                             result.identity_digest(),
                             result.simulation_outputs())
    spec.cache_hits = result.encode_cache_hits
    spec.cache_misses = result.encode_cache_misses
    return spec


def build_networks(config: NocConfig, mechanisms) -> None:
    """Construct (and so statically verify) one network per mechanism,
    the set-up cost every run of the config pays once per process."""
    for mechanism in mechanisms:
        Network(config, experiment.make_scheme(
            mechanism, config.n_nodes, ERROR_THRESHOLD_PCT))


class Workload:
    """Interface of a workload: ``setup`` builds the inputs from the seed
    (timed as ``setup_s``), ``body`` is the timed part and returns the
    checked runs, ``finish`` releases what ``setup`` acquired and may
    return further runs (``{"specs": [...]}``) checked after the clock
    stopped.  ``n_specs`` is the number of runs per iteration."""

    name = ""
    n_specs = 0

    def setup(self, seed: int, workdir: Path,
              traced: bool = False) -> dict:
        raise NotImplementedError

    def body(self, state: dict) -> List[SpecRun]:
        raise NotImplementedError

    def finish(self, state: dict) -> dict:
        return {}


class PaperSuite(Workload):
    """Table 1 config; ssca2 and streamcluster traces replayed under all
    five mechanisms with warmup, measure and drain."""

    name = "paper_suite"
    config = NocConfig()
    #: Traces per benchmark, each recorded from its own derived seed.
    #: ssca2 sits at the saturation knee under Baseline and DI-COMP, so
    #: one trace's latency swings with its seed; three average it out.
    benchmarks = {"ssca2": 3, "streamcluster": 1}
    trace_cycles, warmup, measure = 1000, 200, 800
    n_specs = sum(benchmarks.values()) * len(MECHANISM_ORDER)

    def setup(self, seed: int, workdir: Path,
              traced: bool = False) -> dict:
        traces = {f"{name}.{index}": experiment.benchmark_trace(
            self.config, name, self.trace_cycles,
            seed=derive_seed(seed, self.name, name, index) % 100_000)
            for name, count in self.benchmarks.items()
            for index in range(count)}
        build_networks(self.config, MECHANISM_ORDER)
        return {"traces": traces}

    def body(self, state: dict) -> List[SpecRun]:
        started = time.perf_counter()
        runs = []
        for name, trace in state["traces"].items():
            for mechanism in MECHANISM_ORDER:
                runs.append(run_spec(
                    f"{name}/{mechanism}", mechanism, started,
                    lambda: experiment.run_trace(
                        self.config, mechanism, trace, self.warmup,
                        self.measure,
                        error_threshold_pct=ERROR_THRESHOLD_PCT)))
        return runs


class SparseStream(Workload):
    """16x16 mesh replaying a sparse binary trace under DI-VAXX through
    the streaming reader; most cycles are provably quiescent."""

    name = "sparse_stream"
    config = NocConfig(mesh_width=16, mesh_height=16, concentration=1)
    trace_cycles = 150_000
    chunk_records = 128
    warmup, measure = 20_000, 280_000
    n_specs = 1

    def setup(self, seed: int, workdir: Path,
              traced: bool = False) -> dict:
        path = workdir / "sparse.rpt"
        traffic.write_trace(
            sparse_trace_records(seed, self.config.n_nodes,
                                 self.trace_cycles),
            path, self.config.n_nodes, chunk_records=self.chunk_records)
        build_networks(self.config, ["DI-VAXX"])
        return {"path": str(path)}

    def body(self, state: dict) -> List[SpecRun]:
        started = time.perf_counter()
        return [run_spec("sparse/DI-VAXX", "DI-VAXX", started,
                         lambda: experiment.run_trace(
                             self.config, "DI-VAXX", state["path"],
                             self.warmup, self.measure,
                             error_threshold_pct=ERROR_THRESHOLD_PCT))]


def warm_worker() -> int:
    """Pool task: import what a spec run needs, hold the worker briefly
    so a concurrent task lands on another one, and name this worker."""
    importlib.import_module("repro.service.supervisor")
    time.sleep(0.02)
    return os.getpid()


def _spawn_pool(workers: int, log_dir: Optional[str]) -> ProcessPoolExecutor:
    """A spawn-context pool; with ``log_dir`` its workers log their
    result-cache calls there (see ``spans.log_cache_calls``)."""
    context = multiprocessing.get_context("spawn")
    if log_dir is None:
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)
    from spans import log_cache_calls
    return ProcessPoolExecutor(max_workers=workers, mp_context=context,
                               initializer=log_cache_calls,
                               initargs=(log_dir,))


class Campaign(Workload):
    """An in-process campaign service: one job over a 40-spec grid on the
    paper config, then a second job re-requesting half of it."""

    name = "campaign"
    #: One pool worker: with the supervisor's own process that is one
    #: process per core on a 2-core host.  Two workers oversubscribe it,
    #: and their host times then follow the other load on the host.
    workers = 1
    benchmarks = tuple(BENCHMARK_ORDER)
    trace_cycles, warmup, measure = 600, 200, 400
    n_specs = len(BENCHMARK_ORDER) * len(MECHANISM_ORDER) * 3 // 2

    def setup(self, seed: int, workdir: Path,
              traced: bool = False) -> dict:
        os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
        log_dir = None
        if traced:
            log_dir = str(workdir / "worker-log")
            os.makedirs(log_dir)
        config = ServiceConfig(journal_dir=str(workdir / "service"),
                               workers=self.workers)
        grid = campaign_grid(seed, list(self.benchmarks),
                             list(MECHANISM_ORDER))
        sizes = {"trace_cycles": self.trace_cycles, "warmup": self.warmup,
                 "measure": self.measure}
        half = dict(grid, benchmarks=grid["benchmarks"][:len(
            self.benchmarks) // 2])
        # Fixed job ids: the audit shard is seeded by the job id, so a
        # content-derived id would re-execute different (cheaper or
        # costlier) specs from one seed to the next.
        requests = [parse_request(dict(payload, job=job, **sizes))
                    for job, payload in (("campaign-full", grid),
                                         ("campaign-half", half))]
        pools: List[ProcessPoolExecutor] = []

        def make_pool() -> ProcessPoolExecutor:
            pools.append(_spawn_pool(self.workers, log_dir))
            return pools[-1]

        loop = asyncio.new_event_loop()
        journal, table = service_journal.recover(
            config.journal_path, fsync_batch=config.fsync_batch)
        supervisor = Supervisor(config, journal, table,
                                executor_factory=make_pool)
        loop.run_until_complete(supervisor.start())
        # start() warms one worker; the pool spawns the others on demand.
        # Start and warm all of them, so the timed body starts with the
        # whole pool ready.
        ready: set = set()
        while len(ready) < self.workers:
            warm = [pools[-1].submit(warm_worker)
                    for _ in range(self.workers)]
            ready.update(future.result() for future in warm)
        return {"loop": loop, "supervisor": supervisor, "journal": journal,
                "pools": pools, "config": config, "requests": requests,
                "log_dir": log_dir}

    async def _run_job(self, supervisor: Supervisor, request) -> tuple:
        """Submit one job and follow its event stream until it seals.
        Returns ``({index: (turnaround s, cached)}, sealed event)``; a
        spec's turnaround runs from the job's submit to its event."""
        events = supervisor.subscribe(request.job)
        submitted = time.perf_counter()
        await supervisor.submit(request, None)
        done: Dict[int, tuple] = {}
        try:
            while True:
                event = await events.get()
                kind = event["event"]
                if kind == "spec_done" or (kind == "spec_failed"
                                           and event["kind"] == "run"):
                    done[event["index"]] = (time.perf_counter() - submitted,
                                            event.get("cached", False))
                elif kind == "sealed":
                    return done, event
        finally:
            supervisor.unsubscribe(request.job, events)

    async def _run_jobs(self, state: dict) -> list:
        return [await self._run_job(state["supervisor"], request)
                for request in state["requests"]]

    def body(self, state: dict) -> List[SpecRun]:
        state["jobs"] = state["loop"].run_until_complete(
            self._run_jobs(state))
        return []  # filled in by finish(), after the clock has stopped

    def finish(self, state: dict) -> dict:
        loop = state["loop"]
        try:
            loop.run_until_complete(state["supervisor"].stop())
        finally:
            for pool in state["pools"]:
                pool.shutdown(wait=True)
            state["journal"].close()
            loop.close()
        envelopes = [json.loads(state["config"].envelope_path(
            request.job).read_text()) for request in state["requests"]]
        return {"specs": self._check_jobs(envelopes, state["jobs"]),
                "reclaims": sum(int(envelope["accounting"].get(
                    "reclaims", 0)) for envelope in envelopes)}

    @staticmethod
    def _check_jobs(envelopes: List[dict], jobs: list) -> List[SpecRun]:
        """One checked SpecRun per spec of every job, from the sealed
        envelopes; a job whose envelope is not proven fails all of its
        specs, and a re-requested spec must repeat its first digest."""
        runs: List[SpecRun] = []
        first_digest: Dict[str, str] = {}
        for envelope, (done, sealed) in zip(envelopes, jobs):
            verdict = None
            if sealed["status"] != "proven" or \
                    not envelope["audit"].get("ok", False):
                verdict = (f"job {envelope['job']} sealed "
                           f"{sealed['status']!r}, audit "
                           f"{envelope['audit']}")
            for row in envelope["results"]:
                label = (f"{row['benchmark']}/{row['mechanism']}"
                         f"/{row['seed']}")
                if row["index"] not in done or "outputs" not in row:
                    runs.append(SpecRun(label, row["mechanism"], 0.0,
                                        error=row.get("error",
                                                      "no spec_done event")))
                    continue
                done_s, cached = done[row["index"]]
                run = spec_from_outputs(label, row["mechanism"], done_s,
                                        row["digest"], row["outputs"],
                                        cached=cached)
                expected = first_digest.setdefault(row["key"], row["digest"])
                if run.error is None and expected != row["digest"]:
                    run.error = "re-requested spec changed its digest"
                if run.error is None and verdict is not None:
                    run.error = verdict
                runs.append(run)
        return runs


WORKLOADS = {workload.name: workload for workload in (
    PaperSuite, Campaign, SparseStream)}

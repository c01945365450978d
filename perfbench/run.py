"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload (run from the repository root)::

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  ``python3 perfbench/run.py --all`` prints every end-to-end metric
of every workload as a table.  The last line of standard output is the
result object; the line before it is the machine record.  See
``perfbench/README.md`` for the workloads and every metric.

Each iteration runs in a fresh interpreter (``iteration.py``) and
iterations repeat until ``--seconds`` is used up; timings are medians
over the iterations.  Inputs are generated from ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The benchmark's definition: its workloads and the name and unit of
#: every metric it reports.
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Fewest iterations of each kind a run makes, however short --seconds.
MIN_ITERATIONS = 3
MIN_TRACED = 2
#: No iteration starts after this many seconds of a run (exit within 180).
LAST_START_S = 100.0
ITERATION_TIMEOUT_S = 60.0


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: divide a host time by it
    to compare runs across machines."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += (i * i) % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_record() -> dict:
    """Where the result was measured (not a gate)."""
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "calibration_s": calibration_s()}


def child_env(tmpdir: Path) -> dict:
    """The iteration's environment: ``src`` importable, temporary files
    kept inside the checkout, and no ``REPRO_*`` override leaking in."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    return env


def run_child(workload: str, seed: int, traced: bool,
              workdir: Path) -> Tuple[Optional[dict], str]:
    """One iteration in a fresh interpreter; (record, error text)."""
    workdir.mkdir(parents=True)
    command = [sys.executable, str(HERE / "iteration.py"), workload,
               str(seed), "1" if traced else "0", str(workdir)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env=child_env(workdir), cwd=str(ROOT),
                             start_new_session=True)
    try:
        out, err = child.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the pool workers too
        child.communicate()
        return None, f"iteration timed out after {ITERATION_TIMEOUT_S}s"
    except BaseException:  # interrupted or terminated: leave nothing behind
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        return None, f"iteration exited {child.returncode}: {err[-2000:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, f"unreadable iteration output: {out[-500:]!r}"


def run_iterations(workload: str, seed: int, seconds: float,
                   traced: bool, scratch: Path) -> List[tuple]:
    """Iterations until ``seconds`` are used up: plain ones, alternating
    with traced ones when ``traced``.  Returns (kind, record, error)."""
    kinds = ["plain", "traced"] if traced else ["plain"]
    started = time.monotonic()
    took: Dict[str, List[float]] = {kind: [] for kind in kinds}
    done: List[tuple] = []
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        elapsed = time.monotonic() - started
        enough = (len(took["plain"]) >= MIN_ITERATIONS
                  and len(took.get("traced", [])) >= (MIN_TRACED
                                                      if traced else 0))
        estimate = statistics.median(took[kind]) if took[kind] else 0.0
        if elapsed > LAST_START_S or (enough
                                      and elapsed + estimate > seconds):
            return done
        begin = time.monotonic()
        record, error = run_child(workload, seed, kind == "traced",
                                  scratch / f"iteration-{index}")
        took[kind].append(time.monotonic() - begin)
        done.append((kind, record, error))
        index += 1


def check(expected: int, iterations: List[tuple]) -> Tuple[int, int,
                                                           List[str]]:
    """Count attempted and failed spec runs, ``expected`` per iteration.
    A run fails when it raised or failed its output check, or when its
    identity digest differs from the first good run of the same spec
    (traced or not)."""
    attempted = failed = 0
    problems: List[str] = []
    reference: Dict[str, str] = {}
    for kind, record, error in iterations:
        if record is None:
            attempted += expected
            failed += expected
            problems.append(f"{kind} iteration failed: {error}")
            continue
        specs = record["specs"]
        attempted += max(expected, len(specs))
        if len(specs) < expected:
            failed += expected - len(specs)
            problems.append(f"{kind} iteration returned {len(specs)} of "
                            f"{expected} runs")
        for spec in specs:
            if spec["error"] is None:
                first = reference.setdefault(spec["label"], spec["digest"])
                if spec["digest"] != first:
                    spec["error"] = (f"identity digest {spec['digest']} != "
                                     f"{first} of the first iteration")
            if spec["error"] is not None:
                failed += 1
                problems.append(f"{kind} {spec['label']}: {spec['error']}")
    return attempted, failed, problems


def _weighted(specs: List[dict], field: str) -> float:
    packets = sum(spec["packets"] for spec in specs)
    return (sum(spec[field] * spec["packets"] for spec in specs) / packets
            if packets else 0.0)


def simulated(specs: List[dict]) -> List[dict]:
    """The runs that simulated (a cached campaign spec repeats another)."""
    return [spec for spec in specs
            if not spec["cached"] and spec["error"] is None]


def first_simulated(records: List[dict]) -> List[dict]:
    """The simulated runs of the first iteration that has any; the
    simulated figures are the same in every iteration of a run."""
    for record in records:
        specs = simulated(record["specs"])
        if specs:
            return specs
    raise RuntimeError("no simulator run passed its output check")


def turnarounds(records: List[dict]) -> List[float]:
    return [spec["done_s"] for record in records
            for spec in record["specs"]]


def end_to_end(records: List[dict]) -> Dict[str, float]:
    """End-to-end metrics over the plain iterations (see README.md)."""
    walls = [record["wall_s"] for record in records]
    done = turnarounds(records)
    # Inclusive: the turnarounds are the whole population of this run,
    # and a single-spec workload has only one per iteration.
    quartiles = (statistics.quantiles(done, n=4, method="inclusive")
                 if len(done) > 1 else done * 3)
    first = first_simulated(records)
    vaxx = [spec for spec in first if spec["mechanism"].endswith("VAXX")]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "pkts_per_s": statistics.median(
            sum(spec["packets"] for spec in simulated(r["specs"]))
            / r["wall_s"] for r in records),
        "specs_per_s": statistics.median(
            len(r["specs"]) / r["wall_s"] for r in records),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in records),
        "spec_turnaround_p50_s": quartiles[1],
        "spec_turnaround_p75_s": quartiles[2],
        "sim_pkt_latency_cyc": _weighted(first, "latency"),
        "sim_data_quality": min(spec["quality"]
                                for spec in (vaxx or first)),
    }


def per_layer(plain: List[dict], traced: List[dict], attempted: int,
              failed: int) -> Dict[str, float]:
    """Per-layer metrics of the traced iteration with the median ledger
    window (one iteration, so its layers still sum to its window), plus
    the simulated codec/NI/router figures of the runs."""
    ranked = sorted(traced, key=lambda r: r["layers"]["trace.window_s"])
    metrics = dict(ranked[(len(ranked) - 1) // 2]["layers"])
    specs = first_simulated(plain)
    hits = sum(spec["cache_hits"] for spec in specs)
    lookups = hits + sum(spec["cache_misses"] for spec in specs)
    count = len(specs) or 1
    window = statistics.median(r["setup_s"] + r["wall_s"] for r in plain)
    metrics.update({
        "codec.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "codec.encoded_frac": sum(s["encoded_fraction"]
                                  for s in specs) / count,
        "codec.approx_frac": sum(s["approx_fraction"] for s in specs) / count,
        "codec.compression_ratio": sum(s["compression_ratio"]
                                       for s in specs) / count,
        "ni.queue_wait_cyc": _weighted(specs, "queue_latency"),
        "router.network_latency_cyc": _weighted(specs, "network_latency"),
        "trace.overhead_s": metrics["trace.window_s"] - window,
        "failed_frac": failed / attempted,
        "spec_turnaround_samples": len(turnarounds(plain)),
    })
    return metrics


def measure(workload: str, seed: int, seconds: float, traced: bool,
            scratch: Path) -> Tuple[dict, List[str], int]:
    """Run one workload; returns (result object, problems found, number
    of spec turnaround samples)."""
    from workloads import WORKLOADS  # needs the simulator sources
    iterations = run_iterations(workload, seed, seconds, traced, scratch)
    attempted, failed, problems = check(WORKLOADS[workload].n_specs,
                                        iterations)
    plain = [record for kind, record, _ in iterations
             if kind == "plain" and record is not None]
    traced_records = [record for kind, record, _ in iterations
                      if kind == "traced" and record is not None]
    if not plain or (traced and not traced_records):
        raise RuntimeError("no iteration completed:\n" + "\n".join(problems))
    if traced:
        values = per_layer(plain, traced_records, attempted, failed)
    else:
        values = end_to_end(plain)
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in DEFINITION["per_layer" if traced
                                        else "end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, problems, len(turnarounds(plain))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [workload["name"] for workload in DEFINITION["workloads"]]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true",
                        help="every workload, end-to-end metrics as a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    # SIGTERM unwinds like Ctrl-C, so the running iteration is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        machine = machine_record()
        workloads = names if args.all else [args.workload]
        results = {}
        for workload in workloads:
            result, problems, samples = measure(
                workload, args.seed, args.seconds, bool(args.trace),
                scratch / workload)
            for problem in problems:
                print(f"perfbench: {workload}: {problem}", file=sys.stderr)
            print(f"perfbench: {workload}: {result['attempted']} runs, "
                  f"{result['failed']} failed, {samples} turnaround "
                  f"samples; {describe(result)}", file=sys.stderr)
            results[workload] = result
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it never existed
    if args.all:
        print_table(results)
    print(json.dumps({"machine": machine}))
    if args.all:
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


def describe(result: dict) -> str:
    return ", ".join(f"{name}={metric['value']:.6g} {metric['unit']}"
                     for name, metric in result["metrics"].items())


def print_table(results: Dict[str, dict]) -> None:
    """One row per metric, one column per workload."""
    names = list(results)
    rows = [("metric", "unit", names)]
    for metric, entry in results[names[0]]["metrics"].items():
        rows.append((metric, entry["unit"],
                     [f"{results[name]['metrics'][metric]['value']:.6g}"
                      for name in names]))
    rows.append(("failed/attempted", "count",
                 [f"{results[name]['failed']}/{results[name]['attempted']}"
                  for name in names]))
    for metric, unit, cells in rows:
        print(f"{metric:<24} {unit:<9} "
              + " ".join(f"{cell:>15}" for cell in cells))


if __name__ == "__main__":
    sys.exit(main())

"""Output checking and aggregation in ``run.py``."""

import shutil
import subprocess
import sys

import pytest

import run
from iteration import service_metrics


def _spec(label, digest, error=None, **fields):
    spec = {"label": label, "mechanism": "DI-VAXX", "digest": digest,
            "error": error, "cached": False, "packets": 10, "latency": 20.0,
            "queue_latency": 1.0, "network_latency": 15.0, "quality": 0.99,
            "compression_ratio": 1.5, "encoded_fraction": 0.4,
            "approx_fraction": 0.1, "cache_hits": 3, "cache_misses": 1,
            "done_s": 1.0}
    spec.update(fields)
    return spec


def _record(*specs, wall=2.0):
    return {"setup_s": 0.5, "wall_s": wall, "peak_rss_mib": 40.0,
            "specs": list(specs)}


def test_digest_change_between_iterations_is_a_failure():
    iterations = [("plain", _record(_spec("a", "d1")), ""),
                  ("traced", _record(_spec("a", "d2")), ""),
                  ("plain", None, "iteration exited 1")]
    attempted, failed, problems = run.check(1, iterations)
    assert (attempted, failed) == (3, 2)
    assert any("identity digest" in problem for problem in problems)


def test_failed_output_check_counts_against_attempted():
    iterations = [("plain", _record(_spec("a", "d1", error="drain")), "")]
    assert run.check(1, iterations)[:2] == (1, 1)


def test_end_to_end_reports_every_metric():
    records = [_record(_spec("a", "d", done_s=1.0),
                       _spec("b", "e", packets=30, latency=40.0),
                       wall=w) for w in (2.0, 3.0, 4.0)]
    metrics = run.end_to_end(records)
    assert set(metrics) == {metric["name"]
                            for metric in run.DEFINITION["end_to_end"]}
    assert metrics["wall_s"] == 3.0
    assert metrics["pkts_per_s"] == pytest.approx(40 / 3.0)
    # mean over all packets, not over runs: (10 * 20 + 30 * 40) / 40
    assert metrics["sim_pkt_latency_cyc"] == pytest.approx(35.0)
    assert metrics["sim_data_quality"] == 0.99


def test_service_metrics_from_journal_records():
    events = [(0.0, "job", "j", None, None, None),
              (0.5, "lease", "j", 0, "run", None),
              (1.5, "done", "j", 0, None, None),
              (1.6, "lease", "j", 0, "audit", None),
              (2.0, "audit", "j", 0, None, True),
              (2.5, "seal", "j", None, None, None)]
    metrics = service_metrics(events)
    assert metrics["service.queue_wait_p50_s"] == 0.5
    assert metrics["service.run_p50_s"] == 1.0
    assert metrics["service.validate_s"] == pytest.approx(0.5)
    assert metrics["service.seal_s"] == pytest.approx(0.5)
    assert metrics["service.audit_mismatches"] == 0


def test_traced_ledger_sums_to_its_window():
    plain = [_record(_spec("a", "d"))]
    traced = []
    for window, remainder in ((5.0, 0.5), (7.0, 0.2), (6.0, 0.4)):
        layers = {"router.self_s": window - remainder - 1.0,
                  "codec.self_s": 1.0, "trace.remainder_s": remainder,
                  "trace.window_s": window}
        traced.append(dict(_record(_spec("a", "d")), layers=layers))
    metrics = run.per_layer(plain, traced, attempted=4, failed=0)
    assert metrics["trace.window_s"] == 6.0
    assert (metrics["router.self_s"] + metrics["codec.self_s"]
            + metrics["trace.remainder_s"]) == pytest.approx(6.0)
    assert metrics["trace.overhead_s"] == pytest.approx(6.0 - 2.5)
    assert metrics["failed_frac"] == 0.0


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


"""The benchmark's inputs depend on the seed and nothing else."""

import os
import subprocess
import sys
from pathlib import Path

from inputs import campaign_grid, derive_seed, sparse_trace_records

BENCH = Path(__file__).resolve().parents[1]


def test_sparse_trace_is_deterministic_per_seed():
    first = list(sparse_trace_records(7, 256, 5000))
    assert first == list(sparse_trace_records(7, 256, 5000))
    assert first != list(sparse_trace_records(8, 256, 5000))
    cycles = [record.cycle for record in first]
    assert cycles == sorted(cycles) and cycles[-1] < 5000
    assert all(record.src != record.dst for record in first)


def test_derived_seeds_ignore_the_hash_seed():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from inputs import derive_seed; "
            "print(derive_seed(3, 'paper_suite', 'ssca2'))")
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(BENCH.parent / "src"))
        outputs.add(subprocess.run(
            [sys.executable, "-c", code, str(BENCH)], env=env, check=True,
            capture_output=True, text=True).stdout.strip())
    assert outputs == {str(derive_seed(3, "paper_suite", "ssca2"))}


def test_campaign_grid_follows_the_seed():
    grid = campaign_grid(4, ["ssca2"], ["Baseline"])
    assert grid == campaign_grid(4, ["ssca2"], ["Baseline"])
    assert grid["seeds"] != campaign_grid(5, ["ssca2"], ["Baseline"])["seeds"]

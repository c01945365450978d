"""Golden identity digests of the codec datapath.

Each case is a short trace replay on the paper configuration
(``NocConfig()``, the 4x4 concentrated mesh) whose
:meth:`RunResult.identity_digest` was recorded before the codec layer
moved to flat per-block word tuples.  A codec rewrite must reproduce every
digest bit for bit: packet sizes, latencies, word accounting, data quality
and fault outcomes all feed the digest.

Covered: one INT benchmark (ssca2) and one FLOAT benchmark
(streamcluster) under all five mechanisms, FP-VAXX under a window error
budget that vetoes some matches, DI-VAXX with bit flips and flit drops
under NoCSan, the adaptive on/off wrapper around DI-VAXX, BD-VAXX, and
one undrained live-synthetic run through :func:`run_synthetic` (Figure
12's methodology).
"""

from dataclasses import replace

import pytest

from repro.compression.adaptive import AdaptiveScheme
from repro.compression.base import CompressionScheme
from repro.compression.delta import BdVaxxScheme
from repro.core.error_control import WindowErrorBudget
from repro.faults import FaultConfig
from repro.harness.experiment import (
    MECHANISM_ORDER,
    RunResult,
    benchmark_trace,
    make_scheme,
    run_synthetic,
    run_trace,
    trace_source,
)
from repro.noc import Network, NocConfig
from repro.traffic import SyntheticTraffic, get_benchmark

CONFIG = NocConfig()
TRACE_CYCLES = 600
WARMUP = 200
MEASURE = 400

#: ``(benchmark, mechanism) -> identity digest`` for the plain replays.
MECHANISM_DIGESTS = {
    ("ssca2", "Baseline"):
        "da28efe5a2d2cb92f6c03be91002b1cf01138585c023ae76244e78a8ae72796d",
    ("ssca2", "DI-COMP"):
        "ddda37e9e5cd109ba52b3bde8c678b8baa043d3ac219036a2f3fa9bb9f1c01fd",
    ("ssca2", "DI-VAXX"):
        "8376af5196120f18d4ec699d13e23243022b7545ea7cd4481bc10073fbad7141",
    ("ssca2", "FP-COMP"):
        "7c73aa9deaa94a0b7dbed81376768d967aa6ead555b29fb39753a293b83cdab1",
    ("ssca2", "FP-VAXX"):
        "076c37ca0442a0d21d385111374149705d61244436db28caf615b890554a4d7c",
    ("streamcluster", "Baseline"):
        "5d37d3beccf894af34775a7ef5d84109c8ca33522ee2c99df589e590fb3efc05",
    ("streamcluster", "DI-COMP"):
        "a1f214050663b477fd7d7b0dac918273f9f3f9c84fab3c1b742b021b840fdd63",
    ("streamcluster", "DI-VAXX"):
        "9026244797f4d532080cbaa8ee1522454b8cde230daa5e13ae68c36faaa22adb",
    ("streamcluster", "FP-COMP"):
        "bc076ab2dac324940db151bffc82c12cb10f36dceab44e160fcbffeeae77b686",
    ("streamcluster", "FP-VAXX"):
        "bf55721ccb387924a41d003444019d5947c77e759a109fd285f25a107e895bbd",
}

WINDOW_BUDGET_DIGEST = (
    "19934889b5076a09976e0a688098d560c418004a05d220f8b60a3e1aa8222281")
FAULTED_DI_VAXX_DIGEST = (
    "45c0e05d1b69f6ba3da168c3d140bf19b079135358c2bed065cd9eb4165dd0f7")
ADAPTIVE_DIGEST = (
    "074b90bc337251ef5bd80a8f49f18a8cd9932b41bb6d87954a65fc8d6949c9e4")
BD_VAXX_DIGEST = (
    "4d9adf9463b6896ab08089d72f000d5cea1f63b54a1a669eab59cc2980c158c4")
SYNTHETIC_DI_VAXX_DIGEST = (
    "b2945dbf71bf4535c6cdbd929ba073e6b03d5b11add6b991eb697e7a4f3ca6cb")


def _trace(benchmark: str) -> list:
    return benchmark_trace(CONFIG, benchmark, cycles=TRACE_CYCLES, seed=11)


def _run_scheme(scheme: CompressionScheme, benchmark: str) -> RunResult:
    """The :func:`run_trace` protocol for a scheme ``make_scheme`` cannot
    name (custom budgets, wrappers, non-paper substrates)."""
    network = Network(CONFIG, scheme)
    network.set_traffic(trace_source(_trace(benchmark)))
    network.run(WARMUP)
    network.stats.reset()
    scheme.stats.reset()
    scheme.quality.reset()
    network.run(MEASURE)
    measured = network.stats.cycles
    assert network.drain(200_000)
    network.stats.cycles = measured
    return RunResult.from_network(network)


@pytest.mark.parametrize("app", ["ssca2", "streamcluster"])
@pytest.mark.parametrize("mechanism", MECHANISM_ORDER)
def test_mechanism_replay_digest(app, mechanism):
    result = run_trace(CONFIG, mechanism, _trace(app), WARMUP, MEASURE)
    assert result.identity_digest() == MECHANISM_DIGESTS[(app, mechanism)]


def test_window_error_budget_digest():
    scheme = make_scheme(
        "FP-VAXX", CONFIG.n_nodes,
        budget_factory=lambda: WindowErrorBudget(0.3, window=8))
    result = _run_scheme(scheme, "ssca2")
    assert result.identity_digest() == WINDOW_BUDGET_DIGEST


def test_faulted_sanitized_di_vaxx_digest():
    faults = FaultConfig(seed=3, bitflip_rate=0.01, drop_rate=0.005,
                         recovery=True, crc_retx=False)
    result = run_trace(replace(CONFIG, faults=faults), "DI-VAXX",
                       _trace("ssca2"), WARMUP, MEASURE, sanitize=True)
    assert result.faults_injected > 0
    assert result.identity_digest() == FAULTED_DI_VAXX_DIGEST


def test_adaptive_wrapper_digest():
    scheme = AdaptiveScheme(make_scheme("DI-VAXX", CONFIG.n_nodes),
                            window=8, min_gain=0.5, probe_period=4)
    result = _run_scheme(scheme, "streamcluster")
    assert scheme.toggles() > 0  # the raw-bypass path really ran
    assert result.identity_digest() == ADAPTIVE_DIGEST


def test_bd_vaxx_digest():
    result = _run_scheme(BdVaxxScheme(CONFIG.n_nodes), "ssca2")
    assert result.approx_fraction > 0
    assert result.identity_digest() == BD_VAXX_DIGEST


def test_synthetic_di_vaxx_digest():
    def factory(config):
        return SyntheticTraffic(
            config, pattern="transpose", injection_rate=0.2,
            data_ratio=0.25, value_model=get_benchmark("streamcluster").model,
            seed=13)

    result = run_synthetic(CONFIG, "DI-VAXX", factory, WARMUP, MEASURE,
                           error_threshold_pct=5.0)
    assert result.identity_digest() == SYNTHETIC_DI_VAXX_DIGEST

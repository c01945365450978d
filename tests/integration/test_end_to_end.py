"""Integration tests spanning traffic -> NoC -> codec -> applications."""

import pytest

from repro.compression import (
    BaselineScheme,
    BdVaxxScheme,
    DiCompScheme,
    FpCompScheme,
)
from repro.core import CacheBlock, DiVaxxScheme, FpVaxxScheme
from repro.harness import (
    MECHANISM_ORDER,
    benchmark_trace,
    make_scheme,
    run_trace,
)
from repro.memory import TraceCollector
from repro.noc import Network, NocConfig, PacketKind, TrafficRequest
from repro.traffic import (
    BenchmarkTraffic,
    TraceTraffic,
    get_benchmark,
    record_trace,
)

SMALL = NocConfig(mesh_width=2, mesh_height=2, concentration=2)


class TestTraceReplayDeterminism:
    def test_same_trace_same_stats(self):
        trace = benchmark_trace(SMALL, "blackscholes", 800, seed=2)
        a = run_trace(SMALL, "FP-VAXX", trace, warmup=300, measure=400)
        b = run_trace(SMALL, "FP-VAXX", trace, warmup=300, measure=400)
        assert a.avg_packet_latency == b.avg_packet_latency
        assert a.data_flits_injected == b.data_flits_injected
        assert a.compression_ratio == b.compression_ratio

    @pytest.mark.parametrize("mechanism", MECHANISM_ORDER)
    def test_every_mechanism_completes_trace(self, mechanism):
        trace = benchmark_trace(SMALL, "ssca2", 800, seed=3)
        result = run_trace(SMALL, mechanism, trace, warmup=200, measure=400)
        assert result.packets_delivered > 0
        assert result.data_quality > 0.97


class TestDataIntegrityUnderLoad:
    @pytest.mark.parametrize("scheme_cls", [
        BaselineScheme, FpCompScheme, DiCompScheme])
    def test_exact_schemes_deliver_exact_blocks(self, scheme_cls):
        delivered = []

        def on_deliver(packet, block, now):
            if block is not None:
                delivered.append((packet.block.words, block.words))

        network = Network(SMALL, scheme_cls(SMALL.n_nodes),
                          on_deliver=on_deliver)
        source = BenchmarkTraffic(SMALL, get_benchmark("x264"), seed=5,
                                  duration=500)
        network.set_traffic(source)
        network.run(500)
        assert network.drain(50_000)
        assert delivered
        for sent, received in delivered:
            assert sent == received

    @pytest.mark.parametrize("scheme_cls", [
        FpVaxxScheme, DiVaxxScheme, BdVaxxScheme])
    def test_vaxx_schemes_respect_error_bound(self, scheme_cls):
        violations = []

        def on_deliver(packet, block, now):
            if block is None:
                return
            for precise, approx in zip(packet.block.as_ints(),
                                       block.as_ints()):
                if abs(approx - precise) > 4 * abs(precise) * 0.10 + 1:
                    violations.append((precise, approx))

        scheme = scheme_cls(SMALL.n_nodes, error_threshold_pct=10)
        network = Network(SMALL, scheme, on_deliver=on_deliver)
        source = BenchmarkTraffic(SMALL, get_benchmark("ssca2"), seed=7,
                                  duration=500)
        network.set_traffic(source)
        network.run(500)
        assert network.drain(50_000)
        assert violations == []


class TestCacheSystemToNetwork:
    def test_coherence_trace_replays_on_the_noc(self):
        """The full gem5-substitute flow: app accesses -> cache misses ->
        trace -> cycle-accurate NoC replay."""
        collector = TraceCollector(n_cores=8, n_nodes=SMALL.n_nodes,
                                   compute_gap=2, miss_penalty=10)
        words = tuple(range(16))
        for i in range(120):
            collector.write(i % 8, i % 24, words)
            collector.read((i + 3) % 8, i % 24)
        trace = collector.records
        assert trace
        network = Network(SMALL, FpVaxxScheme(SMALL.n_nodes, 10))
        network.set_traffic(TraceTraffic(trace))
        span = trace[-1].cycle + 1
        network.run(span)
        assert network.drain(50_000)
        injected = sum(network.stats.packets_injected.values())
        assert injected == len(trace)
        assert network.stats.total_packets_delivered == injected


class TestNotificationTransport:
    def test_updates_travel_in_band_and_enable_compression(self):
        """Dictionary learning must flow through real network packets."""
        scheme = DiCompScheme(SMALL.n_nodes, detect_threshold=1)
        network = Network(SMALL, scheme)
        block = CacheBlock.from_ints([77] * 16)
        # send the block enough times for detection + update round trip
        for _ in range(4):
            network.submit(TrafficRequest(0, 3, PacketKind.DATA, block))
            network.run(60)
        assert network.drain(20_000)
        notif = network.stats.packets_delivered.get(
            PacketKind.NOTIFICATION.value, 0)
        assert notif >= 1
        encoded = scheme.node(0).encode(block, dst=3)
        assert any(code is not None for code in encoded.codes)


class TestFullSystemMesh:
    def test_8x8_mesh_runs(self):
        """The §5.4 full-system 8x8 configuration is simulatable."""
        config = NocConfig(mesh_width=8, mesh_height=8, concentration=1)
        network = Network(config, FpVaxxScheme(config.n_nodes, 10))
        source = BenchmarkTraffic(config, get_benchmark("swaptions"),
                                  seed=9, duration=200)
        network.set_traffic(source)
        network.run(200)
        assert network.drain(50_000)
        assert network.stats.total_packets_delivered > 0

"""Self-time arithmetic and wrapper installation of the traced run."""

import importlib

import pytest

from spans import ENTRY_POINTS, Tracer, ledger, self_times
from repro.core.block import CacheBlock
from repro.harness import experiment
from repro.noc import NocConfig
from repro.traffic import BenchmarkTraffic, get_benchmark


def _self_times(*spans):
    """Self times of ``(name, start, end, parent index)`` spans."""
    names = sorted({span[0] for span in spans})
    return self_times(names, [names.index(span[0]) for span in spans],
                      [span[1] for span in spans], [span[2] for span in spans],
                      [span[3] for span in spans])


def test_self_time_subtracts_direct_children_only():
    own = _self_times(("harness", 0.0, 10.0, -1),
                      ("network.run", 1.0, 9.0, 0),
                      ("router", 2.0, 5.0, 1),
                      ("ni", 5.0, 8.0, 1),
                      ("codec.encode", 6.0, 7.5, 3))
    assert own == pytest.approx({"harness": 2.0, "network.run": 2.0,
                                 "router": 3.0, "ni": 1.5,
                                 "codec.encode": 1.5})


def test_ledger_sums_to_window_with_remainder():
    own = _self_times(("harness", 1.0, 4.0, -1),
                      ("router", 1.5, 3.0, 0),
                      ("service.journal", 5.0, 5.5, -1))  # another thread
    layers = ledger(own, window_s=7.0)
    assert layers["harness"] == pytest.approx(1.5)
    assert layers["router"] == pytest.approx(1.5)
    assert layers["service"] == pytest.approx(0.5)
    assert layers["remainder"] == pytest.approx(3.5)
    assert sum(layers.values()) == pytest.approx(7.0)


def test_override_calling_super_records_one_span():
    scheme = experiment.make_scheme("FP-VAXX", 4, 10.0)
    block = CacheBlock.from_ints(range(16))  # not approximable: super()
    tracer = Tracer()
    tracer.install()
    try:
        encoded = scheme.node(0).encode(block, 1)
        scheme.node(1).decode(encoded, 0)
    finally:
        tracer.restore()
    calls = {name: n for name, n in tracer.span_counts().items() if n}
    assert calls == {"codec.encode": 1, "codec.decode": 1}


def _entry_attributes():
    """The current object behind every wrapped entry point."""
    current = {}
    for _, owner_path, attribute in ENTRY_POINTS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        current[(owner_path, attribute)] = vars(owner).get(attribute)
    return current


def _tiny_run():
    config = NocConfig()
    source = BenchmarkTraffic(config, get_benchmark("ssca2"), seed=5)
    trace = experiment.record_trace(source, 300)
    return experiment.run_trace(config, "DI-VAXX", trace, 100, 200)


def test_wrappers_are_restored_and_digests_match():
    before = _entry_attributes()
    plain = _tiny_run().identity_digest()
    tracer = Tracer()
    tracer.install()
    try:
        assert experiment.run_trace is not before[
            ("repro.harness.experiment", "run_trace")]
        traced = _tiny_run().identity_digest()
    finally:
        tracer.restore()
    assert _entry_attributes() == before
    assert traced == plain
    assert _tiny_run().identity_digest() == plain
    calls = tracer.span_counts()
    for name in ("traffic", "codec.encode", "codec.decode", "ni.submit",
                 "router", "network.run", "stats", "verify", "harness"):
        assert calls.get(name, 0) > 0, name

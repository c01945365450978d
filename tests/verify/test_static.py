"""Static verifier tests: rule catalogue, Network gate, field registry."""

import dataclasses

import pytest

from repro.compression import BaselineScheme
from repro.noc import Network
from repro.noc.config import NocConfig, PAPER_CONFIG, TINY_CONFIG
from repro.noc.routing import (
    RoutingProperties,
    register_routing_fn,
    unregister_routing_fn,
    xy_route,
)
from repro.noc.topology import NORTH
from repro.verify.cdg import cyclic_demo_route
from repro.verify.static import (
    VALIDATED_CONFIG_FIELDS,
    ConfigVerificationError,
    clear_verification_cache,
    ensure_network_verified,
    verify_config,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_verification_cache()
    yield
    clear_verification_cache()


@pytest.fixture
def cyclic_routing():
    register_routing_fn("cyclic-demo", cyclic_demo_route,
                        RoutingProperties(minimal=False))
    yield "cyclic-demo"
    unregister_routing_fn("cyclic-demo")


def codes(report):
    return {v.code for v in report.violations}


class TestCleanConfigs:
    @pytest.mark.parametrize("config", [PAPER_CONFIG, TINY_CONFIG])
    @pytest.mark.parametrize("routing", ["xy", "yx"])
    def test_benchmark_configs_verify_clean(self, config, routing):
        report = verify_config(config, routing)
        assert report.ok
        assert report.violations == []
        assert report.pairs_checked == \
            config.n_nodes * (config.n_nodes - 1)
        assert report.cdg_channels > 0

    def test_unknown_routing_is_a_usage_error(self):
        with pytest.raises(ValueError, match="unknown routing"):
            verify_config(TINY_CONFIG, "no-such-routing")

    def test_json_dict_shape(self):
        report = verify_config(TINY_CONFIG, "xy")
        payload = report.to_json_dict()
        assert payload["ok"] is True
        assert payload["routing"] == "xy"
        assert payload["config"]["mesh_width"] == 2
        assert payload["violations"] == []


class TestDeadlockDetection:
    def test_cyclic_routing_is_rejected(self, cyclic_routing):
        report = verify_config(TINY_CONFIG, cyclic_routing)
        assert not report.ok
        assert "VERIFY102" in codes(report)
        message = next(v for v in report.violations
                       if v.code == "VERIFY102").message
        assert "->" in message  # witness cycle is spelled out

    def test_unroutable_function_is_rejected(self):
        register_routing_fn("north-forever", lambda t, r, d: NORTH,
                            RoutingProperties(minimal=False))
        try:
            report = verify_config(TINY_CONFIG, "north-forever")
        finally:
            unregister_routing_fn("north-forever")
        assert not report.ok
        assert "VERIFY101" in codes(report)

    def test_non_minimal_route_warns_when_declared_minimal(self):
        def detour(topology, router, dst_node):
            # Take the YX leg first from router 0 only: still delivers,
            # but 0 -> (1,0)-attached nodes go S,E,N instead of E.
            x, y = topology.coords(router)
            if (x, y) == (0, 0) and \
                    topology.coords(topology.router_of(dst_node)) == (1, 0):
                return 2  # SOUTH: a detour
            return xy_route(topology, router, dst_node)

        register_routing_fn("detour", detour)  # declared minimal (default)
        try:
            report = verify_config(TINY_CONFIG, "detour")
        finally:
            unregister_routing_fn("detour")
        assert "VERIFY103" in codes(report)
        warning = next(v for v in report.violations
                       if v.code == "VERIFY103")
        assert warning.severity == "warning"

    def test_escape_vc_requirements(self):
        register_routing_fn(
            "adaptive-demo", xy_route,
            RoutingProperties(requires_escape_vc=True, escape_fn=None))
        try:
            single_vc = NocConfig(mesh_width=2, mesh_height=2,
                                  concentration=1, num_vcs=1)
            report = verify_config(single_vc, "adaptive-demo")
            assert not report.ok
            messages = [v.message for v in report.violations
                        if v.code == "VERIFY104"]
            assert len(messages) == 2  # too few VCs + no escape_fn
            # With enough VCs and a declared escape restriction, the CDG
            # is built from the escape function and the config passes.
            register_routing_fn(
                "adaptive-ok", cyclic_demo_route,
                RoutingProperties(minimal=False, requires_escape_vc=True,
                                  escape_fn=xy_route))
            try:
                report = verify_config(TINY_CONFIG, "adaptive-ok")
            finally:
                unregister_routing_fn("adaptive-ok")
            assert "VERIFY104" not in codes(report)
            assert "VERIFY102" not in codes(report)
        finally:
            unregister_routing_fn("adaptive-demo")


class TestConfigRules:
    def test_degenerate_traffic_warns(self):
        lonely = NocConfig(mesh_width=1, mesh_height=1, concentration=1)
        report = verify_config(lonely, "xy")
        assert report.ok  # warning only
        assert "VERIFY203" in codes(report)

    def test_unknown_core_backend_is_verify201(self):
        # A config forced past NocConfig.__post_init__ must still be
        # refused by the static gate.
        config = NocConfig()
        object.__setattr__(config, "core", "numpy")
        report = verify_config(config, "xy")
        assert not report.ok
        assert any(v.code == "VERIFY201" and "'numpy'" in v.message
                   for v in report.violations)

    def test_all_noc_config_fields_are_registered(self):
        # Runtime twin of the REPRO602 lint rule: adding a NocConfig field
        # without a validation rule must fail here too.
        field_names = {f.name for f in dataclasses.fields(NocConfig)}
        assert field_names <= VALIDATED_CONFIG_FIELDS
        # ... and the registry carries no stale entries either.
        assert VALIDATED_CONFIG_FIELDS <= field_names


class TestNetworkGate:
    def test_network_init_rejects_cyclic_routing(self, cyclic_routing):
        scheme = BaselineScheme(TINY_CONFIG.n_nodes)
        with pytest.raises(ConfigVerificationError) as excinfo:
            Network(TINY_CONFIG, scheme, routing=cyclic_routing)
        assert excinfo.value.report.routing == cyclic_routing
        assert "VERIFY102" in codes(excinfo.value.report)

    def test_network_init_accepts_benchmark_configs(self):
        Network(TINY_CONFIG, BaselineScheme(TINY_CONFIG.n_nodes))

    def test_gate_result_is_cached_per_config(self):
        calls = []
        import repro.verify.static as static

        original = static.verify_config

        def counting(config, routing="xy"):
            calls.append((config, routing))
            return original(config, routing)

        static.verify_config = counting
        try:
            ensure_network_verified(TINY_CONFIG, "xy")
            ensure_network_verified(TINY_CONFIG, "xy")
            ensure_network_verified(TINY_CONFIG, "yx")
        finally:
            static.verify_config = original
        assert len(calls) == 2  # one per distinct (config, routing)

    def test_failing_pair_stays_failing_from_cache(self, cyclic_routing):
        with pytest.raises(ConfigVerificationError):
            ensure_network_verified(TINY_CONFIG, cyclic_routing)
        with pytest.raises(ConfigVerificationError):
            ensure_network_verified(TINY_CONFIG, cyclic_routing)

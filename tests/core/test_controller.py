"""Tests for the controller cycle, inputs and monitoring."""

import pytest

from repro.core.config import ControllerConfig
from repro.core.controller import EdgeFabricController
from repro.core.injector import BgpInjector
from repro.core.inputs import InputAssembler
from repro.netbase.errors import ControllerError, StaleInputError
from repro.netbase.units import gbps
from repro.sflow.collector import SflowCollector

from .helpers import MiniPop, P_CONE, P_CONE2, P_IXP, default_config


class Harness:
    """MiniPop + real sFlow + controller, with manual traffic feeding."""

    def __init__(self, **config_overrides):
        self.mini = MiniPop()
        self.config = default_config(**config_overrides)
        self.sflow = SflowCollector(self._resolve, window_seconds=60.0)
        from repro.sflow.agent import InterfaceIndexMap, SflowAgent

        self.index_map = InterfaceIndexMap(["ixp0", "pni0", "tr0"])
        self.agent = SflowAgent(
            router="mini-pr0",
            agent_address=99,
            interfaces=self.index_map,
            # High enough that gigabit-scale feeds stay cheap, low
            # enough that estimates land within ~2% of truth.
            sampling_rate=16384,
            seed=1,
        )
        self.sflow.register_router("mini-pr0", 99, self.index_map)
        self.injector = BgpInjector(
            self.mini.pop, {"mini-pr0": self.mini.speaker}, self.config
        )
        self.assembler = InputAssembler(
            self.mini.pop, self.mini.collector, self.sflow, self.config
        )
        self.controller = EdgeFabricController(
            self.assembler, self.injector, self.config
        )

    def _resolve(self, family, address):
        from repro.netbase.addr import Prefix

        host = Prefix.from_address(family, address, family.max_length)
        route = self.mini.collector.longest_match(host)
        return route.prefix if route else None

    def feed_traffic(self, rates, now, seconds=60.0):
        """Offer per-prefix rates through the real sampling path.

        Feeds one full estimator window's worth of bytes so the
        estimated rate equals the offered rate.
        """
        from repro.sflow.agent import ObservedFlow
        from repro.netbase.addr import Family
        from repro.dataplane.fib import egress_interface

        flows = []
        for prefix, rate in rates.items():
            best = self.mini.speaker.loc_rib.best(prefix)
            interface = egress_interface(self.mini.pop, best)[1]
            total_bytes = rate.bits_per_second * seconds / 8
            flows.append(
                ObservedFlow(
                    family=Family.IPV4,
                    src_address=1,
                    dst_address=prefix.network | 1,
                    bytes_sent=total_bytes,
                    packets=total_bytes / 1000,
                    egress_interface=interface,
                )
            )
        self.mini.clock = now
        for datagram in self.agent.observe(flows, now):
            self.sflow.feed(datagram, now)
        self.mini.exporter.heartbeat()

    def feed_traffic_v6(self, rates, now, seconds=60.0):
        """v6 variant of :meth:`feed_traffic`."""
        from repro.sflow.agent import ObservedFlow
        from repro.netbase.addr import Family
        from repro.dataplane.fib import egress_interface

        flows = []
        for prefix, rate in rates.items():
            best = self.mini.speaker.loc_rib.best(prefix)
            interface = egress_interface(self.mini.pop, best)[1]
            total_bytes = rate.bits_per_second * seconds / 8
            flows.append(
                ObservedFlow(
                    family=Family.IPV6,
                    src_address=1,
                    dst_address=prefix.network | 1,
                    bytes_sent=total_bytes,
                    packets=total_bytes / 1000,
                    egress_interface=interface,
                )
            )
        self.mini.clock = now
        for datagram in self.agent.observe(flows, now):
            self.sflow.feed(datagram, now)
        self.mini.exporter.heartbeat()


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ControllerError):
            ControllerConfig(cycle_seconds=0)
        with pytest.raises(ControllerError):
            ControllerConfig(utilization_threshold=1.5)
        with pytest.raises(ControllerError):
            ControllerConfig(max_input_age_seconds=0)
        with pytest.raises(ControllerError):
            ControllerConfig(max_new_detours_per_cycle=-1)
        with pytest.raises(ControllerError):
            ControllerConfig(perf_improvement_threshold_ms=-5.0)
        # Zero stays legal for both: it freezes new detours, and it
        # drops the RTT margin an alternate must win by.
        ControllerConfig(max_new_detours_per_cycle=0)
        ControllerConfig(perf_improvement_threshold_ms=0.0)


class TestInputAssembler:
    def test_snapshot_carries_traffic_and_capacity(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(2)}, now=10.0)
        inputs = harness.assembler.snapshot(10.0)
        assert inputs.taken_at == 10.0
        assert P_CONE in inputs.traffic
        assert inputs.capacities[("mini-pr0", "pni0")] == gbps(10)
        assert inputs.total_traffic().bits_per_second > 0

    def test_stale_routes_rejected(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(2)}, now=10.0)
        harness.mini.clock = 500.0  # no BMP activity since t=10
        with pytest.raises(StaleInputError):
            harness.assembler.snapshot(500.0)

    def test_no_traffic_ever_rejected(self):
        harness = Harness()
        harness.mini.clock = 10.0
        harness.mini.exporter.heartbeat()
        with pytest.raises(StaleInputError):
            harness.assembler.snapshot(200.0)

    def test_routes_of_excludes_injected(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        harness.controller.run_cycle(10.0)  # injects an override
        inputs = harness.assembler.snapshot(11.0)
        assert all(not r.is_injected for r in inputs.routes_of(P_CONE))


class TestControllerCycle:
    def test_quiet_network_no_action(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(2)}, now=10.0)
        report = harness.controller.run_cycle(10.0)
        assert not report.skipped
        assert report.detour_count == 0
        assert report.churn == 0
        assert len(harness.controller.overrides) == 0

    def test_overload_triggers_injection(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        report = harness.controller.run_cycle(10.0)
        assert report.detour_count == 1
        assert report.announced == 1
        best = harness.mini.speaker.loc_rib.best(P_CONE)
        assert best.is_injected

    def test_override_removed_when_demand_subsides(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        harness.controller.run_cycle(10.0)
        assert len(harness.controller.overrides) == 1
        # Demand drops well below threshold; wait for the estimator
        # window to roll over, then the override must be withdrawn.
        harness.feed_traffic({P_CONE: gbps(1)}, now=100.0)
        report = harness.controller.run_cycle(100.0)
        assert report.withdrawn == 1
        assert len(harness.controller.overrides) == 0
        best = harness.mini.speaker.loc_rib.best(P_CONE)
        assert not best.is_injected

    def test_stable_demand_keeps_override_without_churn(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        harness.controller.run_cycle(10.0)
        # Next cycle a full estimator window later, same demand.
        harness.feed_traffic({P_CONE: gbps(12)}, now=100.0)
        report = harness.controller.run_cycle(100.0)
        assert report.kept == 1
        assert report.churn == 0

    def test_stale_inputs_skip_cycle_without_action(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        harness.controller.run_cycle(10.0)
        harness.mini.clock = 1000.0
        report = harness.controller.run_cycle(1000.0)
        assert report.skipped
        assert "stale" in report.skip_reason.lower() or report.skip_reason
        # Overrides remain untouched on skipped cycles.
        assert len(harness.controller.overrides) == 1

    def test_shutdown_restores_default_routing(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        harness.controller.run_cycle(10.0)
        flushed = harness.controller.shutdown(now=50.0)
        assert flushed == 1
        best = harness.mini.speaker.loc_rib.best(P_CONE)
        assert not best.is_injected
        assert harness.controller.overrides.durations() == [40.0]

    def test_statelessness_recovery(self):
        """A restarted controller converges to the same overrides."""
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        first = harness.controller.run_cycle(10.0)
        # "Crash": build a brand-new controller over the same injector
        # state; next cycle must keep routing consistent (announce the
        # same override rather than withdrawing it).
        fresh = EdgeFabricController(
            harness.assembler, harness.injector, harness.config
        )
        harness.feed_traffic({P_CONE: gbps(12)}, now=100.0)
        report = fresh.run_cycle(100.0)
        assert report.detour_count == first.detour_count
        best = harness.mini.speaker.loc_rib.best(P_CONE)
        assert best.is_injected

    def test_monitor_accumulates(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        harness.controller.run_cycle(10.0)
        harness.feed_traffic({P_CONE: gbps(12)}, now=100.0)
        harness.controller.run_cycle(100.0)
        monitor = harness.controller.monitor
        assert monitor.cycles() == 2
        assert monitor.skipped_cycles() == 0
        assert monitor.total_churn() == 1  # one announce, then stable
        assert 0 < monitor.peak_detoured_fraction() <= 1.0
        assert all(r.runtime_seconds > 0 for r in monitor.reports)


class TestMultiOverload:
    def test_concurrent_overloads_all_relieved(self):
        harness = Harness()
        harness.feed_traffic(
            {
                P_CONE: gbps(6),
                P_CONE2: gbps(6),
                P_IXP: gbps(22),
            },
            now=10.0,
        )
        report = harness.controller.run_cycle(10.0)
        assert report.unresolved == ()
        assert report.detour_count >= 2
        # Verify final projected loads in the report imply no overload:
        # both hot interfaces got traffic moved off them.
        overrides = harness.controller.overrides.active()
        assert len(overrides) == report.detour_count

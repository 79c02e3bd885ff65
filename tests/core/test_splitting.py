"""Prefix splitting: detouring more-specific halves of oversized prefixes."""

import pytest

from repro.core import allocator
from repro.core.allocator import Allocator
from repro.core.projection import project
from repro.dataplane.fib import split_shares
from repro.netbase.addr import Prefix
from repro.netbase.units import gbps

from .helpers import MiniPop, P_CONE, default_config
from .test_controller import Harness

PNI = ("mini-pr0", "pni0")
IXP = ("mini-pr0", "ixp0")
TR = ("mini-pr0", "tr0")


class TestSplitShares:
    def make_route(self, text):
        from .helpers import MiniPop

        mini = MiniPop()
        route = mini.collector.routes_for(P_CONE)[1]
        import dataclasses

        return dataclasses.replace(route, prefix=Prefix.parse(text))

    def test_single_half(self):
        covering = Prefix.parse("11.0.0.0/24")
        half = self.make_route("11.0.0.0/25")
        shares, remainder = split_shares(covering, [half])
        assert shares == [(half, 0.5)]
        assert remainder == 0.5

    def test_both_halves(self):
        covering = Prefix.parse("11.0.0.0/24")
        low = self.make_route("11.0.0.0/25")
        high = self.make_route("11.0.0.128/25")
        shares, remainder = split_shares(covering, [low, high])
        assert remainder == 0.0
        assert {f for _r, f in shares} == {0.5}

    def test_nested_specifics(self):
        covering = Prefix.parse("11.0.0.0/24")
        quarter = self.make_route("11.0.0.0/26")
        half = self.make_route("11.0.0.0/25")
        shares, remainder = split_shares(covering, [half, quarter])
        by_prefix = {r.prefix: f for r, f in shares}
        assert by_prefix[Prefix.parse("11.0.0.0/26")] == 0.25
        assert by_prefix[Prefix.parse("11.0.0.0/25")] == pytest.approx(0.25)
        assert remainder == pytest.approx(0.5)

    def test_doubly_nested(self):
        covering = Prefix.parse("11.0.0.0/24")
        routes = [
            self.make_route("11.0.0.0/25"),
            self.make_route("11.0.0.0/26"),
            self.make_route("11.0.0.0/27"),
        ]
        shares, remainder = split_shares(covering, routes)
        total = sum(f for _r, f in shares)
        assert total == pytest.approx(0.5)
        assert remainder == pytest.approx(0.5)

    def test_empty(self):
        covering = Prefix.parse("11.0.0.0/24")
        shares, remainder = split_shares(covering, [])
        assert shares == [] and remainder == 1.0


class TestAllocatorSplitting:
    def allocate(self, mini, traffic, config):
        inputs = mini.inputs(traffic)
        projection = project(mini.pop, inputs)
        return Allocator(mini.pop, config).allocate(projection, inputs)

    def constrain_alternates(self, mini):
        """Shrink ixp0 and tr0 so a 12G prefix fits nowhere whole."""
        from repro.netbase.units import gbps as _gbps
        from repro.topology.entities import Interface

        router = mini.pop.routers["mini-pr0"]
        router.interfaces["ixp0"] = Interface(
            router="mini-pr0", name="ixp0", capacity=_gbps(8)
        )
        router.interfaces["tr0"] = Interface(
            router="mini-pr0", name="tr0", capacity=_gbps(8)
        )

    def test_whole_prefix_preferred_when_it_fits(self):
        mini = MiniPop()
        config = default_config(allow_prefix_splitting=True)
        result = self.allocate(mini, {P_CONE: gbps(12)}, config)
        assert list(result.detours) == [P_CONE]  # no split needed

    def test_split_when_nothing_fits_whole(self):
        mini = MiniPop()
        self.constrain_alternates(mini)
        config = default_config(allow_prefix_splitting=True)
        result = self.allocate(mini, {P_CONE: gbps(12)}, config)
        halves = sorted(result.detours)
        assert [str(p) for p in halves] == [
            "11.0.0.0/25",
            "11.0.0.128/25",
        ]
        for detour in result.detours.values():
            assert detour.rate == gbps(6)
            assert detour.from_interface == PNI
        # 12G split across two 8G interfaces (7.6G usable each).
        targets = {d.to_interface for d in result.detours.values()}
        assert targets == {IXP, TR}
        assert result.unresolved == []

    def test_split_disabled_leaves_unresolved(self):
        mini = MiniPop()
        self.constrain_alternates(mini)
        config = default_config(allow_prefix_splitting=False)
        result = self.allocate(mini, {P_CONE: gbps(12)}, config)
        assert result.detours == {}
        assert result.unresolved == [PNI]

    def test_tiny_prefixes_not_split(self, monkeypatch):
        monkeypatch.setattr(allocator, "MIN_DETOUR_RATE", gbps(10))
        mini = MiniPop()
        self.constrain_alternates(mini)
        config = default_config(allow_prefix_splitting=True)
        result = self.allocate(mini, {P_CONE: gbps(12)}, config)
        assert result.detours == {}


class TestSplittingEndToEnd:
    def test_split_override_diverts_half_the_traffic(self):
        harness = Harness(allow_prefix_splitting=True)
        # Constrain alternates so the 12G cone prefix cannot move whole.
        from repro.topology.entities import Interface
        from repro.netbase.units import gbps as _gbps

        router = harness.mini.pop.routers["mini-pr0"]
        for name in ("ixp0", "tr0"):
            router.interfaces[name] = Interface(
                router="mini-pr0", name=name, capacity=_gbps(8)
            )
        harness.assembler._capacities[("mini-pr0", "ixp0")] = _gbps(8)
        harness.assembler._capacities[("mini-pr0", "tr0")] = _gbps(8)

        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        report = harness.controller.run_cycle(10.0)
        assert report.detour_count == 2  # the two halves
        injected = harness.injector.injected_prefixes()
        assert [str(p) for p in injected] == [
            "11.0.0.0/25",
            "11.0.0.128/25",
        ]
        # The PR's decision process now prefers the more-specifics for
        # their halves while the /24 stays organic.
        best_parent = harness.mini.speaker.loc_rib.best(P_CONE)
        assert not best_parent.is_injected
        half = Prefix.parse("11.0.0.0/25")
        best_half = harness.mini.speaker.loc_rib.best(half)
        assert best_half.is_injected
        # LPM: an address in the low half follows the injected route.
        hit = harness.mini.speaker.loc_rib.longest_match(
            Prefix.parse("11.0.0.7/32")
        )
        assert hit.is_injected

    def test_split_withdrawn_when_demand_subsides(self):
        harness = Harness(allow_prefix_splitting=True)
        from repro.topology.entities import Interface
        from repro.netbase.units import gbps as _gbps

        router = harness.mini.pop.routers["mini-pr0"]
        for name in ("ixp0", "tr0"):
            router.interfaces[name] = Interface(
                router="mini-pr0", name=name, capacity=_gbps(8)
            )
        harness.assembler._capacities[("mini-pr0", "ixp0")] = _gbps(8)
        harness.assembler._capacities[("mini-pr0", "tr0")] = _gbps(8)
        harness.feed_traffic({P_CONE: gbps(12)}, now=10.0)
        harness.controller.run_cycle(10.0)
        assert len(harness.controller.overrides) == 2
        harness.feed_traffic({P_CONE: gbps(1)}, now=100.0)
        report = harness.controller.run_cycle(100.0)
        assert report.withdrawn == 2
        assert harness.injector.injected_prefixes() == []

"""Tests for the detour allocator — the paper's core algorithm."""

import pytest

from repro.core import allocator as allocator_module
from repro.core.allocator import Allocator
from repro.core.projection import project
from repro.netbase.units import gbps, mbps

from .helpers import (
    MiniPop,
    P_CONE,
    P_CONE2,
    P_IXP,
    P_TRANSIT_ONLY,
    default_config,
)

PNI = ("mini-pr0", "pni0")
TR = ("mini-pr0", "tr0")
IXP = ("mini-pr0", "ixp0")


@pytest.fixture()
def mini():
    return MiniPop()


def allocate(mini, traffic, config=None, previous=None):
    config = config or default_config()
    inputs = mini.inputs(traffic)
    projection = project(mini.pop, inputs)
    allocator = Allocator(mini.pop, config)
    return allocator.allocate(projection, inputs, previous)


class TestNoOverload:
    def test_no_detours_when_under_threshold(self, mini):
        result = allocate(mini, {P_CONE: gbps(5), P_IXP: gbps(4)})
        assert result.detours == {}
        assert result.overloaded_before == []
        assert result.unresolved == []

    def test_loads_passthrough(self, mini):
        result = allocate(mini, {P_CONE: gbps(5)})
        assert result.final_loads[PNI] == gbps(5)


class TestBasicDetour:
    def test_overload_relieved_to_next_preferred(self, mini):
        # pni0 capacity 10G, threshold 9.5G. 12G of cone traffic must
        # shed at least 2.5G. P_CONE's next route is the public peer.
        result = allocate(mini, {P_CONE: gbps(6), P_CONE2: gbps(6)})
        assert result.overloaded_before == [PNI]
        assert result.unresolved == []
        assert result.final_loads[PNI].bits_per_second <= 9.5e9
        assert len(result.detours) == 1
        detour = next(iter(result.detours.values()))
        # Heaviest-first with equal rates: deterministic prefix order.
        assert detour.from_interface == PNI

    def test_detour_target_is_bgp_next_preference(self, mini):
        result = allocate(mini, {P_CONE: gbps(12)})
        detour = result.detours[P_CONE]
        # P_CONE: private (preferred) > public > transit. Public has room.
        assert detour.target.source == mini.public
        assert detour.to_interface == IXP

    def test_detour_skips_full_next_choice(self, mini):
        # Fill the IXP so P_CONE's public alternate does not fit;
        # allocator must fall through to transit.
        result = allocate(
            mini, {P_CONE: gbps(12), P_IXP: gbps(18)}
        )
        detour = result.detours[P_CONE]
        assert detour.target.source == mini.transit
        assert detour.to_interface == TR

    def test_moves_heaviest_first_minimizing_override_count(self, mini):
        # 11.4G total on pni0; shedding the 5G prefix alone suffices.
        result = allocate(
            mini, {P_CONE: gbps(5), P_CONE2: gbps(6.4)}
        )
        assert len(result.detours) == 1
        assert P_CONE2 in result.detours  # the heavier one moved

    def test_detoured_rate_accounting(self, mini):
        result = allocate(mini, {P_CONE: gbps(12)})
        assert result.detoured_rate() == gbps(12)


class TestConstraints:
    def test_never_creates_new_overload(self, mini):
        # Everything is hot: pni0 12G/10G, ixp0 18.5G/20G (under
        # threshold but no room for +12G). Transit takes the detour.
        result = allocate(
            mini, {P_CONE: gbps(12), P_IXP: gbps(18.5)}
        )
        for key, load in result.final_loads.items():
            capacity = mini.pop.capacity_of(key)
            assert load.bits_per_second <= capacity.bits_per_second * 0.95 + 1

    def test_min_detour_rate_respected(self, mini, monkeypatch):
        monkeypatch.setattr(allocator_module, "MIN_DETOUR_RATE", gbps(1))
        # Many small prefixes sum to overload but none is big enough to
        # detour: the overload goes unresolved.

        from repro.netbase.addr import Prefix

        small = {}
        for i in range(30):
            prefix = Prefix.parse(f"11.9.{i}.0/24")
            mini.announce(mini.private, prefix, (65002,))
            mini.announce(mini.transit, prefix, (65001, 64900))
            small[prefix] = mbps(400)
        result = allocate(mini, small)
        assert result.overloaded_before == [PNI]
        assert result.detours == {}
        assert result.unresolved == [PNI]

    def test_unresolvable_without_alternates(self, mini):
        # P_TRANSIT_ONLY has a single route; if transit overloads there
        # is nowhere to go.
        result = allocate(mini, {P_TRANSIT_ONLY: gbps(99)})
        assert result.unresolved == [TR]
        assert result.detours == {}

    def test_same_interface_alternate_is_no_relief(self, mini):
        # P_IXP's routes: public peer and route server — both ride ixp0.
        # Transit is the only real relief.
        result = allocate(mini, {P_IXP: gbps(25)})
        detour = result.detours[P_IXP]
        assert detour.to_interface == TR


class TestStability:
    def test_previous_target_kept_when_valid(self, mini):
        previous = {P_CONE: mini.transit.name}
        result = allocate(mini, {P_CONE: gbps(12)}, previous=previous)
        # Without stickiness the public peer would win (next preferred);
        # stability keeps transit.
        assert result.detours[P_CONE].target.source == mini.transit

    def test_stickiness_ignored_when_target_invalid(self, mini):
        previous = {P_CONE: "no-such-session"}
        result = allocate(mini, {P_CONE: gbps(12)}, previous=previous)
        assert result.detours[P_CONE].target.source == mini.public

    def test_stability_disabled(self, mini):
        config = default_config(stability_preference=False)
        previous = {P_CONE: mini.transit.name}
        result = allocate(
            mini, {P_CONE: gbps(12)}, config=config, previous=previous
        )
        assert result.detours[P_CONE].target.source == mini.public


class TestNewDetourBudget:
    def test_cap_limits_new_detours(self, mini):
        config = default_config(max_new_detours_per_cycle=1)
        # Two interfaces overloaded -> would need >= 2 detours.
        result = allocate(
            mini,
            {P_CONE: gbps(12), P_IXP: gbps(25)},
            config=config,
        )
        assert len(result.detours) == 1
        assert len(result.unresolved) == 1

    def test_kept_detours_do_not_consume_budget(self, mini):
        config = default_config(max_new_detours_per_cycle=0)
        previous = {P_CONE: mini.public.name}
        result = allocate(
            mini, {P_CONE: gbps(12)}, config=config, previous=previous
        )
        # The existing detour is re-derived despite a zero budget.
        assert P_CONE in result.detours
        assert result.detours[P_CONE].target.source == mini.public

    def test_zero_budget_blocks_all_new(self, mini):
        config = default_config(max_new_detours_per_cycle=0)
        result = allocate(mini, {P_CONE: gbps(12)}, config=config)
        assert result.detours == {}
        assert result.unresolved == [PNI]

    def test_none_budget_unlimited(self, mini):
        config = default_config(max_new_detours_per_cycle=None)
        result = allocate(
            mini, {P_CONE: gbps(12), P_IXP: gbps(25)}, config=config
        )
        assert len(result.detours) == 2


class TestThresholdSweep:
    @pytest.mark.parametrize("threshold", [0.80, 0.90, 0.95, 0.99])
    def test_final_loads_respect_any_threshold(self, mini, threshold):
        config = default_config(utilization_threshold=threshold)
        result = allocate(
            mini,
            {P_CONE: gbps(6), P_CONE2: gbps(6), P_IXP: gbps(4)},
            config=config,
        )
        for key, load in result.final_loads.items():
            if key in result.unresolved:
                continue
            capacity = mini.pop.capacity_of(key)
            assert (
                load.bits_per_second
                <= capacity.bits_per_second * threshold + 1
            )

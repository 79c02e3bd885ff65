"""``injected_specifics`` against its slow definition.

The fast path walks the RIB's injected-prefix trie and its result is
cached per RIB version beside the egress resolution; the definition is
"the injected best routes of every RIB prefix strictly under the
covering prefix, in prefix order".  Checked over seeded random RIBs
under churn, then end to end on one simulator tick with real split
overrides.
"""

import random

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.communities import INJECTED
from repro.bgp.peering import PeerDescriptor, PeerType
from repro.bgp.route import Route
from repro.core.config import ControllerConfig
from repro.dataplane.fib import split_shares
from repro.dataplane.popview import PopView
from repro.experiments.ablation_splitting import _probe_alternate_capacities
from repro.experiments.common import build_deployment
from repro.netbase.addr import Family, Prefix
from repro.netbase.units import Rate, gbps
from repro.topology.entities import PoP

LOCAL_ASN = 64600
BLOCK = Prefix.parse("10.8.0.0/20")
DEMANDED = [Prefix.parse(f"10.8.{i}.0/24") for i in range(16)]


def slow_specifics(rib, covering):
    """The definition: scan every RIB prefix, no trie, no cache."""
    out = []
    for prefix in sorted(rib.prefixes()):
        if prefix == covering or not covering.covers(prefix):
            continue
        best = rib.best(prefix)
        if best is not None and best.is_injected:
            out.append(best)
    return out


def make_pop():
    pop = PoP("specifics", local_asn=LOCAL_ASN)
    router = pop.add_router("r0", router_id=1)
    sessions = []
    for index in range(4):
        router.add_interface(f"et{index}", gbps(10))
        session = PeerDescriptor(
            router="r0",
            peer_asn=65_000 + index,
            peer_type=PeerType.TRANSIT,
            interface=f"et{index}",
            address=0x0A000001 + index,
        )
        pop.add_session(session)
        sessions.append(session)
    injector = PeerDescriptor(
        router="r0",
        peer_asn=LOCAL_ASN,
        peer_type=PeerType.INTERNAL,
        interface="lo0",
        address=0x7F000A01,
        session_name="edge-fabric-injector",
    )
    return pop, sessions, injector


def random_prefix(rng):
    """Anywhere in the block: above, at or under the demanded /24s."""
    length = rng.randint(21, 27)
    span = 1 << (32 - length)
    offset = rng.randrange(0, 1 << (32 - BLOCK.length), span)
    return Prefix(Family.IPV4, BLOCK.network + offset, length)


def make_route(prefix, source, target, local_pref, injected):
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            as_path=AsPath.sequence(target.peer_asn, 64_999),
            next_hop=(Family.IPV4, target.address),
            local_pref=local_pref,
            communities=frozenset({INJECTED}) if injected else frozenset(),
        ),
        source=source,
    )


@pytest.mark.parametrize("seed", range(8))
def test_equals_slow_definition_under_churn(seed):
    rng = random.Random(seed)
    pop, sessions, injector = make_pop()
    view = PopView([])
    rib = view.rib
    held = []
    nonempty = 0
    for prefix in DEMANDED:
        rib.update(make_route(prefix, sessions[0], sessions[0], 200, False))
    for step in range(120):
        if held and rng.random() < 0.35:
            prefix, source = held.pop(rng.randrange(len(held)))
            rib.withdraw(prefix, source)
        elif rng.random() < 0.5:
            # An organic route, sometimes on a prefix an injected route
            # already sits on — and sometimes outranking it.
            prefix = (
                rng.choice(held)[0]
                if held and rng.random() < 0.5
                else random_prefix(rng)
            )
            source = rng.choice(sessions)
            local_pref = rng.choice([100, 300, 20_000])
            rib.update(make_route(prefix, source, source, local_pref, False))
            held.append((prefix, source))
        else:
            prefix = random_prefix(rng)
            target = rng.choice(sessions)
            rib.update(make_route(prefix, injector, target, 10_000, True))
            held.append((prefix, injector))
        if step % 4:
            continue
        for covering in DEMANDED:
            expected = slow_specifics(rib, covering)
            nonempty += bool(expected)
            assert view.injected_specifics(covering) == expected
            # Twice: the second read is the version-keyed cache entry.
            for _read in range(2):
                resolved, cached = view.resolve_forwarding(covering, pop)
                assert list(cached) == expected
                assert (resolved is None) == (rib.best(covering) is None)
    assert nonempty > 10  # the comparison was not vacuous


def test_shapes_the_random_ribs_cover():
    """Injected above, at and under a demanded prefix; an organic route
    sharing an injected prefix and outranking it; withdrawal."""
    pop, sessions, injector = make_pop()
    view = PopView([])
    rib = view.rib
    covering = DEMANDED[3]
    above = Prefix.parse("10.8.2.0/23")
    low = Prefix(Family.IPV4, covering.network, 25)
    high = Prefix(Family.IPV4, covering.network + 128, 25)
    deep = Prefix(Family.IPV4, covering.network + 128, 26)
    rib.update(make_route(covering, sessions[0], sessions[0], 200, False))
    for prefix in (above, covering, low, high, deep):
        rib.update(make_route(prefix, injector, sessions[1], 10_000, True))
    # The organic route on `high` outranks the injected one there.
    rib.update(make_route(high, sessions[2], sessions[2], 20_000, False))

    def names(routes):
        return [str(route.prefix) for route in routes]

    assert names(view.injected_specifics(covering)) == names(
        slow_specifics(rib, covering)
    ) == [str(low), str(deep)]
    assert list(view.resolve_forwarding(covering, pop)[1]) == slow_specifics(
        rib, covering
    )
    rib.withdraw(high, sessions[2])
    assert names(view.resolve_forwarding(covering, pop)[1]) == [
        str(low),
        str(high),
        str(deep),
    ]
    for prefix in (low, high, deep):
        rib.withdraw(prefix, injector)
    assert view.resolve_forwarding(covering, pop)[1] == ()
    assert view.has_injected_routes()  # `above` and `covering` remain


def test_tick_splits_equal_the_slow_definition():
    """One simulator tick over a RIB holding real split overrides (the
    A5 ablation's constrained-alternates regime)."""
    capacities = _probe_alternate_capacities("pop-a", 7, 1.0)
    deployment = build_deployment(
        "pop-a",
        seed=7,
        controller_config=ControllerConfig(
            cycle_seconds=90.0, allow_prefix_splitting=True
        ),
    )
    for key, capacity in capacities.items():
        deployment.set_interface_capacity(key, capacity)
    now = deployment.demand.config.peak_time - 1800.0
    for _tick in range(40):
        now += deployment.tick_seconds
        if deployment.step(now).splits:
            break
    else:
        pytest.fail("no split override was installed in 40 ticks")

    now += deployment.tick_seconds
    result = deployment.simulator.tick(now)
    rib = deployment.simulator.view.rib
    expected = {}
    for prefix, rate in deployment.demand.rates_bps(now).items():
        specifics = slow_specifics(rib, prefix)
        if specifics:
            shares, _remainder = split_shares(prefix, specifics)
            expected[prefix] = [
                (route, Rate(rate * fraction)) for route, fraction in shares
            ]
    assert expected
    assert result.splits == expected

"""Build a wired PoP: entities, BGP speakers, feeds, BMP registry.

:func:`build_pop` turns a :class:`PopSpec` plus an
:class:`~repro.topology.internet.InternetTopology` into a fully wired
simulation object: one :class:`~repro.bgp.speaker.BgpSpeaker` per peering
router, every peering session configured with the standard import policy,
and every peer's announcements replayed through the real BGP wire codec so
the RIBs hold exactly what production routers would hold.

Session placement mirrors the paper's PoP design:

- every transit provider connects to *every* PR (transit is the safety
  net, so it is made redundant),
- each private interconnect (PNI) gets its own dedicated interface on one
  PR,
- all public-exchange sessions — bilateral and route-server — share the
  PoP's IXP-facing interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..bgp.attributes import AsPath, PathAttributes
from ..bgp.peering import PeerDescriptor, PeerType
from ..bgp.policy import standard_import_policy
from ..bgp.speaker import BgpSpeaker
from ..bmp.collector import PeerRegistry
from ..netbase.addr import Family, Prefix
from ..netbase.errors import TopologyError
from ..netbase.units import Rate, gbps
from .entities import Interface, InterfaceKey as InterfaceKeyT, PoP
from .internet import InternetTopology

__all__ = [
    "PopSpec",
    "WiredPop",
    "build_pop",
    "provision_against_demand",
]


@dataclass(frozen=True)
class PopSpec:
    """Parameters shaping one PoP.

    Private-interconnect capacity is *provisioned*, not random: peers
    build PNIs sized against the traffic they exchange.  When
    ``expected_peak`` is set, each private interface's capacity is the
    peer's expected share of peak demand (proportional to its customer
    cone) times a headroom factor — with ``tight_peer_count`` peers
    deliberately under-provisioned, modeling the paper's observation
    that demand growth outpaces capacity augments on some links.  With
    ``expected_peak=None``, capacities fall back to the uniform random
    range (useful for unit tests).
    """

    name: str
    seed: int = 0
    local_asn: int = 64600
    router_count: int = 2
    transit_count: int = 2
    private_peer_count: int = 8
    public_peer_count: int = 24
    route_server_member_count: int = 40
    transit_capacity: Rate = gbps(100)
    private_capacity_min: Rate = gbps(10)
    private_capacity_max: Rate = gbps(40)
    ixp_capacity: Rate = gbps(80)
    #: Peak PoP egress demand the capacities are provisioned against.
    expected_peak: Optional[Rate] = None
    #: Share of demand whose preferred egress is a private peer.
    private_preferred_share: float = 0.85
    #: Headroom factor range for well-provisioned private peers.
    private_headroom: Tuple[float, float] = (1.3, 1.8)
    #: Peers whose capacity lags demand (the overload-prone links).
    tight_peer_count: int = 2
    tight_headroom: Tuple[float, float] = (0.7, 0.92)

    def __post_init__(self) -> None:
        if self.router_count < 1:
            raise TopologyError("a PoP needs at least one router")
        if self.transit_count < 1:
            raise TopologyError(
                "a PoP needs transit (the alternate of last resort)"
            )
        if self.tight_peer_count > self.private_peer_count:
            raise TopologyError(
                "cannot have more tight peers than private peers"
            )


@dataclass
class WiredPop:
    """A PoP plus its live BGP machinery, ready for simulation."""

    pop: PoP
    internet: InternetTopology
    speakers: Dict[str, BgpSpeaker]
    registry: PeerRegistry
    #: Prefixes announced by each session (by session name).
    feeds: Dict[str, List[Prefix]] = field(default_factory=dict)
    #: ASes picked as private peers / public peers / RS members.
    private_peer_asns: List[int] = field(default_factory=list)
    public_peer_asns: List[int] = field(default_factory=list)
    route_server_member_asns: List[int] = field(default_factory=list)

    def popular_prefixes(self) -> List[Prefix]:
        """Prefixes inside private peers' cones — the high-volume set.

        ASes peer privately *because* they exchange lots of traffic, so
        the demand model weights these up.
        """
        seen = {}
        for asn in self.private_peer_asns:
            for prefix in self.internet.cone_prefixes(asn):
                seen[prefix] = True
        return list(seen)


def _session_address(counter: int) -> int:
    """Unique synthetic neighbor addresses out of 10.128.0.0/9."""
    return (10 << 24) | (1 << 23) | counter


def build_pop(
    spec: PopSpec, internet: InternetTopology
) -> WiredPop:
    """Construct and wire a PoP against a synthetic Internet."""
    rng = np.random.default_rng(spec.seed)
    pop = PoP(spec.name, spec.local_asn)
    speakers: Dict[str, BgpSpeaker] = {}
    registry = PeerRegistry()

    for index in range(spec.router_count):
        router_name = f"{spec.name}-pr{index}"
        pop.add_router(router_name, router_id=index + 1)
        speakers[router_name] = BgpSpeaker(
            name=router_name,
            asn=spec.local_asn,
            router_id=index + 1,
        )

    router_names = list(pop.routers)
    wired = WiredPop(
        pop=pop, internet=internet, speakers=speakers, registry=registry
    )

    # -- pick the peer ASes, biggest cones first -----------------------------
    tier2s_by_size = sorted(
        internet.tier2s,
        key=lambda asn: (-len(internet.cone_prefixes(asn)), asn),
    )
    stubs_by_size = sorted(
        internet.stubs,
        key=lambda asn: (-len(internet.prefixes_of(asn)), asn),
    )
    private_peers = tier2s_by_size[: spec.private_peer_count]
    if len(private_peers) < spec.private_peer_count:
        private_peers += stubs_by_size[
            : spec.private_peer_count - len(private_peers)
        ]
    taken = set(private_peers)
    public_peers = [
        asn for asn in tier2s_by_size + stubs_by_size if asn not in taken
    ][: spec.public_peer_count]
    taken.update(public_peers)
    rs_members = [asn for asn in reversed(stubs_by_size) if asn not in taken][
        : spec.route_server_member_count
    ]
    wired.private_peer_asns = list(private_peers)
    wired.public_peer_asns = list(public_peers)
    wired.route_server_member_asns = list(rs_members)

    transits = internet.tier1s[: spec.transit_count]
    if len(transits) < spec.transit_count:
        raise TopologyError(
            f"internet has only {len(transits)} tier-1s; "
            f"spec wants {spec.transit_count}"
        )

    address_counter = 1

    def next_address() -> int:
        nonlocal address_counter
        address = _session_address(address_counter)
        address_counter += 1
        return address

    def wire_session(
        router: str,
        interface: str,
        peer_asn: int,
        peer_type: PeerType,
        feed: Iterable[Tuple[Prefix, Sequence[int]]],
        session_name: str = "",
    ) -> PeerDescriptor:
        session = PeerDescriptor(
            router=router,
            peer_asn=peer_asn,
            peer_type=peer_type,
            interface=interface,
            address=next_address(),
            session_name=session_name,
        )
        pop.add_session(session)
        registry.register(session)
        speaker = speakers[router]
        speaker.add_session(
            session, standard_import_policy(spec.local_asn, peer_type)
        )
        speaker.establish_directly(session.name)
        announced = _announce_feed(speaker, session, feed)
        wired.feeds[session.name] = announced
        return session

    # -- transit: every provider on every router ------------------------------
    for t_index, transit_asn in enumerate(transits):
        feed = list(internet.transit_feed(transit_asn))
        for router in router_names:
            pop.routers[router].add_interface(
                f"tr{t_index}", spec.transit_capacity
            )
            wire_session(
                router,
                f"tr{t_index}",
                transit_asn,
                PeerType.TRANSIT,
                feed,
            )

    # -- private interconnects: dedicated interfaces, round-robin routers ------
    pni_capacities = _provision_private_capacities(
        spec, internet, private_peers, rng
    )
    for p_index, peer_asn in enumerate(private_peers):
        router = router_names[p_index % len(router_names)]
        interface = f"pni{p_index}"
        pop.routers[router].add_interface(
            interface, pni_capacities[peer_asn]
        )
        wire_session(
            router,
            interface,
            peer_asn,
            PeerType.PRIVATE,
            internet.peer_feed(peer_asn),
        )

    # -- the IXP: one shared interface on the first router ---------------------
    ixp_router = router_names[0]
    pop.routers[ixp_router].add_interface("ixp0", spec.ixp_capacity)
    for peer_asn in public_peers:
        wire_session(
            ixp_router,
            "ixp0",
            peer_asn,
            PeerType.PUBLIC,
            internet.peer_feed(peer_asn),
        )
    if rs_members:
        # The route server is transparent: one session, member-origin paths.
        rs_asn = internet.tier1s[-1] + 1_000_000  # synthetic RS ASN
        _wire_route_server(
            wired,
            spec,
            ixp_router,
            "ixp0",
            rs_asn,
            rs_members,
            next_address(),
        )

    return wired


def _provision_private_capacities(
    spec: PopSpec,
    internet: InternetTopology,
    private_peers: Sequence[int],
    rng: np.random.Generator,
) -> Dict[int, Rate]:
    """Capacity per private peer — demand-proportional when possible."""
    if spec.expected_peak is None:
        return {
            asn: gbps(
                rng.uniform(
                    spec.private_capacity_min.gigabits_per_second,
                    spec.private_capacity_max.gigabits_per_second,
                )
            )
            for asn in private_peers
        }
    cone_sizes = {
        asn: max(1, len(internet.cone_prefixes(asn)))
        for asn in private_peers
    }
    total_cone = sum(cone_sizes.values())
    private_demand = (
        spec.expected_peak.gigabits_per_second
        * spec.private_preferred_share
    )
    tight = set(
        rng.choice(
            np.array(sorted(private_peers)),
            size=min(spec.tight_peer_count, len(private_peers)),
            replace=False,
        ).tolist()
    )
    capacities: Dict[int, Rate] = {}
    for asn in private_peers:
        expected_load = private_demand * cone_sizes[asn] / total_cone
        if asn in tight:
            factor = rng.uniform(*spec.tight_headroom)
        else:
            factor = rng.uniform(*spec.private_headroom)
        capacities[asn] = gbps(max(2.0, expected_load * factor))
    return capacities


def provision_against_demand(
    wired: WiredPop,
    weight_of,
    expected_peak: Rate,
    headroom: Tuple[float, float] = (1.3, 1.8),
    tight_headroom: Tuple[float, float] = (0.7, 0.92),
    tight_peer_count: int = 2,
    seed: int = 0,
    min_capacity: Rate = gbps(2),
) -> Dict[InterfaceKeyT, Rate]:
    """Re-provision private-interconnect capacity against actual demand.

    Operators size PNIs against the traffic they measure, not against
    topology proxies.  This recomputes, via the real decision process,
    each private interface's share of peak demand (``weight_of`` maps a
    prefix to its demand weight) and sets its capacity to that expected
    peak load times a headroom factor — except for ``tight_peer_count``
    randomly chosen peers whose capacity deliberately lags demand (the
    paper's under-augmented links, the ones Edge Fabric protects).

    Returns the new capacities by interface key.
    """
    from ..dataplane.popview import PopView

    rng = np.random.default_rng(seed)
    view = PopView(wired.speakers.values())
    peak = expected_peak.bits_per_second
    load_by_interface: Dict[InterfaceKeyT, float] = {}
    for prefix in wired.internet.all_prefixes():
        best = view.best(prefix)
        if best is None or best.peer_type is not PeerType.PRIVATE:
            continue
        key = (best.source.router, best.source.interface)
        load_by_interface[key] = (
            load_by_interface.get(key, 0.0) + weight_of(prefix) * peak
        )
    keys = sorted(load_by_interface)
    tight_keys = set()
    if keys and tight_peer_count:
        chosen = rng.choice(
            len(keys), size=min(tight_peer_count, len(keys)), replace=False
        )
        tight_keys = {keys[i] for i in chosen}
    new_capacities: Dict[InterfaceKeyT, Rate] = {}
    for key in keys:
        expected_load = load_by_interface[key]
        factor = (
            rng.uniform(*tight_headroom)
            if key in tight_keys
            else rng.uniform(*headroom)
        )
        capacity = Rate(
            max(min_capacity.bits_per_second, expected_load * factor)
        )
        new_capacities[key] = capacity
        router_name, interface_name = key
        router = wired.pop.routers[router_name]
        router.interfaces[interface_name] = Interface(
            router=router_name, name=interface_name, capacity=capacity
        )
    return new_capacities


def _wire_route_server(
    wired: WiredPop,
    spec: PopSpec,
    router: str,
    interface: str,
    rs_asn: int,
    members: Sequence[int],
    address: int,
) -> None:
    session = PeerDescriptor(
        router=router,
        peer_asn=rs_asn,
        peer_type=PeerType.ROUTE_SERVER,
        interface=interface,
        address=address,
        session_name="rs",
    )
    wired.pop.add_session(session)
    wired.registry.register(session)
    speaker = wired.speakers[router]
    speaker.add_session(
        session,
        standard_import_policy(spec.local_asn, PeerType.ROUTE_SERVER),
    )
    speaker.establish_directly(session.name)
    feed = wired.internet.route_server_feed(members)
    wired.feeds[session.name] = _announce_feed(speaker, session, feed)


def _announce_feed(
    speaker: BgpSpeaker,
    session: PeerDescriptor,
    feed: Iterable[Tuple[Prefix, Sequence[int]]],
) -> List[Prefix]:
    """Replay a route feed through the wire codec, batching by AS path."""
    by_path: Dict[Tuple[Family, Tuple[int, ...]], List[Prefix]] = {}
    for prefix, as_path in feed:
        by_path.setdefault(
            (prefix.family, tuple(as_path)), []
        ).append(prefix)
    announced: List[Prefix] = []
    for (family, as_path), prefixes in by_path.items():
        next_hop_family = family
        next_hop = (
            session.address
            if family is Family.IPV4
            else (0xFE80 << 112) | session.address
        )
        attrs = PathAttributes(
            as_path=AsPath.sequence(*as_path),
            next_hop=(next_hop_family, next_hop),
        )
        # BGP caps message size; announce in chunks that safely fit.
        for start in range(0, len(prefixes), 200):
            chunk = prefixes[start : start + 200]
            speaker.inject_update(session.name, chunk, attrs, family=family)
            announced.extend(chunk)
    return announced

"""Canonical scenarios: the four study PoPs and the 20-PoP fleet.

The paper examines four PoPs in depth (differing in how well-peered they
are and how tight their peering capacity is) and reports deployment-wide
numbers across roughly twenty PoPs.  These constructors produce seeded
synthetic equivalents; every experiment references them by name so that
results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..bgp.peering import PeerDescriptor, PeerType
from ..bgp.speaker import BgpSpeaker
from ..bmp.collector import PeerRegistry
from ..netbase.errors import TopologyError
from ..netbase.units import Rate, gbps
from .builder import PopSpec, WiredPop, build_pop
from .entities import PoP
from .internet import InternetConfig, InternetTopology

__all__ = [
    "STUDY_POP_NAMES",
    "default_internet",
    "study_pop_spec",
    "build_study_pop",
    "fleet_specs",
    "ScalePop",
    "build_scale_pop",
]

STUDY_POP_NAMES = ("pop-a", "pop-b", "pop-c", "pop-d")


def default_internet(seed: int = 0) -> InternetTopology:
    """The synthetic Internet shared by the canonical scenarios."""
    return InternetTopology(InternetConfig(seed=seed))


def study_pop_spec(name: str, seed: int = 0) -> PopSpec:
    """Spec for one of the four study PoPs.

    - **pop-a** — well-peered, deliberately tight private capacity: the
      overload-prone PoP the paper's motivating figures describe.
    - **pop-b** — transit-heavy with few peers: BGP's preferred placement
      mostly lands on big transit pipes, so little TE is needed.
    - **pop-c** — balanced mid-size PoP.
    - **pop-d** — exchange-heavy: many public peers behind one shared IXP
      port, the sharing that makes public peering risky.
    """
    base = dict(seed=seed)
    if name == "pop-a":
        return PopSpec(
            name=name,
            expected_peak=gbps(170),
            tight_peer_count=3,
            router_count=2,
            transit_count=2,
            private_peer_count=10,
            public_peer_count=24,
            route_server_member_count=40,
            private_capacity_min=gbps(8),
            private_capacity_max=gbps(22),
            ixp_capacity=gbps(80),
            **base,
        )
    if name == "pop-b":
        return PopSpec(
            name=name,
            expected_peak=gbps(200),
            tight_peer_count=1,
            router_count=2,
            transit_count=3,
            private_peer_count=3,
            public_peer_count=8,
            route_server_member_count=12,
            private_capacity_min=gbps(20),
            private_capacity_max=gbps(40),
            ixp_capacity=gbps(40),
            **base,
        )
    if name == "pop-c":
        return PopSpec(
            name=name,
            expected_peak=gbps(150),
            tight_peer_count=2,
            router_count=2,
            transit_count=2,
            private_peer_count=6,
            public_peer_count=16,
            route_server_member_count=30,
            private_capacity_min=gbps(10),
            private_capacity_max=gbps(30),
            ixp_capacity=gbps(60),
            **base,
        )
    if name == "pop-d":
        return PopSpec(
            name=name,
            expected_peak=gbps(160),
            tight_peer_count=1,
            router_count=2,
            transit_count=2,
            private_peer_count=4,
            public_peer_count=36,
            route_server_member_count=80,
            private_capacity_min=gbps(15),
            private_capacity_max=gbps(35),
            ixp_capacity=gbps(50),
            **base,
        )
    raise TopologyError(
        f"unknown study PoP {name!r}; expected one of {STUDY_POP_NAMES}"
    )


def build_study_pop(
    name: str = "pop-a",
    seed: int = 0,
    internet: Optional[InternetTopology] = None,
) -> WiredPop:
    """Build one of the four canonical study PoPs."""
    internet = internet or default_internet(seed)
    return build_pop(study_pop_spec(name, seed), internet)


def fleet_specs(count: int = 20, seed: int = 0) -> List[PopSpec]:
    """Specs for a deployment-wide fleet, cycling the four archetypes."""
    specs = []
    for index in range(count):
        archetype = STUDY_POP_NAMES[index % len(STUDY_POP_NAMES)]
        spec = study_pop_spec(archetype, seed=seed + index)
        specs.append(
            PopSpec(
                **{
                    **spec.__dict__,
                    "name": f"pop-{index:02d}",
                    "seed": seed + index,
                }
            )
        )
    return specs


# -- the scale scenario's PoP -------------------------------------------------

_SCALE_LOCAL_ASN = 64700
_SCALE_TRANSIT_ASN = 65010
_SCALE_PNI_ASN_BASE = 65100


@dataclass
class ScalePop:
    """A minimal PoP sized for synthetic-scale runs.

    One router, one big transit port, and a row of PNI ports.  Unlike
    :class:`~.builder.WiredPop` there is no synthetic Internet behind it:
    the scale harness (:mod:`repro.core.scale`) ingests routes into the
    BMP collector and per-prefix byte estimates into the sFlow collector
    directly, so only the PoP structure, the peer registry, and a speaker
    for the injector's iBGP session are wired here.
    """

    pop: PoP
    speakers: Dict[str, BgpSpeaker]
    registry: PeerRegistry
    transit: PeerDescriptor
    pnis: List[PeerDescriptor]


def build_scale_pop(
    pni_capacities: Sequence[Rate],
    transit_capacity: Rate,
    name: str = "scale",
) -> ScalePop:
    """Build the scale PoP: ``len(pni_capacities)`` PNIs plus transit.

    Sessions are registered with the PoP and the BMP peer registry but
    *not* fed through a speaker's import pipeline — the scale harness
    constructs routes with their post-import LOCAL_PREF already applied
    and hands them straight to :meth:`BmpCollector.ingest_route`.  The
    speaker exists solely so the :class:`~repro.core.injector.BgpInjector`
    has a router to hold its iBGP session with.
    """
    if not pni_capacities:
        raise TopologyError("a scale PoP needs at least one PNI")
    router_name = f"{name}-pr0"
    pop = PoP(name, local_asn=_SCALE_LOCAL_ASN)
    router = pop.add_router(router_name, router_id=1)
    registry = PeerRegistry()
    speaker = BgpSpeaker(
        name=router_name, asn=_SCALE_LOCAL_ASN, router_id=1
    )

    def _session(
        asn: int, peer_type: PeerType, interface: str, address: int
    ) -> PeerDescriptor:
        session = PeerDescriptor(
            router=router_name,
            peer_asn=asn,
            peer_type=peer_type,
            interface=interface,
            address=address,
        )
        pop.add_session(session)
        registry.register(session)
        return session

    router.add_interface("tr0", transit_capacity)
    transit = _session(_SCALE_TRANSIT_ASN, PeerType.TRANSIT, "tr0", 1)
    pnis: List[PeerDescriptor] = []
    for index, capacity in enumerate(pni_capacities):
        interface = f"pni{index}"
        router.add_interface(interface, capacity)
        pnis.append(
            _session(
                _SCALE_PNI_ASN_BASE + index,
                PeerType.PRIVATE,
                interface,
                2 + index,
            )
        )
    return ScalePop(
        pop=pop,
        speakers={router_name: speaker},
        registry=registry,
        transit=transit,
        pnis=pnis,
    )

"""Seeded wire-byte generator for the three wire-fed workloads.

Everything the wire-fed PoP consumes is produced here, before any clock
starts, with the repo's own encoders: BMP streams are
``encode_bmp(RouteMonitoringMessage(PeerHeader, encode_message(UpdateMessage)))``
(one prefix per UPDATE, as :class:`repro.bmp.exporter.BmpExporter` emits
them) plus Initiation, PeerUp/PeerDown and StatisticsReport heartbeats;
traffic is ``pack_datagram(pack_flow_sample(...))`` datagrams of at most
64 samples.  The same ``--seed`` gives byte-identical corpora
(:meth:`Corpus.sha256`); the program under test sees only these bytes.

The address plan, homing and capacity sizing mirror
:class:`repro.core.scale.ScaleScenario` with the ``full_table`` preset:
each prefix has a preferred PNI route and a transit alternate, a 3 %
slice is block-homed with equal rates on two tight PNIs held at 8x
their threshold limit, and the rest round-robins eight roomy PNIs.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage, encode_message
from repro.bgp.peering import PeerDescriptor, PeerType
from repro.bgp.policy import LOCAL_PREF_BY_PEER_TYPE
from repro.bmp.messages import (
    InitiationMessage,
    PeerDownMessage,
    PeerHeader,
    PeerUpMessage,
    RouteMonitoringMessage,
    StatisticsReport,
    StatType,
    encode_bmp,
)
from repro.core.config import ControllerConfig
from repro.netbase.addr import Family, Prefix
from repro.netbase.units import Rate
from repro.sflow.agent import InterfaceIndexMap
from repro.sflow.datagram import pack_datagram, pack_flow_sample
from repro.topology.scenarios import ScalePop, build_scale_pop

CYCLE_SECONDS = 30.0
#: ``ControllerConfig.full_recompute_every``: every 16th cycle is a drift
#: rebuild.  Runs last whole epochs and storm events sit at fixed offsets
#: within one.
EPOCH = 16
#: Largest slice handed to ``BmpCollector.feed`` in one call — what one
#: socket read of the TCP frontend delivers.
BMP_CHUNK_BYTES = 64 * 1024
SAMPLES_PER_DATAGRAM = 64
#: The sFlow agent address the generated datagrams carry.
AGENT_ADDRESS = 0x0A00_0001
_FRAME_LENGTH = 1000

_PNI_COUNT = 8
_TIGHT_PNI_COUNT = 2
_TIGHT_SHARE = 0.03
_OVERLOAD = 8.0
_TIGHT_RATE_BPS = 3e7


def nth_prefix4(index: int) -> Prefix:
    """The index-th /24 of the flat plan (11.0.0.0/8 upward)."""
    address = ((11 + index // 65536) << 24) | ((index % 65536) << 8)
    return Prefix.from_address(Family.IPV4, address, 24)


def nth_prefix6(index: int) -> Prefix:
    """The index-th /48 walking up from 2600::/16."""
    address = (0x2600 << 112) | (index << 80)
    return Prefix.from_address(Family.IPV6, address, 48)


@dataclass
class Expect:
    """What one tick's bytes must do to the collectors' counters."""

    announcements: int = 0
    withdrawals: int = 0
    peer_downs: int = 0
    messages: int = 0
    samples: int = 0
    datagrams: int = 0


@dataclass
class TickInput:
    """One control period's wire input."""

    bmp: List[bytes] = field(default_factory=list)
    sflow: List[memoryview] = field(default_factory=list)
    expect: Expect = field(default_factory=Expect)
    #: "" | "collector_reset" | "controller_restart" — the one thing a
    #: tick may ask of the harness besides feeding bytes.
    event: str = ""


class WirePlan:
    """The table: prefixes, homing, rates, sessions, and their encoders."""

    def __init__(
        self, count4: int, count6: int, rng: random.Random
    ) -> None:
        self.prefixes: List[Prefix] = [
            nth_prefix4(i) for i in range(count4)
        ] + [nth_prefix6(i) for i in range(count6)]
        count = len(self.prefixes)
        self.rate_bps = [rng.uniform(2e6, 5e7) for _ in range(count)]
        self.home: List[int] = []
        for family_count, base in ((count4, 0), (count6, count4)):
            tight = int(family_count * _TIGHT_SHARE)
            for local in range(family_count):
                if local < tight:
                    self.rate_bps[base + local] = _TIGHT_RATE_BPS
                    self.home.append(local * _TIGHT_PNI_COUNT // tight)
                else:
                    self.home.append(
                        _TIGHT_PNI_COUNT + local % _PNI_COUNT
                    )
        # One host inside each prefix stands for its traffic.
        self._dst_bytes = [
            (prefix.network | 1).to_bytes(16, "big")
            for prefix in self.prefixes
        ]
        self._agent_bytes = AGENT_ADDRESS.to_bytes(16, "big")
        self._datagram_seq = 0
        self._sample_seq = 0
        self.interfaces = InterfaceIndexMap(
            ["tr0"]
            + [f"pni{n}" for n in range(_TIGHT_PNI_COUNT + _PNI_COUNT)]
        )
        # Set by size_pop(): capacities derive from the rates the
        # encoded samples carry, which integer sampling rates round.
        self.scale_pop: Optional[ScalePop] = None

    def __len__(self) -> int:
        return len(self.prefixes)

    # -- PoP sizing -----------------------------------------------------------

    def size_pop(self, effective_bps: Sequence[float]) -> None:
        """Provision PNIs against the rates the wire will actually carry."""
        pni_total = _TIGHT_PNI_COUNT + _PNI_COUNT
        loads = [0.0] * pni_total
        for index, bps in enumerate(effective_bps):
            loads[self.home[index]] += bps
        threshold = ControllerConfig().utilization_threshold
        capacities = [
            Rate(load / threshold / _OVERLOAD)
            if pni < _TIGHT_PNI_COUNT
            else Rate(load / threshold * 4.0)
            for pni, load in enumerate(loads)
        ]
        self._capacities = capacities
        self._transit_capacity = Rate(max(sum(loads) * 10.0, 1e9))
        self.scale_pop = self.build_pop()
        self._as_path = {
            peer: AsPath.sequence(peer.peer_asn, 64900)
            if peer.peer_type is PeerType.TRANSIT
            else AsPath.sequence(peer.peer_asn)
            for peer in self.peers()
        }

    def build_pop(self) -> ScalePop:
        """A fresh PoP (own speaker, own registry) of the sized shape —
        one per stack, since set-up is repeated within a process.  Its
        session descriptors equal those the bytes were encoded for."""
        return build_scale_pop(
            pni_capacities=self._capacities,
            transit_capacity=self._transit_capacity,
        )

    @property
    def router(self) -> str:
        return self.scale_pop.transit.router

    def peers(self) -> List[PeerDescriptor]:
        return [self.scale_pop.transit] + self.scale_pop.pnis

    def pni_of(self, index: int) -> PeerDescriptor:
        return self.scale_pop.pnis[self.home[index]]

    def roomy_pni(self, nth: int) -> int:
        """PNI number of the nth roomy port (rotating)."""
        return _TIGHT_PNI_COUNT + nth % _PNI_COUNT

    def prefixes_on(self, pni: int) -> List[int]:
        return [i for i, home in enumerate(self.home) if home == pni]

    # -- BMP encoders ---------------------------------------------------------

    @staticmethod
    def _header(peer: PeerDescriptor, now: float) -> PeerHeader:
        return PeerHeader(
            peer_address=peer.address,
            peer_asn=peer.peer_asn,
            peer_bgp_id=peer.address & 0xFFFFFFFF,
            family=peer.family,
            post_policy=True,
            timestamp=now,
        )

    def _next_hop(self, index: int, peer: PeerDescriptor):
        if self.prefixes[index].family is Family.IPV4:
            return (Family.IPV4, peer.address)
        return (Family.IPV6, (0xFE80 << 112) | peer.address)

    def announce(
        self,
        index: int,
        peer: PeerDescriptor,
        now: float,
        med: Optional[int] = None,
    ) -> bytes:
        """ROUTE_MONITORING announcing prefix *index* from *peer*."""
        prefix = self.prefixes[index]
        update = UpdateMessage(
            family=prefix.family,
            announced=(prefix,),
            attributes=PathAttributes(
                as_path=self._as_path[peer],
                next_hop=self._next_hop(index, peer),
                med=med,
                local_pref=LOCAL_PREF_BY_PEER_TYPE[peer.peer_type],
            ),
        )
        return encode_bmp(
            RouteMonitoringMessage(
                peer=self._header(peer, now),
                update_pdu=encode_message(update),
            )
        )

    def withdraw(
        self, index: int, peer: PeerDescriptor, now: float
    ) -> bytes:
        prefix = self.prefixes[index]
        update = UpdateMessage(family=prefix.family, withdrawn=(prefix,))
        return encode_bmp(
            RouteMonitoringMessage(
                peer=self._header(peer, now),
                update_pdu=encode_message(update),
            )
        )

    def session_open(self, now: float) -> List[bytes]:
        """What a router sends first: Initiation, then PeerUp per peer."""
        out = [encode_bmp(InitiationMessage(sys_name=self.router))]
        out += [self.peer_up(peer, now) for peer in self.peers()]
        return out

    def peer_up(self, peer: PeerDescriptor, now: float) -> bytes:
        return encode_bmp(PeerUpMessage(peer=self._header(peer, now)))

    def peer_down(self, peer: PeerDescriptor, now: float) -> bytes:
        return encode_bmp(PeerDownMessage(peer=self._header(peer, now)))

    def heartbeat(self, now: float) -> List[bytes]:
        """StatisticsReport per peer: liveness for a quiet table."""
        return [
            encode_bmp(
                StatisticsReport(
                    peer=self._header(peer, now),
                    stats=((int(StatType.ADJ_RIB_IN_ROUTES), len(self)),),
                )
            )
            for peer in self.peers()
        ]

    def full_rib(
        self, now: float, skip: Collection[int] = ()
    ) -> List[bytes]:
        """Transit + PNI route per prefix, minus withdrawn PNI routes."""
        transit = self.scale_pop.transit
        out: List[bytes] = []
        for index in range(len(self)):
            out.append(self.announce(index, transit, now))
            if index not in skip:
                out.append(self.announce(index, self.pni_of(index), now))
        return out

    # -- sFlow encoders -------------------------------------------------------

    def sample(self, index: int, sampling_rate: int) -> bytes:
        """One flow sample towards prefix *index* on its home PNI."""
        self._sample_seq += 1
        return pack_flow_sample(
            self._sample_seq,
            sampling_rate,
            self._sample_seq,  # sample pool
            0,  # drops
            0,  # input ifIndex
            self.interfaces.index_of(f"pni{self.home[index]}"),
            int(self.prefixes[index].family),
            bytes(16),
            self._dst_bytes[index],
            _FRAME_LENGTH,
            0,
        )

    def datagrams(
        self, samples: Sequence[bytes], now: float
    ) -> List[memoryview]:
        """Pack samples 64 to a datagram; views over one buffer, as the
        UDP frontend hands slices of its receive slabs."""
        encoded = []
        for start in range(0, len(samples), SAMPLES_PER_DATAGRAM):
            self._datagram_seq += 1
            encoded.append(
                pack_datagram(
                    self._agent_bytes,
                    0,
                    self._datagram_seq,
                    int(now * 1000),
                    list(samples[start : start + SAMPLES_PER_DATAGRAM]),
                )
            )
        slab = memoryview(b"".join(encoded))
        views, offset = [], 0
        for datagram in encoded:
            views.append(slab[offset : offset + len(datagram)])
            offset += len(datagram)
        return views

    def seed_samples(self, window: float) -> Tuple[List[bytes], List[float]]:
        """One sample per prefix carrying its whole-window byte count, so
        a run-long estimator window holds the drawn rate until churn
        touches it.  Returns (samples, the rates they encode)."""
        samples, effective = [], []
        for index, bps in enumerate(self.rate_bps):
            sampling_rate = max(1, round(bps * window / 8.0 / _FRAME_LENGTH))
            samples.append(self.sample(index, sampling_rate))
            effective.append(sampling_rate * _FRAME_LENGTH * 8.0 / window)
        return samples, effective


def _chunk(messages: Sequence[bytes]) -> List[bytes]:
    stream = b"".join(messages)
    return [
        stream[start : start + BMP_CHUNK_BYTES]
        for start in range(0, len(stream), BMP_CHUNK_BYTES)
    ]


@dataclass
class Corpus:
    """Everything one wire workload feeds, in feeding order."""

    plan: WirePlan
    window_seconds: float
    setup: TickInput
    ticks: List[TickInput]

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for tick in [self.setup] + self.ticks:
            for chunk in tick.bmp:
                digest.update(chunk)
            for view in tick.sflow:
                digest.update(view)
            digest.update(tick.event.encode())
        return digest.hexdigest()


def _setup_input(
    plan: WirePlan, samples: Sequence[bytes]
) -> TickInput:
    """Session open, the full-RIB dump and the first traffic window."""
    messages = plan.session_open(0.0) + plan.full_rib(0.0)
    views = plan.datagrams(samples, 0.0)
    return TickInput(
        bmp=_chunk(messages),
        sflow=views,
        expect=Expect(
            announcements=2 * len(plan),
            messages=len(messages),
            samples=len(samples),
            datagrams=len(views),
        ),
    )


def _run_long_window(ticks: int) -> float:
    """An estimator window nothing expires from during the run."""
    return (ticks + 8) * CYCLE_SECONDS


def _tick_input(
    plan: WirePlan,
    now: float,
    messages: List[bytes],
    samples: Sequence[bytes],
    expect: Expect,
    event: str = "",
) -> TickInput:
    messages = messages + plan.heartbeat(now)
    views = plan.datagrams(samples, now) if samples else []
    expect.messages = len(messages)
    expect.samples = len(samples)
    expect.datagrams = len(views)
    return TickInput(
        bmp=_chunk(messages), sflow=views, expect=expect, event=event
    )


def _bump_sample(
    plan: WirePlan, index: int, window: float, rng: random.Random
) -> bytes:
    """One sample moving prefix *index*'s windowed rate up 2-10 %."""
    bump = plan.rate_bps[index] * rng.uniform(0.02, 0.10)
    return plan.sample(
        index, max(1, round(bump * window / 8.0 / _FRAME_LENGTH))
    )


class _Flaps:
    """Stationary flapping of preferred PNI routes.

    Every tick withdraws *count* routes and re-announces the batch
    withdrawn *life* ticks earlier, so the number of withdrawn routes is
    constant once the run is *life* ticks old.  A fixed number of each
    batch (at least one) sits on the tight PNIs: every seed punches the
    same number of holes into the detoured blocks, only their positions
    differ, and the median tick averages over many positions.
    """

    def __init__(
        self, plan: WirePlan, rng: random.Random, count: int, life: int
    ) -> None:
        self._plan, self._rng, self._life = plan, rng, life
        self.tight = [
            i for i, home in enumerate(plan.home) if home < _TIGHT_PNI_COUNT
        ]
        self.roomy = [
            i for i, home in enumerate(plan.home) if home >= _TIGHT_PNI_COUNT
        ]
        self._tight_count = max(1, round(count * _TIGHT_SHARE))
        self._roomy_count = count - self._tight_count
        self._batches: Deque[List[int]] = deque()
        self.withdrawn: set = set()

    def _pick(self, pool: List[int], count: int) -> List[int]:
        picked: List[int] = []
        while len(picked) < count:
            index = pool[self._rng.randrange(len(pool))]
            if index not in self.withdrawn:
                self.withdrawn.add(index)
                picked.append(index)
        return picked

    def step(self, now: float, expect: Expect) -> List[bytes]:
        """This tick's re-announcements, then its withdrawals."""
        plan, messages = self._plan, []
        if len(self._batches) == self._life:
            for index in self._batches.popleft():
                self.withdrawn.discard(index)
                messages.append(
                    plan.announce(index, plan.pni_of(index), now)
                )
                expect.announcements += 1
        batch = self._pick(self.tight, self._tight_count) + self._pick(
            self.roomy, self._roomy_count
        )
        self._batches.append(batch)
        for index in batch:
            messages.append(plan.withdraw(index, plan.pni_of(index), now))
            expect.withdrawals += 1
        return messages


def table_churn(
    seed: int, count4: int, count6: int, ticks: int
) -> Corpus:
    """Sparse churn on a large table: per tick 1 prefix in 800 flaps its
    preferred PNI route (half withdrawals, half re-announcements of the
    routes withdrawn 8 ticks before) and 1 in 400 moves its rate by one
    sFlow sample.  The bumped prefixes are the roomy PNIs': the tight
    slice keeps its equal rates, as ``uniform_tight_rates`` intends, so
    the allocator's picks stay contiguous."""
    rng = random.Random(seed)
    plan = WirePlan(count4, count6, rng)
    window = _run_long_window(ticks)
    seeds, effective = plan.seed_samples(window)
    plan.size_pop(effective)
    setup = _setup_input(plan, seeds)
    flaps = _Flaps(plan, rng, count=max(1, len(plan) // 1600), life=8)
    bumps = max(1, len(plan) // 400)
    out = []
    for tick in range(1, ticks + 1):
        now = tick * CYCLE_SECONDS
        expect = Expect()
        messages = flaps.step(now, expect)
        samples = [
            _bump_sample(plan, index, window, rng)
            for index in rng.sample(flaps.roomy, bumps)
        ]
        out.append(_tick_input(plan, now, messages, samples, expect))
    return Corpus(plan, window, setup, out)


def sflow_flood(
    seed: int,
    count4: int,
    count6: int,
    ticks: int,
    samples_per_tick: int,
    pool: int = 8,
) -> Corpus:
    """Dense traffic on a small table: every tick a full window's worth
    of samples drawn in proportion to prefix rate, from a rotating pool
    of pre-encoded tick corpora (twice that on every 16th tick); BMP
    carries heartbeats only."""
    rng = random.Random(seed)
    plan = WirePlan(count4, count6, rng)
    window = 2 * CYCLE_SECONDS
    plan.size_pop(plan.rate_bps)
    total_bps = sum(plan.rate_bps)
    bytes_per_sample = total_bps * CYCLE_SECONDS / 8.0 / samples_per_tick
    sampling_rate = max(1, round(bytes_per_sample / _FRAME_LENGTH))
    per_prefix = [
        plan.sample(index, sampling_rate) for index in range(len(plan))
    ]
    draw = np.random.default_rng(seed)
    weights = np.asarray(plan.rate_bps) / total_bps

    def window_samples() -> List[bytes]:
        picks = draw.choice(len(plan), size=samples_per_tick, p=weights)
        return [per_prefix[index] for index in picks.tolist()]

    setup = _setup_input(plan, window_samples())
    pool_samples = [window_samples() for _ in range(pool)]
    # The pool's datagrams are encoded once and fed again every `pool`
    # ticks: only the collector's clock moves, as on a steady link.
    pool_views = [
        plan.datagrams(samples, 0.0) for samples in pool_samples
    ]
    out = []
    for tick in range(1, ticks + 1):
        now = tick * CYCLE_SECONDS
        messages = plan.heartbeat(now)
        # A burst on the drift-rebuild tick: two windows' worth, so the
        # tail tick is one the workload defines, not host noise.
        windows = 2 if tick % EPOCH == 0 else 1
        views = [
            view
            for n in range(windows)
            for view in pool_views[(tick + n) % pool]
        ]
        out.append(
            TickInput(
                bmp=_chunk(messages),
                sflow=views,
                expect=Expect(
                    messages=len(messages),
                    samples=samples_per_tick * windows,
                    datagrams=len(views),
                ),
            )
        )
    return Corpus(plan, window, setup, out)


def route_storm(
    seed: int,
    count4: int,
    count6: int,
    ticks: int,
    updates_per_tick: int,
) -> Corpus:
    """Route churn on a mid-size table: per tick half the updates are
    attribute-change re-announcements of transit alternates, a quarter
    withdrawals of preferred PNI routes and a quarter re-announcements
    of those withdrawn two ticks before; a roomy PNI goes down on every
    16th tick and comes back on the next; one collector reset with full
    re-export and one controller restart.  One datagram of rate bumps
    per tick keeps the traffic feed live."""
    rng = random.Random(seed)
    plan = WirePlan(count4, count6, rng)
    window = _run_long_window(ticks)
    seeds, effective = plan.seed_samples(window)
    plan.size_pop(effective)
    setup = _setup_input(plan, seeds)
    transit = plan.scale_pop.transit
    flaps = _Flaps(plan, rng, count=updates_per_tick // 4, life=2)
    # Offsets within an epoch keep the events off the drift rebuild
    # and off each other.
    reset_tick = (ticks // 2) // EPOCH * EPOCH + 11
    restart_tick = (3 * ticks // 4) // EPOCH * EPOCH + 3
    down: Optional[int] = None
    downs = 0
    out = []
    for tick in range(1, ticks + 1):
        now = tick * CYCLE_SECONDS
        messages, expect, event = [], Expect(), ""
        if tick == reset_tick:
            event = "collector_reset"
            messages += plan.session_open(now)
            messages += plan.full_rib(now, flaps.withdrawn)
            expect.announcements += 2 * len(plan) - len(flaps.withdrawn)
        elif tick == restart_tick:
            event = "controller_restart"
        if down is not None:
            peer = plan.scale_pop.pnis[down]
            messages.append(plan.peer_up(peer, now))
            for index in plan.prefixes_on(down):
                if index not in flaps.withdrawn:
                    messages.append(plan.announce(index, peer, now))
                    expect.announcements += 1
            down = None
        for _ in range(updates_per_tick // 2):
            messages.append(
                plan.announce(
                    rng.randrange(len(plan)),
                    transit,
                    now,
                    med=rng.randrange(1, 1000),
                )
            )
            expect.announcements += 1
        messages += flaps.step(now, expect)
        if tick % EPOCH == 6:
            down = plan.roomy_pni(downs)
            downs += 1
            messages.append(
                plan.peer_down(plan.scale_pop.pnis[down], now)
            )
            expect.peer_downs += 1
        samples = [
            _bump_sample(plan, index, window, rng)
            for index in rng.sample(flaps.roomy, SAMPLES_PER_DATAGRAM)
        ]
        out.append(
            _tick_input(plan, now, messages, samples, expect, event)
        )
    return Corpus(plan, window, setup, out)

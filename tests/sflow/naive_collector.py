"""The per-sample sFlow collector: the slow definition of ``feed_many``.

:class:`NaiveCollector` is the collector's original aggregation loop,
kept in the tests as the reference the columnar
:meth:`~repro.sflow.collector.SflowCollector.feed_many` is checked
against.  It decodes each sample with :mod:`struct`, sums
``float(frame_length * sampling_rate)`` per (router, ifIndex, AFI, dst)
key in a dict, one sample at a time, then checks, resolves and adds per
key in first-seen order.  Nothing here is fast on purpose.

One deliberate difference from the loop as it first shipped: every
count and sum is kept locally and committed at the end, so a strict
batch that raises leaves the collector unchanged (the contract the
columnar collector now keeps).
"""

import struct
from typing import Dict, Iterable, List, Tuple

from repro.netbase.addr import Family
from repro.netbase.errors import (
    DecodeError,
    MalformedMessage,
    TrafficError,
    TruncatedMessage,
)
from repro.sflow.collector import FeedStats
from repro.sflow.estimator import ColumnarRateEstimator

_HEADER = struct.Struct("!I16sIIII")
_SAMPLE = struct.Struct("!IIIIIII16s16sIB3x")


def naive_samples(data):
    """(agent address, iterator of (rate, ifIndex, AFI, dst, frame)).

    Header errors raise at the call, record errors while iterating —
    the per-sample decoder the collector used to run.
    """
    if len(data) < _HEADER.size:
        raise TruncatedMessage("sFlow datagram header truncated")
    version, agent_bytes, _sub, _seq, _uptime, count = _HEADER.unpack_from(
        data, 0
    )
    if version != 5:
        raise MalformedMessage(f"unsupported sFlow version {version}")
    if _HEADER.size + count * _SAMPLE.size != len(data):
        if _HEADER.size + count * _SAMPLE.size > len(data):
            raise TruncatedMessage("flow sample truncated")
        raise MalformedMessage("trailing bytes in sFlow datagram")

    def samples():
        offset = _HEADER.size
        for _ in range(count):
            fields = _SAMPLE.unpack_from(data, offset)
            rate, out_if, afi, dst_bytes, frame = (
                fields[1],
                fields[5],
                fields[6],
                fields[8],
                fields[9],
            )
            if rate == 0:
                raise MalformedMessage("sampling rate of zero")
            if afi not in (1, 2):
                raise MalformedMessage(f"bad record AFI {afi}")
            yield rate, out_if, afi, int.from_bytes(dst_bytes, "big"), frame
            offset += _SAMPLE.size

    return int.from_bytes(agent_bytes, "big"), samples()


class NaiveCollector:
    """Reference twin of :class:`~repro.sflow.collector.SflowCollector`
    with the same observable state and queries."""

    def __init__(self, resolver, window_seconds: float = 60.0) -> None:
        self._resolver = resolver
        self._rates: ColumnarRateEstimator = ColumnarRateEstimator(
            window_seconds
        )
        self._router_by_agent: Dict[int, str] = {}
        self._interfaces_by_router: Dict[str, object] = {}
        self.unroutable_bytes = 0.0
        self.datagrams = 0
        self.samples = 0

    def register_router(self, router, agent_address, interfaces) -> None:
        self._router_by_agent[agent_address] = router
        self._interfaces_by_router[router] = interfaces

    def feed_many(
        self, datagrams: Iterable[bytes], now: float, lenient: bool = False
    ) -> FeedStats:
        datagram_count = sample_count = 0
        decode_errors = unknown_agents = 0
        flow_bytes: Dict[Tuple[str, int, int, int], float] = {}
        for data in datagrams:
            try:
                agent_address, samples = naive_samples(data)
            except DecodeError:
                if not lenient:
                    raise
                decode_errors += 1
                continue
            router = self._router_by_agent.get(agent_address)
            if router is None:
                if not lenient:
                    raise TrafficError(
                        f"datagram from unregistered agent "
                        f"{agent_address:#x}"
                    )
                unknown_agents += 1
                continue
            try:
                decoded: List[tuple] = list(samples)
            except DecodeError:
                if not lenient:
                    raise
                decode_errors += 1
                continue
            datagram_count += 1
            for rate, out_if, afi, dst, frame_length in decoded:
                sample_count += 1
                key = (router, out_if, afi, dst)
                flow_bytes[key] = (
                    flow_bytes.get(key, 0.0) + float(frame_length * rate)
                )

        unroutable = self.unroutable_bytes
        prefix_bytes: Dict[object, float] = {}
        for (router, out_if, afi, dst), estimated in flow_bytes.items():
            try:
                self._interfaces_by_router[router].name_of(out_if)
            except TrafficError:
                if not lenient:
                    raise
                decode_errors += 1
                continue
            prefix = self._resolver(Family(afi), dst)
            if prefix is None:
                unroutable += estimated
                continue
            prefix_bytes[prefix] = prefix_bytes.get(prefix, 0.0) + estimated

        self.datagrams += datagram_count
        self.samples += sample_count
        self.unroutable_bytes = unroutable
        for prefix, estimated in prefix_bytes.items():
            self._rates.add(prefix, estimated, now)
        return FeedStats(
            datagrams=datagram_count,
            samples=sample_count,
            decode_errors=decode_errors,
            unknown_agents=unknown_agents,
        )

    def prefix_rates(self, now: float):
        return self._rates.rates(now)

    def changed_prefixes(self, since: float, now: float):
        return self._rates.changed_keys(since, now)

    def age(self, now: float) -> float:
        return self._rates.age(now)

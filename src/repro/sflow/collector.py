"""sFlow collector: samples in, per-destination-prefix rates out.

Scaling follows the sFlow standard: a sample taken at 1-in-N stands for N
packets, so its frame length contributes ``frame_length * N`` bytes to the
estimate.

Destination addresses are aggregated to *routed prefixes* via a resolver
callback — in the full pipeline that is a longest-prefix match against the
BMP collector's RIB, the same join production Edge Fabric performs between
its Scuba traffic tables and its route store.  Addresses that resolve to
no routed prefix are counted separately (``unroutable_bytes``) so tests
can assert nothing silently disappears.  Interface load is not measured
here: the controller projects it from these rates and the routes.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Set, Tuple

from ..netbase.addr import Family, Prefix
from ..netbase.errors import DecodeError, TrafficError
from ..netbase.units import Rate
from ..obs.telemetry import Telemetry
from .agent import InterfaceIndexMap
from .datagram import iter_sample_fields
from .estimator import ColumnarRateEstimator

__all__ = ["SflowCollector", "FeedStats"]


class FeedStats(NamedTuple):
    """What one :meth:`SflowCollector.feed_many` call consumed/dropped."""

    datagrams: int
    samples: int
    decode_errors: int
    unknown_agents: int

#: Resolves a destination address to the routed prefix covering it.
PrefixResolver = Callable[[Family, int], Optional[Prefix]]


class SflowCollector:
    """Aggregates sampled traffic into rate estimates."""

    def __init__(
        self,
        resolver: PrefixResolver,
        window_seconds: float = 60.0,
        telemetry: Optional[Telemetry] = None,
        change_log_limit: Optional[int] = None,
    ) -> None:
        """*change_log_limit* bounds the estimator's change log (the
        structure behind :meth:`changed_prefixes`).  The default suits
        tens-of-thousands-of-prefixes tables; full-table deployments
        must size it past one whole table refresh, or the first bulk
        seed overflows the log and parks the incremental snapshot path
        on full rebuilds for a window's worth of cycles."""
        self._resolver = resolver
        self.telemetry = telemetry or Telemetry(name="sflow")
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        self._m_datagrams = registry.counter(
            "sflow_datagrams_total", "sFlow datagrams consumed"
        )
        self._m_samples = registry.counter(
            "sflow_samples_total", "sFlow flow samples consumed"
        )
        self._m_unroutable = registry.counter(
            "sflow_unroutable_bytes_total",
            "Estimated bytes whose destination matched no routed prefix",
        )
        self._m_decode_errors = registry.counter(
            "sflow_decode_errors_total",
            "Undecodable datagrams dropped (lenient ingestion)",
        )
        self._m_unknown_agents = registry.counter(
            "sflow_unknown_agent_total",
            "Datagrams from unregistered agents dropped (lenient ingestion)",
        )
        self._interfaces_by_router: Dict[str, InterfaceIndexMap] = {}
        self._router_by_agent: Dict[int, str] = {}
        # Columnar estimator: bit-identical to RateEstimator (the
        # parity suite enforces it) with vectorized snapshots, which is
        # what makes full-table rates() affordable every cycle.
        estimator_kwargs: Dict[str, object] = {}
        if change_log_limit is not None:
            estimator_kwargs["change_log_limit"] = change_log_limit
        self._prefix_rates: ColumnarRateEstimator[Prefix] = (
            ColumnarRateEstimator(window_seconds, **estimator_kwargs)
        )
        self.unroutable_bytes = 0.0
        self.datagrams = 0
        self.samples = 0

    def register_router(
        self,
        router: str,
        agent_address: int,
        interfaces: InterfaceIndexMap,
    ) -> None:
        """Teach the collector which agent is which router."""
        self._router_by_agent[agent_address] = router
        self._interfaces_by_router[router] = interfaces

    # -- ingestion ------------------------------------------------------------

    def feed(self, data: bytes, now: float) -> None:
        """Consume one encoded datagram."""
        self.feed_many((data,), now)

    def feed_many(
        self,
        datagrams: Iterable[bytes],
        now: float,
        lenient: bool = False,
    ) -> FeedStats:
        """Consume a batch of datagrams in one aggregation pass.

        All samples of a flow share a destination and interface, so the
        batch first sums estimated bytes per (router, ifIndex, dst) key,
        then resolves each unique destination once and performs a single
        estimator add per aggregate — identical rates to sample-by-sample
        feeding (same bytes, same timestamps) at a fraction of the cost.

        With ``lenient=True`` — the socket frontends' mode, where the
        bytes come from the network rather than the in-process agents —
        undecodable datagrams and datagrams from unregistered agents are
        counted and dropped whole (no partial aggregation) instead of
        raising, and the counts come back in the :class:`FeedStats`.
        The strict default preserves exact in-process semantics:
        :class:`DecodeError` and :class:`TrafficError` propagate.
        """
        span_started = _time.perf_counter()
        datagram_count = sample_count = 0
        decode_errors = unknown_agents = 0
        unroutable_before = self.unroutable_bytes
        # (router, output ifIndex, AFI, dst address) -> estimated bytes
        flow_bytes: Dict[Tuple[str, int, int, int], float] = {}
        for data in datagrams:
            try:
                agent_address, samples = iter_sample_fields(data)
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
            if lenient:
                # Force the whole datagram to decode before any of it
                # aggregates, so a corrupt tail drops the datagram
                # cleanly rather than leaving partial contributions.
                try:
                    samples = list(samples)
                except DecodeError:
                    decode_errors += 1
                    continue
            self.datagrams += 1
            datagram_count += 1
            for rate, out_if, afi, dst, frame_length in samples:
                self.samples += 1
                sample_count += 1
                key = (router, out_if, afi, dst)
                flow_bytes[key] = (
                    flow_bytes.get(key, 0.0) + float(frame_length * rate)
                )

        prefix_bytes: Dict[Prefix, float] = {}
        for (router, out_if, afi, dst), estimated in flow_bytes.items():
            try:
                self._interfaces_by_router[router].name_of(out_if)
            except TrafficError:
                # Structurally valid sample pointing at an ifIndex the
                # router never registered: wire garbage, count and drop.
                if not lenient:
                    raise
                decode_errors += 1
                continue
            prefix = self._resolver(Family(afi), dst)
            if prefix is None:
                self.unroutable_bytes += estimated
                continue
            prefix_bytes[prefix] = prefix_bytes.get(prefix, 0.0) + estimated

        for prefix, estimated in prefix_bytes.items():
            self._prefix_rates.add(prefix, estimated, now)

        if datagram_count:
            self._m_datagrams.inc(datagram_count)
            self._m_samples.inc(sample_count)
            unroutable_delta = (
                self.unroutable_bytes - unroutable_before
            )
            if unroutable_delta:
                self._m_unroutable.inc(unroutable_delta)
            # Empty batches (a router with no flows this tick) skip the
            # span so the ring buffer holds signal, not padding.
            self._tracer.record(
                "sflow.collect",
                span_started,
                _time.perf_counter() - span_started,
                {"datagrams": datagram_count, "samples": sample_count},
            )
        if decode_errors:
            self._m_decode_errors.inc(decode_errors)
        if unknown_agents:
            self._m_unknown_agents.inc(unknown_agents)
        return FeedStats(
            datagrams=datagram_count,
            samples=sample_count,
            decode_errors=decode_errors,
            unknown_agents=unknown_agents,
        )

    def add_estimate(
        self, prefix: Prefix, byte_count: float, now: float
    ) -> None:
        """Feed one pre-aggregated byte estimate, bypassing the codec.

        Synthetic-scale harnesses use this to drive the same estimator
        ``feed_many`` drives — identical rate arithmetic — without
        paying wire encode/decode for tens of thousands of prefixes per
        tick.
        """
        self._prefix_rates.add(prefix, byte_count, now)
        self.samples += 1

    # -- queries -------------------------------------------------------------------

    def prefix_rate(self, prefix: Prefix, now: float) -> Rate:
        return self._prefix_rates.rate(prefix, now)

    def prefix_rates(self, now: float) -> Dict[Prefix, Rate]:
        """Every prefix with measured traffic and its current rate."""
        return self._prefix_rates.rates(now)

    def changed_prefixes(
        self, since: float, now: float
    ) -> Optional[Set[Prefix]]:
        """Prefixes whose measured rate may differ between two instants.

        Delegates to the per-prefix estimator's add-log (see
        :meth:`RateEstimator.changed_keys`); ``None`` means the delta
        can't be derived and the caller must take a full snapshot.
        """
        return self._prefix_rates.changed_keys(since, now)

    # -- health -------------------------------------------------------------------

    def age(self, now: float) -> float:
        """Seconds since any traffic measurement arrived.

        ``inf`` before the first sample — a collector that has never
        heard traffic is maximally stale, the same convention as
        :meth:`repro.bmp.collector.BmpCollector.age`.
        """
        return self._prefix_rates.age(now)

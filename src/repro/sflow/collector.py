"""sFlow collector: samples in, per-destination-prefix rates out.

Scaling follows the sFlow standard: a sample taken at 1-in-N stands for N
packets, so its frame length contributes ``frame_length * N`` bytes to the
estimate.

Ingest is columnar, with no Python work per sample.  A batch's sample
bodies are copied, a bounded chunk at a time, into one per-call buffer
and read as :data:`~repro.sflow.datagram.SAMPLE_DTYPE` records.  The
records are checked vectorised and grouped exactly on (router, output
ifIndex, AFI, destination) by an integer sort, and each group's
estimated bytes are summed in arrival order.  Only then does Python
work per *unique* key: the interface check, the prefix resolution and
one estimator add per prefix, in first-seen order.

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
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from ..netbase.addr import Family, Prefix
from ..netbase.errors import DecodeError, TrafficError
from ..netbase.units import Rate
from ..obs.telemetry import Telemetry
from .agent import InterfaceIndexMap
from .datagram import (
    HEADER_LEN,
    SAMPLE_DTYPE,
    bad_records,
    decode_header,
    record_error,
)
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

#: Records decoded and grouped per pass.  The record buffer holds this
#: many (more only for a single larger datagram), so a batch's
#: temporaries stay flat however large the batch is.
CHUNK_RECORDS = 8192

_RECORD_LEN = SAMPLE_DTYPE.itemsize
#: A group key's first lane packs ``router << 33 | ifIndex << 1 | v6``;
#: the destination's two 64-bit lanes are the other two.
_ROUTER_SHIFT = 33
#: One key's three lanes as a single 24-byte value: its exact bytes
#: are the dict key that maps a chunk's groups onto the batch's.
_KEY_BYTES = np.dtype("V24")
_FAMILY_BY_BIT = (Family.IPV4, Family.IPV6)


def _contiguous_groups(
    lane: np.ndarray, hi: np.ndarray, lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """An order that makes equal (lane, hi, lo) keys contiguous — an
    exact three-column integer sort — and the mask of the positions in
    that order where a new key starts.

    The keys come out as ``np.lexsort((lo, hi, lane))`` orders them,
    one least-significant-first pass per column.  Only the later passes
    must be stable, so the first runs numpy's faster unstable sort
    (equal keys may land in any order among themselves).
    """
    order = np.argsort(lo)
    order = order[np.argsort(hi[order], kind="stable")]
    order = order[np.argsort(lane[order], kind="stable")]
    lane, hi, lo = lane[order], hi[order], lo[order]
    head = np.empty(len(order), dtype=bool)
    head[0] = True
    np.not_equal(lo[1:], lo[:-1], out=head[1:])
    head[1:] |= (lane[1:] != lane[:-1]) | (hi[1:] != hi[:-1])
    return order, head


class _Batch:
    """One ``feed_many`` call's decoded samples, grouped exactly.

    ``keys`` maps each key — its (lane, dst_hi, dst_lo) as 24 native
    bytes — to its group id, in first-seen order.  ``sums[gid]`` is that
    group's estimated bytes, summed sample by sample in arrival order:
    the same float additions, in the same order, as a per-sample
    ``total += float(frame * rate)``.
    """

    __slots__ = (
        "keys",
        "sums",
        "routers",
        "datagrams",
        "samples",
        "decode_errors",
        "unknown_agents",
    )

    def __init__(self) -> None:
        self.keys: Dict[bytes, int] = {}
        self.sums = np.zeros(0, dtype=np.float64)
        #: Router name -> its id in the key lane, in first-seen order.
        self.routers: Dict[str, int] = {}
        self.datagrams = self.samples = 0
        self.decode_errors = self.unknown_agents = 0

    def group(self, records: np.ndarray, owners: np.ndarray) -> None:
        """Fold one chunk of checked records (``owners``: router id per
        record) into the running per-key sums."""
        lane = records["output_ifindex"].astype(np.uint64)
        lane <<= 1
        lane |= records["afi"] >> 1
        lane |= owners << _ROUTER_SHIFT
        hi = records["dst_hi"].astype(np.uint64)
        lo = records["dst_lo"].astype(np.uint64)
        # u32 x u32 is exact in u64; the cast to f64 rounds once, as
        # Python's float(frame * rate) does.
        estimated = records["frame_length"].astype(np.uint64)
        estimated *= records["sampling_rate"]
        order, head = _contiguous_groups(lane, hi, lo)
        # Chunk-local group of every record, back in arrival order.
        local = np.empty(len(order), dtype=np.intp)
        local[order] = np.cumsum(head) - 1
        heads = np.flatnonzero(head)
        members = order[heads]  # one record of each group
        table = np.empty((len(heads), 3), dtype=np.uint64)
        table[:, 0] = lane[members]
        table[:, 1] = hi[members]
        table[:, 2] = lo[members]
        blobs = table.view(_KEY_BYTES).ravel().tolist()
        keys = self.keys
        gids = list(map(keys.get, blobs))
        if None in gids:
            # New keys enter ``keys`` in order of their first arrival.
            first = np.minimum.reduceat(order, heads)
            for group in np.argsort(first).tolist():
                if gids[group] is None:
                    gids[group] = keys[blobs[group]] = len(keys)
        if len(keys) > len(self.sums):
            grown = np.zeros(max(len(keys), 2 * len(self.sums)))
            grown[: len(self.sums)] = self.sums
            self.sums = grown
        # Unbuffered and in index order: each key's running sum takes
        # this chunk's samples one by one, in arrival order.
        np.add.at(
            self.sums,
            np.array(gids, dtype=np.intp)[local],
            estimated.astype(np.float64),
        )

    def check_and_group(
        self,
        buffer: memoryview,
        filled: int,
        owners: List[int],
        counts: List[int],
        lenient: bool,
    ) -> None:
        """Check the first *filled* bytes of *buffer*, the records of *counts*
        datagrams, and group the ones that pass; a lenient batch drops each
        datagram holding a bad record whole, a strict one raises for the
        first."""
        if not counts:
            return
        records = np.frombuffer(buffer, SAMPLE_DTYPE, filled // _RECORD_LEN)
        sizes = np.array(counts, dtype=np.intp)
        routers = np.array(owners, dtype=np.uint64)
        bad = bad_records(records)
        if bad.any():
            if not lenient:
                raise record_error(records[int(bad.argmax())])
            keep = np.ones(len(sizes), dtype=bool)
            keep[
                np.searchsorted(
                    np.cumsum(sizes), np.flatnonzero(bad), side="right"
                )
            ] = False
            self.decode_errors += len(keep) - int(keep.sum())
            records = records[np.repeat(keep, sizes)]
            sizes, routers = sizes[keep], routers[keep]
        self.datagrams += len(sizes)
        self.samples += len(records)
        if len(records):
            self.group(records, np.repeat(routers, sizes))


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

        The batch's records are checked and grouped as arrays (see the
        module docstring): estimated bytes are summed per exact
        (router, ifIndex, AFI, dst) key in arrival order, then each
        unique key is checked against the router's interfaces and
        resolved once, in first-seen order, and each prefix gets one
        estimator add — the same float additions, in the same order, as
        feeding sample by sample.

        With ``lenient=True`` — the socket frontends' mode, where the
        bytes come from the network rather than the in-process agents —
        undecodable datagrams and datagrams from unregistered agents are
        counted and dropped whole (no partial aggregation) instead of
        raising, and the counts come back in the :class:`FeedStats`.
        The strict default preserves exact in-process semantics:
        :class:`DecodeError` and :class:`TrafficError` propagate, for
        the first offending datagram in batch order, and the whole batch
        is checked before anything is counted, so a raise leaves the
        collector as it was.
        """
        span_started = _time.perf_counter()
        batch = self._decode(datagrams, lenient)
        decode_errors = batch.decode_errors
        unroutable_before = unroutable = self.unroutable_bytes
        interfaces, routers = self._interfaces_by_router, list(batch.routers)
        prefix_bytes: Dict[Prefix, float] = {}
        table = np.frombuffer(b"".join(batch.keys), dtype=np.uint64)
        for (lane, hi, lo), estimated in zip(
            table.reshape(-1, 3).tolist(), batch.sums.tolist()
        ):
            try:
                interfaces[routers[lane >> _ROUTER_SHIFT]].name_of(
                    (lane >> 1) & 0xFFFFFFFF
                )
            except TrafficError:
                # Structurally valid sample pointing at an ifIndex the
                # router never registered: wire garbage, count and drop.
                if not lenient:
                    raise
                decode_errors += 1
                continue
            prefix = self._resolver(_FAMILY_BY_BIT[lane & 1], (hi << 64) | lo)
            if prefix is None:
                unroutable += estimated
                continue
            prefix_bytes[prefix] = prefix_bytes.get(prefix, 0.0) + estimated

        # Nothing above touched the collector: a strict raise leaves it
        # as it was.
        self.datagrams += batch.datagrams
        self.samples += batch.samples
        self.unroutable_bytes = unroutable
        for prefix, estimated in prefix_bytes.items():
            self._prefix_rates.add(prefix, estimated, now)

        if batch.datagrams:
            self._m_datagrams.inc(batch.datagrams)
            self._m_samples.inc(batch.samples)
            unroutable_delta = unroutable - unroutable_before
            if unroutable_delta:
                self._m_unroutable.inc(unroutable_delta)
            # Empty batches (a router with no flows this tick) skip the
            # span so the ring buffer holds signal, not padding.
            self._tracer.record(
                "sflow.collect",
                span_started,
                _time.perf_counter() - span_started,
                {"datagrams": batch.datagrams, "samples": batch.samples},
            )
        if decode_errors:
            self._m_decode_errors.inc(decode_errors)
        if batch.unknown_agents:
            self._m_unknown_agents.inc(batch.unknown_agents)
        return FeedStats(
            datagrams=batch.datagrams,
            samples=batch.samples,
            decode_errors=decode_errors,
            unknown_agents=batch.unknown_agents,
        )

    def _decode(self, datagrams: Iterable[bytes], lenient: bool) -> _Batch:
        """Header-check every datagram and group its records, chunk by
        chunk, into a :class:`_Batch` (the collector is not touched).

        Strict mode raises for the first offending datagram in batch
        order: pending records are checked before a later datagram's
        header or agent error is raised.
        """
        batch = _Batch()
        routers = batch.routers
        # Record bodies of the current chunk.  The buffer lives for this
        # call only: held across calls, it would pin the heap around it.
        buffer = memoryview(bytearray())
        owners: List[int] = []
        counts: List[int] = []
        filled = 0  # bytes of record bodies buffered
        for data in datagrams:
            try:
                agent_address, _sub, _sequence, _uptime, count = (
                    decode_header(data)
                )
            except DecodeError:
                if not lenient:
                    batch.check_and_group(buffer, filled, owners, counts, False)
                    raise
                batch.decode_errors += 1
                continue
            router = self._router_by_agent.get(agent_address)
            if router is None:
                if not lenient:
                    batch.check_and_group(buffer, filled, owners, counts, False)
                    raise TrafficError(
                        f"datagram from unregistered agent "
                        f"{agent_address:#x}"
                    )
                batch.unknown_agents += 1
                continue
            size = count * _RECORD_LEN
            if filled + size > len(buffer):
                batch.check_and_group(buffer, filled, owners, counts, lenient)
                filled = 0
                owners, counts = [], []
                if size > len(buffer):
                    buffer = memoryview(
                        bytearray(max(size, CHUNK_RECORDS * _RECORD_LEN))
                    )
            buffer[filled : filled + size] = memoryview(data)[HEADER_LEN:]
            filled += size
            owners.append(routers.setdefault(router, len(routers)))
            counts.append(count)
        batch.check_and_group(buffer, filled, owners, counts, lenient)
        return batch


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

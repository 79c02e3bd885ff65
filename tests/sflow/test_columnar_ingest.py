"""Columnar sFlow ingest: record layout, strict atomicity, and equivalence
with the per-sample reference in :mod:`tests.sflow.naive_collector`."""

import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase.addr import Family, Prefix
from repro.netbase.errors import DecodeError, MalformedMessage, TrafficError
from repro.sflow import collector as collector_module
from repro.sflow.agent import InterfaceIndexMap
from repro.sflow.collector import SflowCollector
from repro.sflow.datagram import (
    _SAMPLE,
    SAMPLE_DTYPE,
    iter_sample_fields,
    pack_datagram,
    pack_flow_sample,
)
from tests.io.test_fuzz_decode import mutate
from tests.sflow.naive_collector import NaiveCollector, naive_samples

U32_MAX = 2**32 - 1

V4_NET = Prefix.parse("10.0.0.0/8")
V6_NET = Prefix.parse("2001:db8::/32")
V6_HI = 0x20010DB8 << 32  # high 64-bit lane of 2001:db8::/64


def resolver(family, address):
    """/24s inside 10/8 and /48s inside 2001:db8::/32; the rest is
    unroutable (including AFI-1 records whose address is not 32-bit)."""
    if address >> family.max_length:
        return None
    if family is Family.IPV4 and V4_NET.contains_address(family, address):
        return Prefix.from_address(family, address, 24)
    if family is Family.IPV6 and V6_NET.contains_address(family, address):
        return Prefix.from_address(family, address, 48)
    return None


def v4(text):
    a, b, c, d = (int(part) for part in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


#: (AFI, 128-bit destination) pool.  It mixes routable and unroutable
#: v4 and v6 destinations, several hosts per prefix, v6 addresses that
#: share a low lane, destinations whose ``hi ^ lo`` folds collide (with
#: each other and with a v4 address), and one value under both AFIs.
DESTINATIONS = [
    (1, v4("10.1.2.3")),
    (1, v4("10.1.2.77")),
    (1, v4("10.9.0.1")),
    (1, v4("192.0.2.1")),
    (2, (V6_HI << 64) | 1),
    (2, ((V6_HI | 0x10000) << 64) | 1),
    (2, ((V6_HI | 0x10000) << 64) | 5),
    (2, (0x3FFE << 112) | 1),
    (2, (V6_HI << 64) | (v4("10.1.2.3") ^ V6_HI)),
    (2, ((V6_HI | 7) << 64) | (0x1234 ^ 7)),
    (2, ((V6_HI | 9) << 64) | (0x1234 ^ 9)),
    (1, (V6_HI << 64) | 1),
    (1, 0),
]

#: agent address -> router; the last agent is never registered.
AGENTS = [(0x0A000001, "r1"), (0x0A000002, "r2"), (0x0A000003, "r1")]
UNKNOWN_AGENT = 0x0A0000FF
R1_INTERFACES = InterfaceIndexMap(["et0", "et1"])
R2_INTERFACES = InterfaceIndexMap(["et0"])


def register(collector):
    for agent, router in AGENTS:
        collector.register_router(
            router,
            agent,
            R1_INTERFACES if router == "r1" else R2_INTERFACES,
        )
    return collector


def record(afi, dst, ifindex=1, rate=4096, frame=1500):
    return pack_flow_sample(
        1, rate, 7, 0, 0, ifindex, afi, bytes(16),
        dst.to_bytes(16, "big"), frame, 0,
    )


def datagram(agent, records):
    return pack_datagram(agent.to_bytes(16, "big"), 0, 1, 0, list(records))


samples_st = st.builds(
    lambda dst, ifindex, rate, frame, fault: record(
        fault[1] if fault and fault[0] == "afi" else dst[0],
        dst[1],
        ifindex,
        0 if fault and fault[0] == "rate" else rate,
        frame,
    ),
    st.sampled_from(DESTINATIONS),
    st.sampled_from([1, 1, 2, 3]),
    st.one_of(
        st.sampled_from([1, 4096, U32_MAX]),
        st.integers(1, U32_MAX),
    ),
    st.one_of(
        st.sampled_from([64, 1500, U32_MAX]),
        st.integers(0, 9000),
        st.integers(0, U32_MAX),
    ),
    st.one_of(
        st.none(),
        st.none(),
        st.none(),
        st.tuples(st.just("rate"), st.just(0)),
        st.tuples(st.just("afi"), st.sampled_from([0, 3, 10])),
    ),
)

#: A datagram's records, repeated so that keys recur within and across
#: chunks (where summation order shows).
records_st = st.builds(
    lambda records, repeat: records * repeat,
    st.lists(samples_st, max_size=4),
    st.integers(1, 3),
)

datagrams_st = st.builds(
    lambda agent, records, mutation: (
        datagram(agent, records)
        if mutation is None
        else mutate(random.Random(mutation), datagram(agent, records))
    ),
    st.sampled_from([agent for agent, _ in AGENTS] + [UNKNOWN_AGENT]),
    records_st,
    st.one_of(st.none(), st.none(), st.none(), st.integers(0, 2**32)),
)


def outcome(collector, batch, now, lenient):
    try:
        return ("fed", collector.feed_many(batch, now, lenient=lenient))
    except (DecodeError, TrafficError) as exc:
        return ("raised", type(exc), str(exc))


def counts_and_rates(collector, now):
    """Counters, sums and rates, bit for bit; rates in the estimator's
    slot order, which is the order prefixes were first added."""
    return (
        collector.datagrams,
        collector.samples,
        collector.unroutable_bytes.hex(),
        [
            (prefix, rate.bits_per_second.hex())
            for prefix, rate in collector.prefix_rates(now).items()
        ],
        collector.age(now),
    )


class LoggingResolver:
    """:func:`resolver`, recording every call in order."""

    def __init__(self):
        self.calls = []

    def __call__(self, family, address):
        self.calls.append((family, address))
        return resolver(family, address)


def state(collector, since, now):
    """Every observable, ``changed_prefixes`` included (a query that
    advances the change watermark, so call it once per instant)."""
    return (
        counts_and_rates(collector, now),
        collector.changed_prefixes(since, now),
    )


class TestEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        batches=st.lists(
            st.lists(datagrams_st, max_size=10), min_size=1, max_size=3
        ),
        lenient=st.booleans(),
        chunk=st.sampled_from([1, 2, 5, 8192]),
    )
    def test_matches_per_sample_reference(self, batches, lenient, chunk):
        fast_resolver, slow_resolver = LoggingResolver(), LoggingResolver()
        with mock.patch.object(collector_module, "CHUNK_RECORDS", chunk):
            fast = register(SflowCollector(fast_resolver, window_seconds=2.5))
            slow = register(NaiveCollector(slow_resolver, window_seconds=2.5))
            since = 0.0
            for tick, batch in enumerate(batches, start=1):
                now = float(tick)
                assert outcome(fast, batch, now, lenient) == outcome(
                    slow, batch, now, lenient
                )
                assert state(fast, since, now) == state(slow, since, now)
                # Unique keys are resolved once each, in first-seen order.
                assert fast_resolver.calls == slow_resolver.calls
                since = now

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.integers(1, U32_MAX), st.integers(0, U32_MAX)),
            min_size=1,
            max_size=40,
        ),
        per_datagram=st.integers(1, 5),
        chunk=st.integers(1, 7),
    )
    def test_one_key_sums_in_arrival_order(self, values, per_datagram, chunk):
        """Inexact float sums of one key, split over datagrams and chunks,
        round exactly as the per-sample running total does."""
        records = [
            record(1, v4("192.0.2.1"), rate=rate, frame=frame)
            for rate, frame in values
        ]
        batch = [
            datagram(0x0A000001, records[start : start + per_datagram])
            for start in range(0, len(records), per_datagram)
        ]
        with mock.patch.object(collector_module, "CHUNK_RECORDS", chunk):
            fast = register(SflowCollector(resolver))
            fast.feed_many(batch, 1.0)
        slow = register(NaiveCollector(resolver))
        slow.feed_many(batch, 1.0)
        assert fast.unroutable_bytes.hex() == slow.unroutable_bytes.hex()

    def test_shared_lanes_and_colliding_folds_stay_apart(self):
        """Keys that agree on the low lane or on ``hi ^ lo``, and one
        destination through two interfaces, are separate groups."""
        records = [
            record(afi, dst, ifindex, rate=1000 + index)
            for index, (afi, dst) in enumerate(DESTINATIONS)
            for ifindex in (1, 2)
        ]
        batch = [
            datagram(0x0A000001, records),
            datagram(0x0A000002, [record(1, v4("10.1.2.3"))]),
        ]
        fast = register(SflowCollector(resolver))
        slow = register(NaiveCollector(resolver))
        assert fast.feed_many(batch, 1.0) == slow.feed_many(batch, 1.0)
        assert state(fast, 0.0, 1.0) == state(slow, 0.0, 1.0)


    def test_sums_run_in_arrival_order_across_chunks(self):
        """2**53 + 1 + 1 is 2**53 summed left to right but 2**53 + 2 if
        the two 1s are added together first, as a per-chunk subtotal
        would: each key's sum must carry over chunk boundaries."""
        big = record(1, v4("192.0.2.1"), rate=2**26, frame=2**27)
        one = record(1, v4("192.0.2.1"), rate=1, frame=1)
        batch = [
            datagram(0x0A000001, [record(1, v4("10.1.2.3")), big]),
            datagram(0x0A000001, [one, one]),
        ]
        with mock.patch.object(collector_module, "CHUNK_RECORDS", 2):
            collector = register(SflowCollector(resolver))
            collector.feed_many(batch, 1.0)
        assert collector.unroutable_bytes == float(2**53)


class TestStrictBatchIsAtomic:
    @pytest.mark.parametrize(
        "bad",
        [
            datagram(0x0A000001, [record(1, v4("10.1.2.3"), rate=0)]),
            datagram(0x0A000001, [record(3, v4("10.1.2.3"))]),
            datagram(UNKNOWN_AGENT, [record(1, v4("10.1.2.3"))]),
            datagram(0x0A000002, [record(1, v4("10.1.2.3"), ifindex=2)]),
            datagram(0x0A000001, [record(1, v4("10.1.2.3"))])[:-1],
        ],
        ids=["zero-rate", "bad-afi", "unknown-agent", "bad-ifindex", "short"],
    )
    def test_raise_leaves_collector_unchanged(self, bad):
        collector = register(SflowCollector(resolver))
        collector.feed_many(
            [datagram(0x0A000001, [record(1, v4("10.9.0.1"))])], 0.0
        )
        good = [
            datagram(0x0A000001, [record(1, v4("10.1.2.3"))] * 3),
            datagram(0x0A000002, [record(1, v4("192.0.2.1"))]),
        ]
        before = counts_and_rates(collector, 1.0)
        with pytest.raises((DecodeError, TrafficError)):
            collector.feed_many(good + [bad], 1.0)
        assert counts_and_rates(collector, 1.0) == before
        assert collector.unroutable_bytes == 0.0

    def test_first_offending_datagram_wins(self):
        """Strict mode reports the earliest bad datagram in batch order,
        even when its records are still buffered for a later check."""
        batch = [
            datagram(0x0A000001, [record(1, v4("10.1.2.3"), rate=0)]),
            datagram(UNKNOWN_AGENT, [record(1, v4("10.1.2.3"))]),
        ]
        collector = register(SflowCollector(resolver))
        with pytest.raises(MalformedMessage, match="sampling rate of zero"):
            collector.feed_many(batch, 1.0)


class TestRecordLayout:
    def test_dtype_matches_struct_layout(self):
        assert SAMPLE_DTYPE.itemsize == _SAMPLE.size == 68
        codes = _SAMPLE.format.lstrip("!")
        # struct offset of each field: the size of the format before it.
        offsets = []
        prefix = ""
        for code in ["I"] * 7 + ["16s", "16s", "I", "B"]:
            offsets.append(struct.calcsize("!" + prefix))
            prefix += code
        assert codes == prefix + "3x"
        names = [
            "sequence", "sampling_rate", "sample_pool", "drops",
            "input_ifindex", "output_ifindex", "afi", "src_hi", "dst_hi",
            "frame_length", "dscp",
        ]
        for name, offset in zip(names, offsets):
            assert SAMPLE_DTYPE.fields[name][1] == offset, name
        assert SAMPLE_DTYPE.fields["src_lo"][1] == offsets[7] + 8
        assert SAMPLE_DTYPE.fields["dst_lo"][1] == offsets[8] + 8

    def test_packed_records_read_back(self):
        src = (0x20010DB8 << 96) | 0xABCDEF
        dst = (0xFEDCBA98 << 96) | (U32_MAX << 32) | 0x01020304
        fields = dict(
            sequence=U32_MAX,
            sampling_rate=U32_MAX,
            sample_pool=123,
            drops=4,
            input_ifindex=5,
            output_ifindex=6,
            afi=2,
            frame_length=U32_MAX,
            dscp=46,
        )
        encoded = pack_flow_sample(
            fields["sequence"], fields["sampling_rate"],
            fields["sample_pool"], fields["drops"], fields["input_ifindex"],
            fields["output_ifindex"], fields["afi"], src.to_bytes(16, "big"),
            dst.to_bytes(16, "big"), fields["frame_length"], fields["dscp"],
        )
        (row,) = np.frombuffer(encoded, SAMPLE_DTYPE)
        for name, value in fields.items():
            assert int(row[name]) == value, name
        assert (int(row["src_hi"]) << 64) | int(row["src_lo"]) == src
        assert (int(row["dst_hi"]) << 64) | int(row["dst_lo"]) == dst
        product = np.uint64(row["frame_length"]) * np.uint64(
            row["sampling_rate"]
        )
        assert float(product) == float(U32_MAX * U32_MAX)

    def test_extreme_product_reaches_the_estimate(self):
        """rate = frame = 2**32 - 1: the u64 product cast to float64 is
        Python's ``float(frame * rate)``, in the collector's sums too."""
        batch = [
            datagram(
                0x0A000001,
                [record(1, v4("192.0.2.1"), rate=U32_MAX, frame=U32_MAX)] * 2,
            )
        ]
        collector = register(SflowCollector(resolver))
        collector.feed_many(batch, 1.0)
        expected = float(U32_MAX * U32_MAX)
        assert collector.unroutable_bytes == expected + expected

    def test_iterator_agrees_with_reference_decoder(self):
        data = datagram(
            0x0A000001,
            [record(afi, dst, 2, 77, 1400) for afi, dst in DESTINATIONS],
        )
        agent, samples = iter_sample_fields(data)
        ref_agent, ref_samples = naive_samples(data)
        assert agent == ref_agent
        assert list(samples) == list(ref_samples)

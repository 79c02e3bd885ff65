"""sFlow v5-style datagram codec.

Peering routers sample 1-in-N packets on their egress interfaces and ship
the samples to a collector, which scales the samples back up to estimate
per-destination traffic rates — the paper's traffic input.

The framing follows sFlow v5 (datagram header, flow samples with sequence
numbers, sampling rate, sample pool, interface indices).  The sampled
packet payload is a compact fixed-layout record carrying what the
simulation's "packets" contain — family, source and destination address,
frame length, DSCP — standing in for the raw Ethernet header a production
agent would excerpt.  All scaling semantics (rate, pool, drops) are
faithful, which is what matters to estimator accuracy.

Every flow sample is one fixed 68-byte record, so the decode side is
columnar: :func:`decode_header` parses and length-checks a datagram's
header with :mod:`struct`, and the sample bodies are read as arrays of
:data:`SAMPLE_DTYPE` — the one record layout, big-endian, with the
destination split into ``dst_hi``/``dst_lo`` 64-bit lanes — and checked
in one vectorised pass by :func:`bad_records`.  The collector decodes a
whole batch that way; :func:`iter_sample_fields` (tuples) and
:meth:`SflowDatagram.decode` (objects) are thin per-datagram readers over
the same dtype and checks.  Encoding runs on precompiled
:class:`struct.Struct` templates (:func:`pack_flow_sample`,
:func:`pack_datagram`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..netbase.addr import Family
from ..netbase.errors import MalformedMessage, TruncatedMessage

__all__ = [
    "PacketRecord",
    "FlowSample",
    "SflowDatagram",
    "SFLOW_VERSION",
    "SAMPLE_DTYPE",
    "pack_flow_sample",
    "pack_datagram",
    "iter_sample_fields",
    "datagram_meta",
]

SFLOW_VERSION = 5

#: Datagram header: version, agent address (16B), sub-agent id,
#: sequence, uptime (ms), sample count.
_HEADER = struct.Struct("!I16sIIII")
#: One flat flow sample: sequence, sampling rate, sample pool, drops,
#: input ifIndex, output ifIndex, AFI, src (16B), dst (16B), frame
#: length, DSCP + 3 pad bytes.
_SAMPLE = struct.Struct("!IIIIIII16s16sIB3x")
_SAMPLE_LEN = _SAMPLE.size  # 68
_U32 = struct.Struct("!I")
#: Byte offset of the first flow sample in a datagram.
HEADER_LEN = _HEADER.size  # 36

#: The flow-sample record of :data:`_SAMPLE` as a numpy structured
#: dtype, so a run of samples reads as one array.  The 16-byte
#: addresses are split into big-endian high/low 64-bit lanes; the
#: DSCP byte is followed by 3 pad bytes.
SAMPLE_DTYPE = np.dtype(
    {
        "names": [
            "sequence",
            "sampling_rate",
            "sample_pool",
            "drops",
            "input_ifindex",
            "output_ifindex",
            "afi",
            "src_hi",
            "src_lo",
            "dst_hi",
            "dst_lo",
            "frame_length",
            "dscp",
        ],
        "formats": [">u4"] * 7 + [">u8"] * 4 + [">u4", "u1"],
        "offsets": [0, 4, 8, 12, 16, 20, 24, 28, 36, 44, 52, 60, 64],
        "itemsize": _SAMPLE_LEN,
    }
)


def pack_flow_sample(
    sequence: int,
    sampling_rate: int,
    sample_pool: int,
    drops: int,
    input_ifindex: int,
    output_ifindex: int,
    family: int,
    src_bytes: bytes,
    dst_bytes: bytes,
    frame_length: int,
    dscp: int,
) -> bytes:
    """Flat fast-path encoder for one flow sample (no dataclasses)."""
    return _SAMPLE.pack(
        sequence,
        sampling_rate,
        sample_pool,
        drops,
        input_ifindex,
        output_ifindex,
        family,
        src_bytes,
        dst_bytes,
        frame_length,
        dscp,
    )


def pack_datagram(
    agent_address_bytes: bytes,
    sub_agent_id: int,
    sequence: int,
    uptime_ms: int,
    encoded_samples: List[bytes],
) -> bytes:
    """Assemble a datagram from already-encoded samples in one pass."""
    return _HEADER.pack(
        SFLOW_VERSION,
        agent_address_bytes,
        sub_agent_id,
        sequence,
        uptime_ms,
        len(encoded_samples),
    ) + b"".join(encoded_samples)


def decode_header(data) -> Tuple[int, int, int, int, int]:
    """Header decode and framing check: (agent address, sub-agent id,
    sequence, uptime in ms, sample count).

    Raises :class:`DecodeError` on a short header, a foreign version,
    or a length that is not exactly the header plus *count* 68-byte
    samples — so a garbage count field can never drive a read past the
    datagram.  The samples themselves are :data:`SAMPLE_DTYPE` records
    starting at :data:`HEADER_LEN`.  Accepts ``bytes`` or a
    ``memoryview`` over a receive buffer.
    """
    if len(data) < _HEADER.size:
        raise TruncatedMessage("sFlow datagram header truncated")
    version, agent_bytes, sub_agent_id, sequence, uptime_ms, count = (
        _HEADER.unpack_from(data, 0)
    )
    if version != SFLOW_VERSION:
        raise MalformedMessage(f"unsupported sFlow version {version}")
    if _HEADER.size + count * _SAMPLE_LEN != len(data):
        if _HEADER.size + count * _SAMPLE_LEN > len(data):
            raise TruncatedMessage("flow sample truncated")
        raise MalformedMessage("trailing bytes in sFlow datagram")
    agent_address = int.from_bytes(agent_bytes, "big")
    return agent_address, sub_agent_id, sequence, uptime_ms, count


def bad_records(records: np.ndarray) -> np.ndarray:
    """Mask of the :data:`SAMPLE_DTYPE` records the format forbids: a
    zero sampling rate, or an AFI other than 1 (IPv4) or 2 (IPv6)."""
    afi = records["afi"]
    return (records["sampling_rate"] == 0) | ((afi != 1) & (afi != 2))


def record_error(record) -> MalformedMessage:
    """The error one record :func:`bad_records` flags is reported as."""
    if record["sampling_rate"] == 0:
        return MalformedMessage("sampling rate of zero")
    return MalformedMessage(f"bad record AFI {int(record['afi'])}")


def _checked_records(data, count: int) -> np.ndarray:
    """The *count* records of a header-checked datagram; raises for the
    first one :func:`bad_records` flags."""
    records = np.frombuffer(data, SAMPLE_DTYPE, count, _HEADER.size)
    bad = bad_records(records)
    if bad.any():
        raise record_error(records[int(bad.argmax())])
    return records


def iter_sample_fields(
    data,
) -> Tuple[int, Iterator[Tuple[int, int, int, int, int]]]:
    """Per-datagram decode: (agent address, iterator of sample tuples).

    Each yielded tuple is (sampling rate, output ifIndex, AFI,
    destination address, frame length).  Header errors raise at the
    call; a malformed record raises :class:`MalformedMessage` on the
    first ``next``, before any sample is yielded.  The checks are the
    collector's: :func:`decode_header` and :func:`bad_records` over
    :data:`SAMPLE_DTYPE`.

    *data* may be ``bytes`` or a ``memoryview`` over a receive buffer.
    """
    agent_address, _sub, _sequence, _uptime, count = decode_header(data)

    def samples() -> Iterator[Tuple[int, int, int, int, int]]:
        records = _checked_records(data, count)
        destinations = [
            (hi << 64) | lo
            for hi, lo in zip(
                records["dst_hi"].tolist(), records["dst_lo"].tolist()
            )
        ]
        yield from zip(
            records["sampling_rate"].tolist(),
            records["output_ifindex"].tolist(),
            records["afi"].tolist(),
            destinations,
            records["frame_length"].tolist(),
        )

    return agent_address, samples()


def datagram_meta(data) -> Tuple[int, int]:
    """Header-only decode: (agent address, datagram sequence number).

    The lockstep replay driver uses this to restore agent emission
    order over a UDP socket (which may reorder) without paying a full
    sample decode, and the frontends use the agent address to pre-sort
    per router.  Accepts ``bytes`` or ``memoryview``.
    """
    if len(data) < _HEADER.size:
        raise TruncatedMessage("sFlow datagram header truncated")
    version, agent_bytes, _sub, sequence, _uptime, _count = (
        _HEADER.unpack_from(data, 0)
    )
    if version != SFLOW_VERSION:
        raise MalformedMessage(f"unsupported sFlow version {version}")
    return int.from_bytes(agent_bytes, "big"), sequence


@dataclass(frozen=True)
class PacketRecord:
    """One sampled packet."""

    family: Family
    src_address: int
    dst_address: int
    frame_length: int
    dscp: int = 0

    def encode(self) -> bytes:
        return (
            _U32.pack(int(self.family))
            + self.src_address.to_bytes(16, "big")
            + self.dst_address.to_bytes(16, "big")
            + _U32.pack(self.frame_length)
            + struct.pack("!B3x", self.dscp)
        )


@dataclass(frozen=True)
class FlowSample:
    """One flow sample: a sampled packet plus sampling metadata.

    ``sampling_rate`` is the N of 1-in-N sampling: each sample stands for
    approximately N packets.  ``sample_pool`` is the total number of
    packets that were candidates for sampling since the agent started —
    collectors can detect sampling gaps by watching it.
    """

    sequence: int
    sampling_rate: int
    sample_pool: int
    drops: int
    input_ifindex: int
    output_ifindex: int
    record: PacketRecord

    def encode(self) -> bytes:
        record = self.record
        return pack_flow_sample(
            self.sequence,
            self.sampling_rate,
            self.sample_pool,
            self.drops,
            self.input_ifindex,
            self.output_ifindex,
            int(record.family),
            record.src_address.to_bytes(16, "big"),
            record.dst_address.to_bytes(16, "big"),
            record.frame_length,
            record.dscp,
        )


@dataclass(frozen=True)
class SflowDatagram:
    """A batch of flow samples from one agent."""

    agent_address: int
    sequence: int
    uptime_ms: int
    samples: Tuple[FlowSample, ...]
    sub_agent_id: int = 0

    def encode(self) -> bytes:
        return pack_datagram(
            self.agent_address.to_bytes(16, "big"),
            self.sub_agent_id,
            self.sequence,
            self.uptime_ms,
            [sample.encode() for sample in self.samples],
        )

    @classmethod
    def decode(cls, data: bytes) -> "SflowDatagram":
        """Decode through the same header check and record dtype as
        :func:`iter_sample_fields`, one object per sample."""
        agent_address, sub_agent_id, sequence, uptime_ms, count = (
            decode_header(data)
        )
        samples = tuple(
            FlowSample(
                sequence=row[0],
                sampling_rate=row[1],
                sample_pool=row[2],
                drops=row[3],
                input_ifindex=row[4],
                output_ifindex=row[5],
                record=PacketRecord(
                    family=Family(row[6]),
                    src_address=(row[7] << 64) | row[8],
                    dst_address=(row[9] << 64) | row[10],
                    frame_length=row[11],
                    dscp=row[12],
                ),
            )
            for row in _checked_records(data, count).tolist()
        )
        return cls(
            agent_address=agent_address,
            sequence=sequence,
            uptime_ms=uptime_ms,
            samples=samples,
            sub_agent_id=sub_agent_id,
        )

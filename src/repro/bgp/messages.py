"""BGP-4 message wire codec (RFC 4271, with RFC 6793 four-octet ASNs and
RFC 4760 multiprotocol NLRI for IPv6).

The simulated speakers, the BMP collector and the Edge Fabric injector all
exchange *real* BGP byte strings through this codec rather than passing
Python objects around.  That keeps the reproduction honest: the injector
emits the same UPDATE a production ExaBGP-style injector would, and tests
can assert on wire bytes.

One :class:`UpdateMessage` carries routes of a single address family —
IPv4 uses the classic NLRI fields, IPv6 rides in MP_REACH_NLRI /
MP_UNREACH_NLRI attributes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple

from ..netbase.addr import Family, Prefix
from ..netbase.asn import AS_TRANS, validate_asn
from ..netbase.errors import (
    MalformedMessage,
    TruncatedMessage,
    UnsupportedFeature,
)
from .attributes import (
    AsPath,
    AttrFlag,
    AttrType,
    Origin,
    PathAttributes,
)

__all__ = [
    "MessageType",
    "Capability",
    "OpenMessage",
    "UpdateMessage",
    "KeepaliveMessage",
    "NotificationMessage",
    "BgpMessage",
    "encode_message",
    "decode_message",
    "decode_stream",
    "MARKER",
    "HEADER_LEN",
    "MAX_MESSAGE_LEN",
]

MARKER = b"\xff" * 16
HEADER_LEN = 19
MAX_MESSAGE_LEN = 4096

_SAFI_UNICAST = 1


class MessageType(IntEnum):
    OPEN = 1
    UPDATE = 2
    NOTIFICATION = 3
    KEEPALIVE = 4


class CapabilityCode(IntEnum):
    MULTIPROTOCOL = 1
    FOUR_OCTET_AS = 65


@dataclass(frozen=True)
class Capability:
    """An OPEN capability (RFC 5492).  ``value`` is the raw payload."""

    code: int
    value: bytes = b""

    @classmethod
    def multiprotocol(cls, family: Family) -> "Capability":
        payload = struct.pack("!HBB", int(family), 0, _SAFI_UNICAST)
        return cls(CapabilityCode.MULTIPROTOCOL, payload)

    @classmethod
    def four_octet_as(cls, asn: int) -> "Capability":
        return cls(CapabilityCode.FOUR_OCTET_AS, struct.pack("!I", asn))


@dataclass(frozen=True)
class OpenMessage:
    asn: int
    hold_time: int
    router_id: int
    capabilities: Tuple[Capability, ...] = ()
    version: int = 4

    def __post_init__(self) -> None:
        validate_asn(self.asn)
        if not 0 <= self.hold_time <= 0xFFFF:
            raise MalformedMessage(f"hold time {self.hold_time} out of range")
        if not 0 <= self.router_id <= 0xFFFFFFFF:
            raise MalformedMessage("router id out of range")

    @classmethod
    def standard(
        cls, asn: int, router_id: int, hold_time: int = 90
    ) -> "OpenMessage":
        """An OPEN advertising the capabilities every simulated speaker has."""
        return cls(
            asn=asn,
            hold_time=hold_time,
            router_id=router_id,
            capabilities=(
                Capability.multiprotocol(Family.IPV4),
                Capability.multiprotocol(Family.IPV6),
                Capability.four_octet_as(asn),
            ),
        )


@dataclass(frozen=True)
class UpdateMessage:
    """One BGP UPDATE: withdrawals and/or announcements of one family."""

    family: Family = Family.IPV4
    withdrawn: Tuple[Prefix, ...] = ()
    announced: Tuple[Prefix, ...] = ()
    attributes: Optional[PathAttributes] = None

    def __post_init__(self) -> None:
        for prefix in (*self.withdrawn, *self.announced):
            if prefix.family is not self.family:
                raise MalformedMessage(
                    f"prefix {prefix} does not match update family "
                    f"{self.family.name}"
                )
        if self.announced and self.attributes is None:
            raise MalformedMessage("announcement without path attributes")


@dataclass(frozen=True)
class KeepaliveMessage:
    pass


class NotificationCode(IntEnum):
    MESSAGE_HEADER_ERROR = 1
    OPEN_MESSAGE_ERROR = 2
    UPDATE_MESSAGE_ERROR = 3
    HOLD_TIMER_EXPIRED = 4
    FSM_ERROR = 5
    CEASE = 6


@dataclass(frozen=True)
class NotificationMessage:
    code: int
    subcode: int = 0
    data: bytes = b""


BgpMessage = (
    OpenMessage | UpdateMessage | KeepaliveMessage | NotificationMessage
)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _frame(msg_type: MessageType, body: bytes) -> bytes:
    length = HEADER_LEN + len(body)
    if length > MAX_MESSAGE_LEN:
        raise MalformedMessage(
            f"message length {length} exceeds BGP maximum {MAX_MESSAGE_LEN}"
        )
    return MARKER + struct.pack("!HB", length, msg_type) + body


def _encode_open(msg: OpenMessage) -> bytes:
    wire_asn = msg.asn if msg.asn <= 0xFFFF else AS_TRANS
    caps = b""
    for cap in msg.capabilities:
        caps += struct.pack("!BB", cap.code, len(cap.value)) + cap.value
    params = b""
    if caps:
        # One optional parameter of type 2 (capabilities).
        params = struct.pack("!BB", 2, len(caps)) + caps
    body = struct.pack(
        "!BHHI B",
        msg.version,
        wire_asn,
        msg.hold_time,
        msg.router_id,
        len(params),
    ) + params
    return _frame(MessageType.OPEN, body)


def _encode_attr(flags: int, attr_type: int, payload: bytes) -> bytes:
    if len(payload) > 255 or flags & AttrFlag.EXTENDED_LENGTH:
        flags |= AttrFlag.EXTENDED_LENGTH
        return struct.pack("!BBH", flags, attr_type, len(payload)) + payload
    return struct.pack("!BBB", flags, attr_type, len(payload)) + payload


def _encode_nlri(prefixes: Sequence[Prefix]) -> bytes:
    return b"".join(prefix.nlri_bytes() for prefix in prefixes)


def _encode_attributes(
    attrs: PathAttributes,
    family: Family,
    announced: Sequence[Prefix],
) -> bytes:
    out = []
    well_known = AttrFlag.TRANSITIVE
    optional = AttrFlag.OPTIONAL
    out.append(
        _encode_attr(well_known, AttrType.ORIGIN, bytes([attrs.origin]))
    )
    out.append(
        _encode_attr(well_known, AttrType.AS_PATH, attrs.as_path.encode())
    )
    if family is Family.IPV4:
        next_hop_family, next_hop = attrs.next_hop
        if next_hop_family is not Family.IPV4:
            raise MalformedMessage("IPv4 update with non-IPv4 next hop")
        out.append(
            _encode_attr(
                well_known,
                AttrType.NEXT_HOP,
                next_hop.to_bytes(4, "big"),
            )
        )
    if attrs.med is not None:
        out.append(
            _encode_attr(
                optional,
                AttrType.MULTI_EXIT_DISC,
                struct.pack("!I", attrs.med),
            )
        )
    if attrs.local_pref is not None:
        out.append(
            _encode_attr(
                well_known,
                AttrType.LOCAL_PREF,
                struct.pack("!I", attrs.local_pref),
            )
        )
    if attrs.atomic_aggregate:
        out.append(_encode_attr(well_known, AttrType.ATOMIC_AGGREGATE, b""))
    if attrs.aggregator is not None:
        agg_asn, agg_id = attrs.aggregator
        out.append(
            _encode_attr(
                optional | AttrFlag.TRANSITIVE,
                AttrType.AGGREGATOR,
                struct.pack("!II", agg_asn, agg_id),
            )
        )
    if attrs.communities:
        payload = b"".join(
            struct.pack("!I", value) for value in attrs.sorted_communities()
        )
        out.append(
            _encode_attr(
                optional | AttrFlag.TRANSITIVE, AttrType.COMMUNITIES, payload
            )
        )
    if family is Family.IPV6 and announced:
        next_hop_family, next_hop = attrs.next_hop
        if next_hop_family is not Family.IPV6:
            raise MalformedMessage("IPv6 update with non-IPv6 next hop")
        payload = struct.pack("!HBB", int(Family.IPV6), _SAFI_UNICAST, 16)
        payload += next_hop.to_bytes(16, "big")
        payload += b"\x00"  # reserved
        payload += _encode_nlri(announced)
        out.append(_encode_attr(optional, AttrType.MP_REACH_NLRI, payload))
    return b"".join(out)


def _encode_update(msg: UpdateMessage) -> bytes:
    if msg.family is Family.IPV4:
        withdrawn = _encode_nlri(msg.withdrawn)
        attrs = (
            _encode_attributes(msg.attributes, msg.family, msg.announced)
            if msg.attributes is not None
            else b""
        )
        body = (
            struct.pack("!H", len(withdrawn))
            + withdrawn
            + struct.pack("!H", len(attrs))
            + attrs
            + _encode_nlri(msg.announced)
        )
        return _frame(MessageType.UPDATE, body)
    # IPv6: everything lives in MP attributes.
    attr_parts = b""
    if msg.withdrawn:
        payload = struct.pack("!HB", int(Family.IPV6), _SAFI_UNICAST)
        payload += _encode_nlri(msg.withdrawn)
        attr_parts += _encode_attr(
            AttrFlag.OPTIONAL, AttrType.MP_UNREACH_NLRI, payload
        )
    if msg.announced:
        assert msg.attributes is not None
        attr_parts += _encode_attributes(
            msg.attributes, Family.IPV6, msg.announced
        )
    body = (
        struct.pack("!H", 0)
        + struct.pack("!H", len(attr_parts))
        + attr_parts
    )
    return _frame(MessageType.UPDATE, body)


def encode_message(msg: BgpMessage) -> bytes:
    """Encode any BGP message to its on-the-wire bytes."""
    if isinstance(msg, OpenMessage):
        return _encode_open(msg)
    if isinstance(msg, UpdateMessage):
        return _encode_update(msg)
    if isinstance(msg, KeepaliveMessage):
        return _frame(MessageType.KEEPALIVE, b"")
    if isinstance(msg, NotificationMessage):
        body = struct.pack("!BB", msg.code, msg.subcode) + msg.data
        return _frame(MessageType.NOTIFICATION, body)
    raise MalformedMessage(f"cannot encode {type(msg).__name__}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _decode_nlri(family: Family, data: bytes, what: str) -> List[Prefix]:
    prefixes = []
    offset = 0
    while offset < len(data):
        length = data[offset]
        offset += 1
        if length > family.max_length:
            raise MalformedMessage(
                f"{what}: prefix length {length} invalid for {family.name}"
            )
        octets = (length + 7) // 8
        if offset + octets > len(data):
            raise TruncatedMessage(f"{what}: NLRI truncated")
        network = int.from_bytes(data[offset : offset + octets], "big")
        network <<= family.max_length - octets * 8
        offset += octets
        try:
            prefixes.append(Prefix(family, network, length))
        except Exception as exc:
            raise MalformedMessage(f"{what}: bad NLRI: {exc}") from exc
    return prefixes


def _decode_open(body: bytes) -> OpenMessage:
    if len(body) < 10:
        raise TruncatedMessage("OPEN body too short")
    version, wire_asn, hold_time, router_id, opt_len = struct.unpack_from(
        "!BHHIB", body, 0
    )
    if version != 4:
        raise UnsupportedFeature(f"BGP version {version}")
    offset = 10
    if offset + opt_len > len(body):
        raise TruncatedMessage("OPEN optional parameters truncated")
    capabilities: List[Capability] = []
    end = offset + opt_len
    while offset < end:
        if offset + 2 > end:
            raise TruncatedMessage("OPEN parameter header truncated")
        param_type, param_len = body[offset], body[offset + 1]
        offset += 2
        if offset + param_len > end:
            raise TruncatedMessage("OPEN parameter body truncated")
        payload = body[offset : offset + param_len]
        offset += param_len
        if param_type != 2:  # only capabilities are defined
            continue
        cap_offset = 0
        while cap_offset < len(payload):
            if cap_offset + 2 > len(payload):
                raise TruncatedMessage("capability header truncated")
            code, cap_len = payload[cap_offset], payload[cap_offset + 1]
            cap_offset += 2
            if cap_offset + cap_len > len(payload):
                raise TruncatedMessage("capability body truncated")
            capabilities.append(
                Capability(code, payload[cap_offset : cap_offset + cap_len])
            )
            cap_offset += cap_len
    asn = wire_asn
    for cap in capabilities:
        if cap.code == CapabilityCode.FOUR_OCTET_AS and len(cap.value) == 4:
            asn = struct.unpack("!I", cap.value)[0]
    return OpenMessage(
        asn=asn,
        hold_time=hold_time,
        router_id=router_id,
        capabilities=tuple(capabilities),
    )


@dataclass
class _RawAttributes:
    origin: Optional[Origin] = None
    as_path: Optional[AsPath] = None
    next_hop: Optional[int] = None
    med: Optional[int] = None
    local_pref: Optional[int] = None
    communities: frozenset = frozenset()
    atomic_aggregate: bool = False
    aggregator: Optional[Tuple[int, int]] = None
    mp_reach: Optional[Tuple[Family, int, List[Prefix]]] = None
    mp_unreach: Optional[Tuple[Family, List[Prefix]]] = None
    seen_types: set = field(default_factory=set)


def _decode_attribute(raw: _RawAttributes, attr_type: int, payload: bytes) -> None:
    if attr_type in raw.seen_types:
        raise MalformedMessage(f"duplicate path attribute {attr_type}")
    raw.seen_types.add(attr_type)
    if attr_type == AttrType.ORIGIN:
        if len(payload) != 1:
            raise MalformedMessage("ORIGIN length must be 1")
        try:
            raw.origin = Origin(payload[0])
        except ValueError as exc:
            raise MalformedMessage(f"bad ORIGIN {payload[0]}") from exc
    elif attr_type == AttrType.AS_PATH:
        raw.as_path = AsPath.decode(payload)
    elif attr_type == AttrType.NEXT_HOP:
        if len(payload) != 4:
            raise MalformedMessage("NEXT_HOP length must be 4")
        raw.next_hop = int.from_bytes(payload, "big")
    elif attr_type == AttrType.MULTI_EXIT_DISC:
        if len(payload) != 4:
            raise MalformedMessage("MED length must be 4")
        raw.med = struct.unpack("!I", payload)[0]
    elif attr_type == AttrType.LOCAL_PREF:
        if len(payload) != 4:
            raise MalformedMessage("LOCAL_PREF length must be 4")
        raw.local_pref = struct.unpack("!I", payload)[0]
    elif attr_type == AttrType.ATOMIC_AGGREGATE:
        if payload:
            raise MalformedMessage("ATOMIC_AGGREGATE must be empty")
        raw.atomic_aggregate = True
    elif attr_type == AttrType.AGGREGATOR:
        if len(payload) != 8:
            raise MalformedMessage("AGGREGATOR length must be 8")
        raw.aggregator = struct.unpack("!II", payload)
    elif attr_type == AttrType.COMMUNITIES:
        if len(payload) % 4:
            raise MalformedMessage("COMMUNITIES length not multiple of 4")
        raw.communities = frozenset(
            struct.unpack(f"!{len(payload) // 4}I", payload)
        )
    elif attr_type == AttrType.MP_REACH_NLRI:
        if len(payload) < 5:
            raise TruncatedMessage("MP_REACH_NLRI too short")
        afi, safi, nh_len = struct.unpack_from("!HBB", payload, 0)
        if safi != _SAFI_UNICAST:
            raise UnsupportedFeature(f"SAFI {safi}")
        try:
            family = Family(afi)
        except ValueError as exc:
            raise UnsupportedFeature(f"AFI {afi}") from exc
        offset = 4
        if offset + nh_len + 1 > len(payload):
            raise TruncatedMessage("MP_REACH_NLRI next hop truncated")
        # Link-local next hops may double the length; take the global one.
        base_len = min(nh_len, family.address_bytes)
        next_hop = int.from_bytes(payload[offset : offset + base_len], "big")
        offset += nh_len
        offset += 1  # reserved
        prefixes = _decode_nlri(family, payload[offset:], "MP_REACH_NLRI")
        raw.mp_reach = (family, next_hop, prefixes)
    elif attr_type == AttrType.MP_UNREACH_NLRI:
        if len(payload) < 3:
            raise TruncatedMessage("MP_UNREACH_NLRI too short")
        afi, safi = struct.unpack_from("!HB", payload, 0)
        if safi != _SAFI_UNICAST:
            raise UnsupportedFeature(f"SAFI {safi}")
        try:
            family = Family(afi)
        except ValueError as exc:
            raise UnsupportedFeature(f"AFI {afi}") from exc
        prefixes = _decode_nlri(family, payload[3:], "MP_UNREACH_NLRI")
        raw.mp_unreach = (family, prefixes)
    # Unknown optional attributes are silently ignored (RFC 4271 §5).


def _decode_update(body: bytes) -> UpdateMessage:
    if len(body) < 4:
        raise TruncatedMessage("UPDATE body too short")
    withdrawn_len = struct.unpack_from("!H", body, 0)[0]
    offset = 2
    if offset + withdrawn_len + 2 > len(body):
        raise TruncatedMessage("UPDATE withdrawn routes truncated")
    withdrawn_v4 = _decode_nlri(
        Family.IPV4, body[offset : offset + withdrawn_len], "withdrawn"
    )
    offset += withdrawn_len
    attrs_len = struct.unpack_from("!H", body, offset)[0]
    offset += 2
    if offset + attrs_len > len(body):
        raise TruncatedMessage("UPDATE attributes truncated")
    attr_data = body[offset : offset + attrs_len]
    offset += attrs_len
    nlri_v4 = _decode_nlri(Family.IPV4, body[offset:], "NLRI")

    raw = _RawAttributes()
    attr_offset = 0
    while attr_offset < len(attr_data):
        if attr_offset + 2 > len(attr_data):
            raise TruncatedMessage("attribute header truncated")
        flags = attr_data[attr_offset]
        attr_type = attr_data[attr_offset + 1]
        attr_offset += 2
        if flags & AttrFlag.EXTENDED_LENGTH:
            if attr_offset + 2 > len(attr_data):
                raise TruncatedMessage("extended attribute length truncated")
            attr_len = struct.unpack_from("!H", attr_data, attr_offset)[0]
            attr_offset += 2
        else:
            if attr_offset + 1 > len(attr_data):
                raise TruncatedMessage("attribute length truncated")
            attr_len = attr_data[attr_offset]
            attr_offset += 1
        if attr_offset + attr_len > len(attr_data):
            raise TruncatedMessage("attribute body truncated")
        payload = attr_data[attr_offset : attr_offset + attr_len]
        attr_offset += attr_len
        _decode_attribute(raw, attr_type, payload)

    # Assemble the message. IPv6 routes take precedence if MP attrs present.
    if raw.mp_reach is not None or raw.mp_unreach is not None:
        family = (
            raw.mp_reach[0] if raw.mp_reach is not None else raw.mp_unreach[0]
        )
        announced: Tuple[Prefix, ...] = ()
        attributes: Optional[PathAttributes] = None
        if raw.mp_reach is not None:
            _family, next_hop, prefixes = raw.mp_reach
            announced = tuple(prefixes)
            attributes = PathAttributes(
                origin=raw.origin if raw.origin is not None else Origin.IGP,
                as_path=raw.as_path or AsPath(),
                next_hop=(family, next_hop),
                med=raw.med,
                local_pref=raw.local_pref,
                communities=raw.communities,
                atomic_aggregate=raw.atomic_aggregate,
                aggregator=raw.aggregator,
            )
        withdrawn = tuple(raw.mp_unreach[1]) if raw.mp_unreach else ()
        return UpdateMessage(
            family=family,
            withdrawn=withdrawn,
            announced=announced,
            attributes=attributes,
        )

    attributes = None
    if nlri_v4:
        if raw.origin is None or raw.as_path is None or raw.next_hop is None:
            raise MalformedMessage(
                "announcement missing mandatory attributes"
            )
        attributes = PathAttributes(
            origin=raw.origin,
            as_path=raw.as_path,
            next_hop=(Family.IPV4, raw.next_hop),
            med=raw.med,
            local_pref=raw.local_pref,
            communities=raw.communities,
            atomic_aggregate=raw.atomic_aggregate,
            aggregator=raw.aggregator,
        )
    return UpdateMessage(
        family=Family.IPV4,
        withdrawn=tuple(withdrawn_v4),
        announced=tuple(nlri_v4),
        attributes=attributes,
    )


def decode_message(data: bytes) -> Tuple[BgpMessage, int]:
    """Decode one message from *data*, returning (message, bytes consumed)."""
    if len(data) < HEADER_LEN:
        raise TruncatedMessage("BGP header truncated")
    if data[:16] != MARKER:
        raise MalformedMessage("bad BGP marker")
    length, msg_type = struct.unpack_from("!HB", data, 16)
    if length < HEADER_LEN or length > MAX_MESSAGE_LEN:
        raise MalformedMessage(f"bad BGP message length {length}")
    if len(data) < length:
        raise TruncatedMessage("BGP message body truncated")
    body = data[HEADER_LEN:length]
    if msg_type == MessageType.OPEN:
        return _decode_open(body), length
    if msg_type == MessageType.UPDATE:
        return _decode_update(body), length
    if msg_type == MessageType.KEEPALIVE:
        if body:
            raise MalformedMessage("KEEPALIVE with body")
        return KeepaliveMessage(), length
    if msg_type == MessageType.NOTIFICATION:
        if len(body) < 2:
            raise TruncatedMessage("NOTIFICATION too short")
        return (
            NotificationMessage(code=body[0], subcode=body[1], data=body[2:]),
            length,
        )
    raise MalformedMessage(f"unknown BGP message type {msg_type}")


def decode_stream(data: bytes) -> Tuple[List[BgpMessage], bytes]:
    """Decode every complete message in *data*.

    Returns the decoded messages and any trailing partial bytes, which the
    caller should prepend to the next read — exactly how a TCP-based
    speaker consumes its receive buffer.
    """
    messages: List[BgpMessage] = []
    offset = 0
    while True:
        try:
            message, consumed = decode_message(data[offset:])
        except TruncatedMessage:
            break
        messages.append(message)
        offset += consumed
        if offset >= len(data):
            break
    return messages, data[offset:]

"""BGP path attributes: AS_PATH, ORIGIN, communities, and the attribute set.

These are value types with full wire encode/decode for the attributes the
reproduction uses.  AS paths always use 4-octet AS numbers on the wire
(RFC 6793 behaviour between capable speakers, which all simulated speakers
are).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from ..netbase.addr import Family
from ..netbase.asn import validate_asn
from ..netbase.errors import MalformedMessage, TruncatedMessage

__all__ = [
    "Origin",
    "SegmentType",
    "AsPath",
    "Community",
    "community",
    "PathAttributes",
    "AttrFlag",
    "AttrType",
]


class Origin(IntEnum):
    """ORIGIN attribute; lower is preferred by the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class SegmentType(IntEnum):
    """AS_PATH segment types (RFC 4271 §4.3)."""

    AS_SET = 1
    AS_SEQUENCE = 2


class AsPath:
    """An AS_PATH: an ordered list of segments.

    >>> path = AsPath.sequence(64500, 3356, 15169)
    >>> path.length()
    3
    >>> path.prepend(64500).length()
    4
    >>> 3356 in path
    True
    """

    __slots__ = ("_segments",)

    def __init__(
        self, segments: Iterable[Tuple[SegmentType, Tuple[int, ...]]] = ()
    ) -> None:
        cleaned = []
        for seg_type, asns in segments:
            seg_type = SegmentType(seg_type)
            asns = tuple(validate_asn(asn) for asn in asns)
            if not asns:
                raise MalformedMessage("empty AS_PATH segment")
            if len(asns) > 255:
                raise MalformedMessage("AS_PATH segment longer than 255")
            cleaned.append((seg_type, asns))
        self._segments: Tuple[Tuple[SegmentType, Tuple[int, ...]], ...] = (
            tuple(cleaned)
        )

    @classmethod
    def sequence(cls, *asns: int) -> "AsPath":
        """A path that is a single AS_SEQUENCE (the common case)."""
        if not asns:
            return cls()
        return cls([(SegmentType.AS_SEQUENCE, tuple(asns))])

    @property
    def segments(self) -> Tuple[Tuple[SegmentType, Tuple[int, ...]], ...]:
        return self._segments

    def length(self) -> int:
        """Decision-process length: each AS_SET counts as one hop."""
        total = 0
        for seg_type, asns in self._segments:
            total += 1 if seg_type is SegmentType.AS_SET else len(asns)
        return total

    def asns(self) -> Iterator[int]:
        """Every ASN mentioned anywhere in the path."""
        for _seg_type, asns in self._segments:
            yield from asns

    def __contains__(self, asn: int) -> bool:
        return any(candidate == asn for candidate in self.asns())

    @property
    def next_hop_asn(self) -> Optional[int]:
        """The neighbor AS the route was learned from (leftmost)."""
        if not self._segments:
            return None
        seg_type, asns = self._segments[0]
        if seg_type is SegmentType.AS_SET:
            return None
        return asns[0]

    def prepend(self, asn: int, count: int = 1) -> "AsPath":
        """A new path with *asn* prepended *count* times."""
        validate_asn(asn)
        if count < 1:
            raise ValueError("prepend count must be >= 1")
        head = (asn,) * count
        if (
            self._segments
            and self._segments[0][0] is SegmentType.AS_SEQUENCE
            and len(self._segments[0][1]) + count <= 255
        ):
            first = (SegmentType.AS_SEQUENCE, head + self._segments[0][1])
            return AsPath((first,) + self._segments[1:])
        return AsPath(
            ((SegmentType.AS_SEQUENCE, head),) + self._segments
        )

    # -- wire format (4-octet ASNs) -------------------------------------------

    def encode(self) -> bytes:
        parts = []
        for seg_type, asns in self._segments:
            parts.append(struct.pack("!BB", seg_type, len(asns)))
            parts.append(b"".join(struct.pack("!I", asn) for asn in asns))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "AsPath":
        segments = []
        offset = 0
        while offset < len(data):
            if offset + 2 > len(data):
                raise TruncatedMessage("AS_PATH segment header truncated")
            seg_type, count = struct.unpack_from("!BB", data, offset)
            offset += 2
            end = offset + 4 * count
            if end > len(data):
                raise TruncatedMessage("AS_PATH segment body truncated")
            asns = struct.unpack_from(f"!{count}I", data, offset)
            offset = end
            try:
                segments.append((SegmentType(seg_type), tuple(asns)))
            except ValueError as exc:
                raise MalformedMessage(
                    f"unknown AS_PATH segment type {seg_type}"
                ) from exc
        return cls(segments)

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AsPath) and self._segments == other._segments

    def __hash__(self) -> int:
        return hash(self._segments)

    def __len__(self) -> int:
        return self.length()

    def __repr__(self) -> str:
        return f"AsPath({str(self)!r})"

    def __str__(self) -> str:
        rendered = []
        for seg_type, asns in self._segments:
            text = " ".join(str(asn) for asn in asns)
            if seg_type is SegmentType.AS_SET:
                rendered.append("{" + text + "}")
            else:
                rendered.append(text)
        return " ".join(rendered)


#: A standard community is a 32-bit value, conventionally "asn:value".
Community = int


def community(asn: int, value: int) -> Community:
    """Build an ``asn:value`` standard community."""
    if not 0 <= asn <= 0xFFFF or not 0 <= value <= 0xFFFF:
        raise ValueError(f"community parts out of range: {asn}:{value}")
    return (asn << 16) | value


class AttrFlag(IntEnum):
    """Path attribute flag bits (RFC 4271 §4.3)."""

    OPTIONAL = 0x80
    TRANSITIVE = 0x40
    PARTIAL = 0x20
    EXTENDED_LENGTH = 0x10


class AttrType(IntEnum):
    """Path attribute type codes used by this implementation."""

    ORIGIN = 1
    AS_PATH = 2
    NEXT_HOP = 3
    MULTI_EXIT_DISC = 4
    LOCAL_PREF = 5
    ATOMIC_AGGREGATE = 6
    AGGREGATOR = 7
    COMMUNITIES = 8
    MP_REACH_NLRI = 14
    MP_UNREACH_NLRI = 15


@dataclass(frozen=True)
class PathAttributes:
    """The attribute set carried by one route.

    ``next_hop`` is (family, integer address).  ``local_pref`` is optional
    on the wire for eBGP-learned routes; the import policy always assigns
    one before a route enters a RIB, so the decision process can assume it
    is present (defaulting to 100 when not).
    """

    origin: Origin = Origin.IGP
    as_path: AsPath = field(default_factory=AsPath)
    next_hop: Tuple[Family, int] = (Family.IPV4, 0)
    med: Optional[int] = None
    local_pref: Optional[int] = None
    communities: frozenset = frozenset()
    atomic_aggregate: bool = False
    aggregator: Optional[Tuple[int, int]] = None  # (asn, router-id)

    def __post_init__(self) -> None:
        object.__setattr__(self, "communities", frozenset(self.communities))
        if self.med is not None and not 0 <= self.med <= 0xFFFFFFFF:
            raise MalformedMessage(f"MED {self.med} out of range")
        if self.local_pref is not None and not 0 <= self.local_pref <= 0xFFFFFFFF:
            raise MalformedMessage(
                f"LOCAL_PREF {self.local_pref} out of range"
            )

    @property
    def effective_local_pref(self) -> int:
        """LOCAL_PREF with the RFC 4271 default of 100 when unset."""
        return 100 if self.local_pref is None else self.local_pref

    def with_local_pref(self, value: int) -> "PathAttributes":
        return replace(self, local_pref=value)

    def with_med(self, value: Optional[int]) -> "PathAttributes":
        return replace(self, med=value)

    def add_communities(self, values: Iterable[Community]) -> "PathAttributes":
        return replace(self, communities=self.communities | frozenset(values))

    def prepended(self, asn: int, count: int = 1) -> "PathAttributes":
        return replace(self, as_path=self.as_path.prepend(asn, count))

    def has_community(self, value: Community) -> bool:
        return value in self.communities

    def sorted_communities(self) -> Sequence[Community]:
        return sorted(self.communities)

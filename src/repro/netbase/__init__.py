"""Foundational value types: prefixes, tries, ASNs, rates, errors."""

from .addr import Family, Prefix, parse_address, parse_prefix
from .asn import (
    AS_TRANS,
    MAX_ASN,
    Relationship,
    is_private_asn,
    is_reserved_asn,
    validate_asn,
)
from .errors import (
    AddressError,
    CodecError,
    ControllerError,
    DataplaneError,
    InjectionError,
    MalformedMessage,
    MeasurementError,
    PolicyError,
    ReproError,
    RibError,
    SessionError,
    StaleInputError,
    TopologyError,
    TrafficError,
    TruncatedMessage,
    UnsupportedFeature,
)
from .intern import Interner
from .trie import PrefixMap, RadixTrie
from .units import Rate, bps, gbps, mbps

__all__ = [
    "Family",
    "Prefix",
    "parse_address",
    "parse_prefix",
    "Interner",
    "AS_TRANS",
    "MAX_ASN",
    "Relationship",
    "is_private_asn",
    "is_reserved_asn",
    "validate_asn",
    "PrefixMap",
    "RadixTrie",
    "Rate",
    "bps",
    "mbps",
    "gbps",
    "ReproError",
    "AddressError",
    "CodecError",
    "TruncatedMessage",
    "MalformedMessage",
    "UnsupportedFeature",
    "PolicyError",
    "RibError",
    "SessionError",
    "TopologyError",
    "TrafficError",
    "DataplaneError",
    "MeasurementError",
    "ControllerError",
    "StaleInputError",
    "InjectionError",
]

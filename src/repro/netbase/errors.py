"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.  Subsystems define
narrower subclasses here rather than ad-hoc exceptions so that the dataplane
simulator, the controller and the wire codecs share one vocabulary for
failure.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "AddressError",
    "CodecError",
    "DecodeError",
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


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AddressError(ReproError, ValueError):
    """An IP address, prefix or ASN could not be parsed or is invalid."""


class CodecError(ReproError, ValueError):
    """A wire-format message could not be encoded or decoded."""


class DecodeError(CodecError):
    """Bytes from the wire could not be decoded.

    The common parent of :class:`TruncatedMessage` and
    :class:`MalformedMessage` — socket frontends catch this one class to
    count-and-drop undecodable input, whatever the specific defect.
    """


class TruncatedMessage(DecodeError):
    """The byte buffer ended before the message was complete."""


class MalformedMessage(DecodeError):
    """The bytes were structurally invalid for the claimed message type."""


class UnsupportedFeature(CodecError):
    """The message used an optional feature this codec does not implement."""


class PolicyError(ReproError):
    """A routing policy was misconfigured or could not be applied."""


class RibError(ReproError):
    """An operation on a routing table was invalid (e.g. withdrawing an
    unknown route)."""


class SessionError(ReproError):
    """A BGP session operation violated the FSM (e.g. update while Idle)."""


class TopologyError(ReproError):
    """The PoP or AS-level topology was inconsistent."""


class TrafficError(ReproError):
    """Synthetic traffic generation was asked for an impossible workload."""


class DataplaneError(ReproError):
    """The forwarding simulation hit an inconsistent state."""


class MeasurementError(ReproError):
    """A path-performance measurement could not be produced."""


class ControllerError(ReproError):
    """The Edge Fabric controller could not complete a cycle."""


class StaleInputError(ControllerError):
    """A controller input snapshot was older than the staleness bound.

    Edge Fabric refuses to act on stale routing or traffic data: acting on
    an old picture of the network can push an interface *into* overload
    rather than out of it.  The controller treats this as "skip the cycle",
    never as "use the data anyway".
    """


class InjectionError(ControllerError):
    """The BGP injector failed to enforce an override."""

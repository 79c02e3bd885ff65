"""BGP substrate: wire codec, RIBs, decision process, policy, sessions."""

from .attributes import (
    AsPath,
    AttrFlag,
    AttrType,
    Community,
    Origin,
    PathAttributes,
    SegmentType,
    community,
)
from .communities import (
    ALT_PATH_MEASUREMENT,
    INJECTED,
    OPERATOR_ASN,
    peer_type_community,
    peer_type_from_communities,
)
from .decision import (
    DecisionConfig,
    best_route,
    compare_routes,
    rank_routes,
)
from .fsm import FsmEvent, SessionFsm, SessionState
from .messages import (
    Capability,
    KeepaliveMessage,
    MessageType,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_message,
    decode_stream,
    encode_message,
)
from .peering import PeerDescriptor, PeerType
from .policy import (
    LOCAL_PREF_BY_PEER_TYPE,
    PolicyRule,
    RoutePolicy,
    standard_import_policy,
)
from .rib import AdjRibIn, LocRib, RibChange
from .route import Route
from .speaker import BgpSpeaker, RouteEvent, Session

__all__ = [
    "AsPath",
    "AttrFlag",
    "AttrType",
    "Community",
    "Origin",
    "PathAttributes",
    "SegmentType",
    "community",
    "ALT_PATH_MEASUREMENT",
    "INJECTED",
    "OPERATOR_ASN",
    "peer_type_community",
    "peer_type_from_communities",
    "DecisionConfig",
    "best_route",
    "compare_routes",
    "rank_routes",
    "FsmEvent",
    "SessionFsm",
    "SessionState",
    "Capability",
    "KeepaliveMessage",
    "MessageType",
    "NotificationMessage",
    "OpenMessage",
    "UpdateMessage",
    "decode_message",
    "decode_stream",
    "encode_message",
    "PeerDescriptor",
    "PeerType",
    "LOCAL_PREF_BY_PEER_TYPE",
    "PolicyRule",
    "RoutePolicy",
    "standard_import_policy",
    "AdjRibIn",
    "LocRib",
    "RibChange",
    "Route",
    "BgpSpeaker",
    "RouteEvent",
    "Session",
]

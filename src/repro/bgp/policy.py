"""Routing policy engine: ordered match/action rules applied at import.

Peering routers apply an import policy to every route learned from a
neighbor before it enters the Adj-RIB-In.  The policy both *sanitizes*
(reject loops, martians, absurd paths) and *ranks* (assign LOCAL_PREF by
peer type — the paper's "prefer peer routes over transit, prefer private
interconnects over public exchanges") and *tags* (communities recording
ingress peer type, so any later consumer can classify a route without
carrying the session object around).

The engine is a first-match-wins rule list, the shape real router configs
take, so tests can express realistic policies (prefix blackholes,
AS-path-based deprefs, community-triggered actions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..netbase.addr import Family, Prefix
from ..netbase.errors import PolicyError
from .attributes import Community
from .communities import peer_type_community
from .peering import PeerType
from .route import Route

__all__ = [
    "Matcher",
    "Action",
    "match_prefix_within",
    "match_too_specific",
    "match_peer_type",
    "match_community",
    "match_as_path_contains",
    "match_as_path_longer_than",
    "match_any",
    "set_local_pref",
    "add_community",
    "set_med",
    "strip_med",
    "prepend_as",
    "PolicyRule",
    "PolicyResult",
    "RoutePolicy",
    "standard_import_policy",
    "LOCAL_PREF_BY_PEER_TYPE",
]

#: A matcher takes a route and says whether the rule applies.
Matcher = Callable[[Route], bool]

#: An action transforms a route (returning the new route).
Action = Callable[[Route], Route]


# -- matchers ----------------------------------------------------------------


def match_prefix_within(covering: Prefix) -> Matcher:
    """Match routes whose prefix is covered by *covering*."""

    def matcher(route: Route) -> bool:
        return covering.covers(route.prefix)

    return matcher


def match_too_specific(v4_limit: int = 24, v6_limit: int = 48) -> Matcher:
    """Match prefixes more specific than the family's acceptance limit
    (the conventional /24 for IPv4 and /48 for IPv6)."""

    def matcher(route: Route) -> bool:
        limit = v4_limit if route.prefix.family is Family.IPV4 else v6_limit
        return route.prefix.length > limit

    return matcher


def match_peer_type(*peer_types: PeerType) -> Matcher:
    accepted = frozenset(peer_types)

    def matcher(route: Route) -> bool:
        return route.peer_type in accepted

    return matcher


def match_community(value: Community) -> Matcher:
    def matcher(route: Route) -> bool:
        return route.attributes.has_community(value)

    return matcher


def match_as_path_contains(asn: int) -> Matcher:
    def matcher(route: Route) -> bool:
        return asn in route.attributes.as_path

    return matcher


def match_as_path_longer_than(length: int) -> Matcher:
    def matcher(route: Route) -> bool:
        return route.as_path_length > length

    return matcher


def match_any(_route: Route) -> bool:
    return True


# -- actions -------------------------------------------------------------------


def set_local_pref(value: int) -> Action:
    def action(route: Route) -> Route:
        return route.with_local_pref(value)

    return action


def add_community(value: Community) -> Action:
    def action(route: Route) -> Route:
        return route.with_attributes(
            route.attributes.add_communities([value])
        )

    return action


def set_med(value: int) -> Action:
    def action(route: Route) -> Route:
        return route.with_attributes(route.attributes.with_med(value))

    return action


def strip_med(route: Route) -> Route:
    return route.with_attributes(route.attributes.with_med(None))


def prepend_as(asn: int, count: int = 1) -> Action:
    def action(route: Route) -> Route:
        return route.with_attributes(route.attributes.prepended(asn, count))

    return action


# -- rules and policy ------------------------------------------------------------


@dataclass(frozen=True)
class PolicyRule:
    """One first-match-wins rule: if all matchers hit, run the actions and
    accept (or reject if ``reject`` is set)."""

    name: str
    matchers: Tuple[Matcher, ...] = ()
    actions: Tuple[Action, ...] = ()
    reject: bool = False

    def matches(self, route: Route) -> bool:
        return all(matcher(route) for matcher in self.matchers)

    def apply(self, route: Route) -> Optional[Route]:
        if self.reject:
            return None
        for action in self.actions:
            route = action(route)
        return route


@dataclass(frozen=True)
class PolicyResult:
    """Outcome of evaluating a policy against one route."""

    route: Optional[Route]
    matched_rule: Optional[str]

    @property
    def accepted(self) -> bool:
        return self.route is not None


@dataclass
class RoutePolicy:
    """An ordered rule list with a default action.

    ``default_accept`` decides the fate of routes no rule matches; import
    policies typically accept-by-default after sanitization rules, export
    policies typically reject-by-default.
    """

    name: str
    rules: List[PolicyRule] = field(default_factory=list)
    default_accept: bool = True

    def evaluate(self, route: Route) -> PolicyResult:
        for rule in self.rules:
            if rule.matches(route):
                return PolicyResult(rule.apply(route), rule.name)
        if self.default_accept:
            return PolicyResult(route, None)
        return PolicyResult(None, None)

    def apply(self, route: Route) -> Optional[Route]:
        """Evaluate and return just the transformed route (or None)."""
        return self.evaluate(route).route


#: Default LOCAL_PREF tiers: prefer peer routes over transit, and among
#: peers prefer private interconnects, then public exchanges, then route
#: servers — the ranking described in §2 of the paper.
LOCAL_PREF_BY_PEER_TYPE = {
    PeerType.PRIVATE: 300,
    PeerType.PUBLIC: 280,
    PeerType.ROUTE_SERVER: 260,
    PeerType.TRANSIT: 100,
}

#: Paths longer than this are junk (route leaks, prepending storms).
MAX_REASONABLE_AS_PATH = 30


def standard_import_policy(
    local_asn: int,
    peer_type: PeerType,
    local_pref_overrides: Optional[dict] = None,
) -> RoutePolicy:
    """The import policy a PR applies to one eBGP session.

    Rules, in order:

    1. Reject routes whose AS_PATH already contains our ASN (loops).
    2. Reject absurdly long AS paths.
    3. Reject host-specific and near-host prefixes (longer than /24 v4
       semantics are approximated family-independently via /25+... v4 and
       /49+ v6 are handled by the length rule given per family at build).
    4. Accept everything else: assign the peer-type LOCAL_PREF, strip any
       received MED on peering sessions (we do not honor peer MEDs — the
       controller, not neighbors, balances our egress), and tag the
       ingress peer-type community.
    """
    if peer_type is PeerType.INTERNAL:
        raise PolicyError("import policy is for eBGP sessions only")
    tiers = dict(LOCAL_PREF_BY_PEER_TYPE)
    if local_pref_overrides:
        tiers.update(local_pref_overrides)
    local_pref = tiers[peer_type]
    accept_actions: Tuple[Action, ...] = (
        set_local_pref(local_pref),
        add_community(peer_type_community(peer_type)),
    )
    if peer_type is not PeerType.TRANSIT:
        accept_actions = (strip_med,) + accept_actions
    return RoutePolicy(
        name=f"import-{peer_type.value}",
        rules=[
            PolicyRule(
                name="reject-as-loop",
                matchers=(match_as_path_contains(local_asn),),
                reject=True,
            ),
            PolicyRule(
                name="reject-long-path",
                matchers=(match_as_path_longer_than(MAX_REASONABLE_AS_PATH),),
                reject=True,
            ),
            PolicyRule(
                name="reject-too-specific",
                matchers=(match_too_specific(),),
                reject=True,
            ),
            PolicyRule(
                name="accept-tag-and-rank",
                matchers=(match_any,),
                actions=accept_actions,
            ),
        ],
        default_accept=False,
    )


def apply_policies(
    route: Route, policies: Sequence[RoutePolicy]
) -> Optional[Route]:
    """Run a route through a policy chain; None means rejected."""
    current: Optional[Route] = route
    for policy in policies:
        if current is None:
            return None
        current = policy.apply(current)
    return current

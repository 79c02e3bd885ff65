"""Tests for the BGP wire codec (repro.bgp.messages)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AsPath,
    Origin,
    PathAttributes,
    community,
)
from repro.bgp.messages import (
    HEADER_LEN,
    MARKER,
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
from repro.netbase.addr import Family, Prefix
from repro.netbase.errors import (
    MalformedMessage,
    TruncatedMessage,
)


def v4_attrs(**overrides):
    base = dict(
        origin=Origin.IGP,
        as_path=AsPath.sequence(65001, 65002),
        next_hop=(Family.IPV4, 0x0A000001),
    )
    base.update(overrides)
    return PathAttributes(**base)


class TestFraming:
    def test_header_layout(self):
        wire = encode_message(KeepaliveMessage())
        assert wire[:16] == MARKER
        assert int.from_bytes(wire[16:18], "big") == HEADER_LEN
        assert wire[18] == MessageType.KEEPALIVE

    def test_bad_marker_rejected(self):
        wire = bytearray(encode_message(KeepaliveMessage()))
        wire[0] = 0
        with pytest.raises(MalformedMessage):
            decode_message(bytes(wire))

    def test_truncated_header(self):
        with pytest.raises(TruncatedMessage):
            decode_message(MARKER[:10])

    def test_truncated_body(self):
        wire = encode_message(
            NotificationMessage(code=6, subcode=0, data=b"xx")
        )
        with pytest.raises(TruncatedMessage):
            decode_message(wire[:-1])

    def test_unknown_type_rejected(self):
        wire = bytearray(encode_message(KeepaliveMessage()))
        wire[18] = 99
        with pytest.raises(MalformedMessage):
            decode_message(bytes(wire))

    def test_decode_returns_consumed_length(self):
        wire = encode_message(KeepaliveMessage()) + b"extra"
        _msg, consumed = decode_message(wire)
        assert consumed == HEADER_LEN


class TestOpen:
    def test_round_trip_basic(self):
        msg = OpenMessage(asn=65001, hold_time=90, router_id=0x0A000001)
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.asn == 65001
        assert decoded.hold_time == 90
        assert decoded.router_id == 0x0A000001

    def test_four_octet_asn_via_capability(self):
        msg = OpenMessage.standard(asn=4200000000, router_id=7)
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.asn == 4200000000

    def test_standard_capabilities(self):
        msg = OpenMessage.standard(asn=65001, router_id=7)
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.capabilities == msg.capabilities

    def test_invalid_hold_time_rejected(self):
        with pytest.raises(MalformedMessage):
            OpenMessage(asn=65001, hold_time=-1, router_id=7)

    def test_multiprotocol_capability_payload(self):
        cap = Capability.multiprotocol(Family.IPV6)
        assert cap.value == bytes([0, 2, 0, 1])


class TestUpdateV4:
    def test_announce_round_trip(self):
        attrs = v4_attrs(
            med=50,
            local_pref=300,
            communities=frozenset(
                {community(64600, 101), community(64600, 911)}
            ),
        )
        msg = UpdateMessage(
            announced=(
                Prefix.parse("203.0.113.0/24"),
                Prefix.parse("198.51.100.0/24"),
            ),
            attributes=attrs,
        )
        decoded, _ = decode_message(encode_message(msg))
        assert set(decoded.announced) == set(msg.announced)
        assert decoded.attributes.med == 50
        assert decoded.attributes.local_pref == 300
        assert decoded.attributes.communities == attrs.communities
        assert decoded.attributes.as_path == attrs.as_path
        assert decoded.attributes.next_hop == (Family.IPV4, 0x0A000001)

    def test_withdraw_round_trip(self):
        msg = UpdateMessage(withdrawn=(Prefix.parse("203.0.113.0/24"),))
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.withdrawn == msg.withdrawn
        assert decoded.announced == ()

    def test_end_of_rib(self):
        msg = UpdateMessage()
        decoded, _ = decode_message(encode_message(msg))
        assert decoded == msg

    def test_announcement_requires_attributes(self):
        with pytest.raises(MalformedMessage):
            UpdateMessage(announced=(Prefix.parse("203.0.113.0/24"),))

    def test_family_mismatch_rejected(self):
        with pytest.raises(MalformedMessage):
            UpdateMessage(
                family=Family.IPV4,
                withdrawn=(Prefix.parse("2001:db8::/32"),),
            )

    def test_aggregator_and_atomic(self):
        attrs = v4_attrs(atomic_aggregate=True, aggregator=(65001, 42))
        msg = UpdateMessage(
            announced=(Prefix.parse("10.0.0.0/8"),), attributes=attrs
        )
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.attributes.atomic_aggregate
        assert decoded.attributes.aggregator == (65001, 42)

    def test_missing_mandatory_attribute_rejected(self):
        # Hand-build an UPDATE with NLRI but no attributes at all.
        body = (0).to_bytes(2, "big") + (0).to_bytes(2, "big") + bytes(
            [24, 203, 0, 113]
        )
        wire = (
            MARKER
            + (HEADER_LEN + len(body)).to_bytes(2, "big")
            + bytes([MessageType.UPDATE])
            + body
        )
        with pytest.raises(MalformedMessage):
            decode_message(wire)


class TestUpdateV6:
    def test_announce_round_trip_via_mp_reach(self):
        attrs = PathAttributes(
            as_path=AsPath.sequence(65001),
            next_hop=(Family.IPV6, 0x20010DB8000000000000000000000001),
            local_pref=280,
        )
        msg = UpdateMessage(
            family=Family.IPV6,
            announced=(Prefix.parse("2001:db8:1::/48"),),
            attributes=attrs,
        )
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.family is Family.IPV6
        assert decoded.announced == msg.announced
        assert decoded.attributes.next_hop == attrs.next_hop
        assert decoded.attributes.local_pref == 280

    def test_withdraw_round_trip_via_mp_unreach(self):
        msg = UpdateMessage(
            family=Family.IPV6,
            withdrawn=(Prefix.parse("2001:db8:1::/48"),),
        )
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.family is Family.IPV6
        assert decoded.withdrawn == msg.withdrawn

    def test_v6_next_hop_required_for_v6_update(self):
        attrs = v4_attrs()  # v4 next hop
        msg = UpdateMessage(
            family=Family.IPV6,
            announced=(Prefix.parse("2001:db8::/32"),),
            attributes=attrs,
        )
        with pytest.raises(MalformedMessage):
            encode_message(msg)


class TestNotification:
    def test_round_trip(self):
        msg = NotificationMessage(code=6, subcode=2, data=b"bye")
        decoded, _ = decode_message(encode_message(msg))
        assert (decoded.code, decoded.subcode, decoded.data) == (6, 2, b"bye")


class TestDecodeStream:
    def test_multiple_messages(self):
        wire = encode_message(KeepaliveMessage()) * 3
        messages, rest = decode_stream(wire)
        assert len(messages) == 3
        assert rest == b""

    def test_partial_tail_preserved(self):
        full = encode_message(KeepaliveMessage())
        wire = full + full[:7]
        messages, rest = decode_stream(wire)
        assert len(messages) == 1
        assert rest == full[:7]
        # Completing the tail decodes the second message.
        messages2, rest2 = decode_stream(rest + full[7:])
        assert len(messages2) == 1 and rest2 == b""

    def test_empty_input(self):
        assert decode_stream(b"") == ([], b"")


v4_prefix_strategy = st.builds(
    lambda addr, length: Prefix.from_address(Family.IPV4, addr, length),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=24),
)

v6_prefix_strategy = st.builds(
    lambda addr, length: Prefix.from_address(Family.IPV6, addr, length),
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=0, max_value=48),
)

attr_strategy = st.builds(
    lambda asns, lp, med, comms: PathAttributes(
        as_path=AsPath.sequence(*asns) if asns else AsPath(),
        next_hop=(Family.IPV4, 0x0A000001),
        local_pref=lp,
        med=med,
        communities=frozenset(comms),
    ),
    st.lists(
        st.integers(min_value=1, max_value=2**32 - 1), min_size=1, max_size=6
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=5),
)


class TestCodecProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(v4_prefix_strategy, min_size=1, max_size=10, unique=True),
        st.lists(v4_prefix_strategy, max_size=5, unique=True),
        attr_strategy,
    )
    def test_v4_update_round_trip(self, announced, withdrawn, attrs):
        msg = UpdateMessage(
            announced=tuple(announced),
            withdrawn=tuple(withdrawn),
            attributes=attrs,
        )
        decoded, consumed = decode_message(encode_message(msg))
        assert consumed == len(encode_message(msg))
        assert set(decoded.announced) == set(announced)
        assert set(decoded.withdrawn) == set(withdrawn)
        assert decoded.attributes.as_path == attrs.as_path
        assert decoded.attributes.local_pref == attrs.local_pref
        assert decoded.attributes.med == attrs.med
        assert decoded.attributes.communities == attrs.communities

    @settings(max_examples=100, deadline=None)
    @given(st.lists(v6_prefix_strategy, min_size=1, max_size=8, unique=True))
    def test_v6_update_round_trip(self, announced):
        attrs = PathAttributes(
            as_path=AsPath.sequence(65001),
            next_hop=(Family.IPV6, 0x20010DB8 << 96),
        )
        msg = UpdateMessage(
            family=Family.IPV6,
            announced=tuple(announced),
            attributes=attrs,
        )
        decoded, _ = decode_message(encode_message(msg))
        assert set(decoded.announced) == set(announced)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=65535),
    )
    def test_open_round_trip(self, asn, router_id, hold_time):
        msg = OpenMessage.standard(
            asn=asn, router_id=router_id, hold_time=hold_time
        )
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.asn == asn
        assert decoded.router_id == router_id
        assert decoded.hold_time == hold_time

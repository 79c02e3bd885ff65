"""Tests for repro.bgp.attributes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AsPath,
    Origin,
    PathAttributes,
    SegmentType,
    community,
)
from repro.netbase.errors import MalformedMessage


class TestAsPathBasics:
    def test_sequence_builder(self):
        path = AsPath.sequence(64500, 3356, 15169)
        assert path.length() == 3
        assert list(path.asns()) == [64500, 3356, 15169]
        assert path.next_hop_asn == 64500

    def test_empty_path(self):
        path = AsPath()
        assert path.length() == 0
        assert path.next_hop_asn is None
        assert AsPath.sequence() == AsPath()

    def test_as_set_counts_as_one_hop(self):
        path = AsPath(
            [
                (SegmentType.AS_SEQUENCE, (64500, 3356)),
                (SegmentType.AS_SET, (15169, 8075)),
            ]
        )
        assert path.length() == 3
        leading_set = AsPath([(SegmentType.AS_SET, (15169, 8075))])
        assert leading_set.length() == 1
        assert leading_set.next_hop_asn is None

    def test_contains_and_loop(self):
        path = AsPath.sequence(64500, 3356)
        assert 3356 in path
        assert 15169 not in path
        assert 64500 in path  # eBGP loop prevention checks membership
        assert 64510 not in path

    def test_empty_segment_rejected(self):
        with pytest.raises(MalformedMessage):
            AsPath([(SegmentType.AS_SEQUENCE, ())])

    def test_oversized_segment_rejected(self):
        with pytest.raises(MalformedMessage):
            AsPath([(SegmentType.AS_SEQUENCE, tuple(range(1, 257)))])


class TestAsPathPrepend:
    def test_prepend_extends_leading_sequence(self):
        path = AsPath.sequence(3356, 15169).prepend(64500)
        assert list(path.asns()) == [64500, 3356, 15169]
        assert len(path.segments) == 1

    def test_prepend_count(self):
        path = AsPath.sequence(3356).prepend(64500, count=3)
        assert path.length() == 4
        assert list(path.asns())[:3] == [64500] * 3

    def test_prepend_onto_set_creates_new_segment(self):
        path = AsPath([(SegmentType.AS_SET, (15169,))]).prepend(64500)
        assert len(path.segments) == 2
        assert path.segments[0] == (SegmentType.AS_SEQUENCE, (64500,))

    def test_prepend_bad_count(self):
        with pytest.raises(ValueError):
            AsPath().prepend(64500, count=0)

    def test_prepend_is_pure(self):
        original = AsPath.sequence(3356)
        original.prepend(64500)
        assert original == AsPath.sequence(3356)


class TestAsPathWire:
    def test_round_trip(self):
        path = AsPath(
            [
                (SegmentType.AS_SEQUENCE, (64500, 4200000000)),
                (SegmentType.AS_SET, (15169, 8075)),
            ]
        )
        assert AsPath.decode(path.encode()) == path

    def test_four_octet_asns_survive(self):
        path = AsPath.sequence(4200000000)
        decoded = AsPath.decode(path.encode())
        assert list(decoded.asns()) == [4200000000]

    def test_truncated_rejected(self):
        from repro.netbase.errors import CodecError

        encoded = AsPath.sequence(64500, 3356).encode()
        with pytest.raises(CodecError):
            AsPath.decode(encoded[:-2])

    def test_str_rendering(self):
        path = AsPath(
            [
                (SegmentType.AS_SEQUENCE, (64500,)),
                (SegmentType.AS_SET, (15169, 8075)),
            ]
        )
        assert str(path) == "64500 {15169 8075}"


class TestCommunity:
    def test_build_and_format(self):
        value = community(64600, 911)
        assert value == (64600 << 16) | 911
        assert (value >> 16, value & 0xFFFF) == (64600, 911)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            community(70000, 1)
        with pytest.raises(ValueError):
            community(1, 70000)


class TestPathAttributes:
    def test_defaults(self):
        attrs = PathAttributes()
        assert attrs.origin is Origin.IGP
        assert attrs.effective_local_pref == 100
        assert attrs.local_pref is None

    def test_effective_local_pref_uses_value_when_set(self):
        assert PathAttributes(local_pref=300).effective_local_pref == 300
        assert PathAttributes(local_pref=0).effective_local_pref == 0

    def test_with_helpers_are_pure(self):
        attrs = PathAttributes()
        updated = attrs.with_local_pref(500).with_med(10)
        assert attrs.local_pref is None and attrs.med is None
        assert updated.local_pref == 500 and updated.med == 10

    def test_community_helpers(self):
        tag = community(64600, 911)
        attrs = PathAttributes().add_communities([tag])
        assert attrs.has_community(tag)
        more = attrs.add_communities([community(64600, 912)])
        assert more.has_community(tag)
        assert len(more.communities) == 2
        assert more.sorted_communities() == sorted(more.communities)

    def test_range_validation(self):
        with pytest.raises(MalformedMessage):
            PathAttributes(med=-1)
        with pytest.raises(MalformedMessage):
            PathAttributes(local_pref=2**32)

    def test_prepended(self):
        attrs = PathAttributes(as_path=AsPath.sequence(3356))
        assert attrs.prepended(64500).as_path == AsPath.sequence(64500, 3356)


as_path_segments = st.lists(
    st.tuples(
        st.sampled_from([SegmentType.AS_SEQUENCE, SegmentType.AS_SET]),
        st.lists(
            st.integers(min_value=1, max_value=2**32 - 1),
            min_size=1,
            max_size=8,
        ).map(tuple),
    ),
    max_size=4,
)


class TestAsPathProperties:
    @given(as_path_segments)
    def test_wire_round_trip(self, segments):
        path = AsPath(segments)
        assert AsPath.decode(path.encode()) == path

    @given(as_path_segments, st.integers(min_value=1, max_value=2**32 - 1))
    def test_prepend_grows_length_by_one(self, segments, asn):
        path = AsPath(segments)
        assert path.prepend(asn).length() == path.length() + 1

    @given(as_path_segments)
    def test_length_counts_sets_once(self, segments):
        path = AsPath(segments)
        expected = sum(
            1 if seg_type is SegmentType.AS_SET else len(asns)
            for seg_type, asns in segments
        )
        assert path.length() == expected

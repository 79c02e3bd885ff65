"""The generator: deterministic, counted, and decodable by the repo's
own strict decoders."""

import pytest

import wiregen
from repro.bgp.messages import UpdateMessage, decode_message
from repro.bmp.messages import (
    PeerDownMessage,
    RouteMonitoringMessage,
    decode_bmp_stream,
)
from repro.netbase.addr import Family, Prefix
from repro.sflow.datagram import SflowDatagram

BUILDERS = {
    "table_churn": lambda seed: wiregen.table_churn(seed, 320, 80, 32),
    "sflow_flood": lambda seed: wiregen.sflow_flood(seed, 80, 20, 32, 640),
    "route_storm": lambda seed: wiregen.route_storm(seed, 160, 40, 32, 40),
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def corpus(request):
    return BUILDERS[request.param](7)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    build = BUILDERS[name]
    assert build(7).sha256() == build(7).sha256()
    assert build(7).sha256() != build(11).sha256()


def test_bmp_chunks_decode_and_match_the_plan(corpus):
    for tick in [corpus.setup] + corpus.ticks:
        assert all(len(chunk) <= wiregen.BMP_CHUNK_BYTES for chunk in tick.bmp)
        messages, remainder = decode_bmp_stream(b"".join(tick.bmp))
        assert remainder == b""
        announced = withdrawn = 0
        for message in messages:
            if isinstance(message, RouteMonitoringMessage):
                update, consumed = decode_message(message.update_pdu)
                assert consumed == len(message.update_pdu)
                assert isinstance(update, UpdateMessage)
                announced += len(update.announced)
                withdrawn += len(update.withdrawn)
        downs = sum(isinstance(m, PeerDownMessage) for m in messages)
        expect = tick.expect
        assert (len(messages), announced, withdrawn, downs) == (
            expect.messages,
            expect.announcements,
            expect.withdrawals,
            expect.peer_downs,
        )


def test_datagrams_decode_and_match_the_plan(corpus):
    plan = corpus.plan
    for tick in [corpus.setup] + corpus.ticks:
        samples = 0
        for view in tick.sflow:
            datagram = SflowDatagram.decode(bytes(view))
            assert datagram.agent_address == wiregen.AGENT_ADDRESS
            assert 1 <= len(datagram.samples) <= wiregen.SAMPLES_PER_DATAGRAM
            samples += len(datagram.samples)
        assert (samples, len(tick.sflow)) == (
            tick.expect.samples,
            tick.expect.datagrams,
        )
    # Every sampled destination lies inside a planned prefix.
    first = SflowDatagram.decode(bytes(corpus.setup.sflow[0]))
    for sample in first.samples:
        record = sample.record
        assert any(
            prefix.contains_address(record.family, record.dst_address)
            for prefix in plan.prefixes
        )


def test_setup_dump_carries_two_routes_per_prefix(corpus):
    assert corpus.setup.expect.announcements == 2 * len(corpus.plan)


def test_v6_plan_round_trips_through_prefix():
    for index in (0, 1, 255, 65_535, 199_999):
        prefix = wiregen.nth_prefix6(index)
        assert (prefix.family, prefix.length) == (Family.IPV6, 48)
        assert Prefix.parse(str(prefix)) == prefix
    assert len({wiregen.nth_prefix6(i) for i in range(2048)}) == 2048
    assert len({wiregen.nth_prefix4(i) for i in range(70_000)}) == 70_000

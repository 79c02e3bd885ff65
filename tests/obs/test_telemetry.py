"""Integration: telemetry wired through a live PoP deployment."""

import json
import pickle

import pytest

from repro.core.pipeline import PopDeployment


@pytest.fixture(scope="module")
def deployment():
    deployment = PopDeployment.build(pop_name="pop-a", seed=7)
    start = deployment.demand.config.peak_time
    for index in range(6):
        deployment.step(start + index * deployment.tick_seconds)
    return deployment


class TestInstrumentedPipeline:
    def test_one_telemetry_shared_across_components(self, deployment):
        telemetry = deployment.telemetry
        assert deployment.controller.telemetry is telemetry
        assert deployment.simulator.telemetry is telemetry
        assert deployment.sflow.telemetry is telemetry
        assert deployment.bmp.telemetry is telemetry
        assert deployment.record.telemetry is telemetry

    def test_hot_path_spans_recorded(self, deployment):
        counts = deployment.telemetry.tracer.counts()
        assert counts["dataplane.tick"] == 6
        assert counts["controller.cycle"] == 6
        assert counts["bgp.decision"] >= 1
        assert counts["sflow.collect"] >= 1
        for span in deployment.telemetry.tracer.recent():
            assert span.duration >= 0.0

    def test_metrics_populated(self, deployment):
        registry = deployment.telemetry.registry
        assert registry.counter("pipeline_ticks_total").value() == 6
        assert registry.counter("bmp_messages_total").value() > 0
        assert registry.counter("sflow_samples_total").value() > 0
        assert (
            registry.counter("controller_cycles_total", labelnames=("status",))
            .value(status="run") >= 1
        )
        assert registry.gauge("dataplane_offered_bps").value() > 0
        assert registry.histogram("tick_wall_seconds").count() == 6

    def test_audit_explains_a_detoured_prefix(self, deployment):
        detoured = deployment.telemetry.audit.detoured_prefixes()
        assert detoured, "peak run at seed 7 must produce detours"
        explanation = deployment.telemetry.explain(detoured[0])
        assert explanation.active
        first = explanation.events[0]
        assert first.action == "announce"
        assert first.from_interface and first.to_interface
        assert first.target_session and first.preferred_session
        assert first.decisive_step
        rendered = explanation.render()
        assert "override ACTIVE" in rendered
        assert "->" in rendered

    def test_snapshot_and_jsonl(self, deployment, tmp_path):
        snapshot = deployment.telemetry.snapshot()
        assert snapshot["name"] == "pop-a"
        assert snapshot["spans"]["recorded"] > 0
        assert snapshot["audit"]["events"] > 0

        path = tmp_path / "telemetry.jsonl"
        lines = deployment.telemetry.write_jsonl(path)
        rows = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert len(rows) == lines
        kinds = {row["kind"] for row in rows}
        assert kinds == {"meta", "metric", "span", "audit"}

    def test_telemetry_is_picklable(self, deployment):
        clone = pickle.loads(pickle.dumps(deployment.telemetry))
        assert (
            clone.registry.snapshot()
            == deployment.telemetry.registry.snapshot()
        )
        assert len(clone.tracer) == len(deployment.telemetry.tracer)
        assert len(clone.audit) == len(deployment.telemetry.audit)

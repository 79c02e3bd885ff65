"""Golden decisions: recorded oracles for refactors that must not
change what the controller decides.

Each run is one sha256 over every cycle's discrete decision fields and
sorted active override targets.  No computed float enters the hash, so
it is stable across CPUs; ``decision_path`` is left out, so changing
*how* a decision is reached keeps the digest and changing *what* is
decided breaks it.  Re-record ``tests/fixtures/golden_decisions.json``
only when a decision is meant to change::

    PYTHONPATH=src python -m tests.core.test_golden_decisions
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import ControllerConfig
from repro.core.pipeline import PopDeployment
from repro.core.scale import ScaleScenario
from repro.faults import FaultInjector, FaultPlan, build_chaos_deployment

from .test_incremental_engine import small_config

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "golden_decisions.json"


def _cycle_fields(report, targets) -> bytes:
    return repr(
        (
            round(report.time * 1000),
            report.skipped,
            report.detour_count,
            report.announced,
            report.withdrawn,
            report.kept,
            report.perf_moves,
            report.installed_overrides,
            report.overloaded_interfaces,
            sorted((str(prefix), target) for prefix, target in targets.items()),
        )
    ).encode()


def _scale_digest(churn_fraction: float) -> str:
    # 20 cycles cross one periodic reconciliation (every 16th cycle).
    config = small_config(cycles=20, churn_fraction=churn_fraction)
    result = ScaleScenario(config).run()
    assert result.violations == 0
    digest = hashlib.sha256()
    for capture in result.cycles:
        digest.update(_cycle_fields(capture.report, capture.overrides))
    return digest.hexdigest()


def _deployment_digest(deployment: PopDeployment, ticks: int) -> str:
    digest = hashlib.sha256()
    reports = deployment.record.cycle_reports
    start = deployment.demand.config.peak_time
    for index in range(ticks):
        seen = len(reports)
        deployment.step(start + index * deployment.tick_seconds)
        for report in reports[seen:]:
            digest.update(
                _cycle_fields(
                    report, deployment.controller.overrides.active_targets()
                )
            )
    assert reports
    return digest.hexdigest()


def _steering_digest() -> str:
    deployment = PopDeployment.build(
        "pop-a",
        seed=7,
        controller_config=ControllerConfig(performance_aware=True),
        altpath_every_ticks=2,
        altpath_prefix_count=100,
    )
    return _deployment_digest(deployment, ticks=40)


def _chaos_digest() -> str:
    plan = FaultPlan.random(7, duration=1800.0)
    deployment = build_chaos_deployment(
        seed=7, faults=FaultInjector(plan), safety_checks=True
    )
    digest = _deployment_digest(deployment, ticks=60)
    assert not deployment.safety.violations
    return digest


RUNS = {
    "scale_small_churn_0pct": lambda: _scale_digest(0.0),
    "scale_small_churn_2pct": lambda: _scale_digest(0.02),
    "pop_a_seed7_steering_40_ticks": _steering_digest,
    "chaos_mini_seed7": _chaos_digest,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_decisions_match_golden(name):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert RUNS[name]() == golden[name]


if __name__ == "__main__":
    recorded = {name: RUNS[name]() for name in sorted(RUNS)}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(recorded, indent=2) + "\n", encoding="utf-8"
    )
    print(FIXTURE.read_text(encoding="utf-8"), end="")

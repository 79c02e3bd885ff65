"""The steering-stability gate: no tier flaps beyond the budget.

Locally this runs 1 seed per fault kind (a smoke-level gate); the CI
``steering-stability`` job sets ``STEERING_STABILITY_SEEDS=10`` for the
full sweep and ``STEERING_REPORT_DIR`` to collect one JSON transition
report per trial as a build artifact.

Each trial drives a steering-armed chaos deployment through a seeded
plan of one fault kind (``sflow_skew`` distorts the rate signals,
``link_flap`` the capacity/queue signals) and asserts every
⟨prefix, path⟩ key's tier-transition rate stayed inside the configured
flap budget — the closed loop responds to faults, it does not
oscillate on them.
"""

import os

import pytest

from repro.faults import STABILITY_FAULT_KINDS, run_stability_trial

STABILITY_SEEDS = int(os.environ.get("STEERING_STABILITY_SEEDS", "1"))


def _write_report(report_dir, name, text):
    os.makedirs(report_dir, exist_ok=True)
    path = os.path.join(report_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.mark.parametrize("fault_kind", STABILITY_FAULT_KINDS)
@pytest.mark.parametrize("seed", range(STABILITY_SEEDS))
def test_steering_stays_inside_flap_budget(seed, fault_kind):
    report = run_stability_trial(seed, fault_kind)

    report_dir = os.environ.get("STEERING_REPORT_DIR")
    if report_dir:
        _write_report(
            report_dir,
            f"steering-{fault_kind}-seed-{seed:03d}.json",
            report.to_json(),
        )

    assert report.clean, "\n" + report.render()
    # The trial was real: the engine observed the full run and tracked
    # the deployment's measured prefixes.
    assert report.cycles > 0
    assert sum(report.tier_counts.values()) > 0

    # Every recorded transition must be explainable: the audit trail
    # requirement is that the voting signals are named on each one.
    for transition in report.transitions:
        assert transition["votes"], transition
        assert any("rtt=" in vote for vote in transition["votes"])


def test_invalid_fault_kind_rejected():
    with pytest.raises(ValueError):
        run_stability_trial(0, "bmp_flap")

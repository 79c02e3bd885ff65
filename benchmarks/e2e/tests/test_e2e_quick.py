"""One ``--quick --trace`` run of the whole suite: every code path of
the runner, every correctness check, every metric BENCHMARK.json names."""

import json
import math
import subprocess
import sys

from conftest import E2E, ROOT


def test_quick_suite_is_correct_and_complete(tmp_path):
    out = tmp_path / "quick.jsonl"
    done = subprocess.run(
        [
            sys.executable,
            str(E2E / "run.py"),
            "--quick",
            "--trace",
            "--out",
            str(out),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in results] == [
        w["name"] for w in spec["workloads"]
    ]
    for result in results:
        assert result["quick"] is True
        assert result["ops_failed"] == 0, result["failures"]
        assert result["ops_attempted"] >= 16
        assert result["decision_digest"] == result["traced_decision_digest"]
        for section, values in (
            ("end_to_end", result["metrics"]),
            ("per_layer", result["layers"]),
        ):
            for metric in spec[section]:
                assert math.isfinite(values[metric["name"]]), metric["name"]
    # The last line of each workload's report is the contract's object.
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    assert len(lines) == len(results)
    for line in lines:
        report = json.loads(line)
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] is True and report["failed"] == 0

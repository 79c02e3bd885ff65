"""Shared plumbing for the gated benchmark harnesses.

Every gated bench in this directory follows one contract: run a seeded
workload, write a flat JSON result with a ``workload`` key, compare a
headline number against the committed ``*_baseline.json`` when the
workload strings match exactly, and exit non-zero when a threshold or
``--max-regression`` gate fails.  This module is that contract — the
benches keep only their workload logic.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent


def ensure_src_on_path() -> None:
    """Make ``import repro`` work when a bench runs as a script."""
    src = str(HERE.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def load_baseline(
    path: Path, workload: str, key: str
) -> Optional[float]:
    """The committed baseline's *key* value, or None.

    None when the file is missing or its ``workload`` string does not
    match this run's (baselines are per-workload; comparing across
    workloads would gate noise, so a mismatch is announced and
    skipped).
    """
    if not path.exists():
        return None
    baseline = json.loads(path.read_text())
    if baseline.get("workload") != workload:
        print(
            f"baseline workload {baseline.get('workload')!r} does "
            f"not match this run ({workload}); skipping regression "
            "comparison"
        )
        return None
    return baseline.get(key)


def write_results(path: Path, results: dict) -> None:
    path.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )


def check_regression(
    current: float,
    baseline: Optional[float],
    max_regression: Optional[float],
    label: str,
    unit: str = "s",
    fmt: str = ".2f",
) -> bool:
    """Apply a ``--max-regression`` gate; True means the gate FAILED.

    No gate requested (None) checks nothing.  A gate with no matching
    baseline fails — a regression gate that silently skips is no gate.
    """
    if max_regression is None:
        return False
    if baseline is None:
        print("no matching baseline for --max-regression check")
        return True
    limit = baseline * (1.0 + max_regression)
    if current > limit:
        print(
            f"FAIL: {label} {current:{fmt}} {unit} regressed past "
            f"{limit:{fmt}} {unit} (baseline {baseline:{fmt}} {unit} "
            f"+{max_regression:.0%})"
        )
        return True
    print(
        f"regression gate OK: {label} {current:{fmt}} {unit} <= "
        f"{limit:{fmt}} {unit}"
    )
    return False


def check_minimum(
    current: Optional[float],
    required: Optional[float],
    label: str,
    unit: str = "x",
    fmt: str = ".2f",
) -> bool:
    """Apply a ``--min-*`` threshold gate; True means it FAILED."""
    if required is None:
        return False
    if current is None or current < required:
        print(
            f"FAIL: {label} {current}{unit} < required "
            f"{required:{fmt}}{unit}"
        )
        return True
    return False


def check_maximum(
    current: float,
    budget: Optional[float],
    label: str,
    unit: str = "ms",
    fmt: str = ".1f",
) -> bool:
    """Apply a ``--max-*`` budget gate; True means it FAILED."""
    if budget is None:
        return False
    if current > budget:
        print(
            f"FAIL: {label} {current:{fmt}} {unit} over the "
            f"{budget:{fmt}} {unit} budget"
        )
        return True
    print(
        f"budget OK: {label} {current:{fmt}} {unit} <= "
        f"{budget:{fmt}} {unit}"
    )
    return False

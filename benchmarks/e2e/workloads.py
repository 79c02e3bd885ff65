"""The four workloads and the measurement of one of them in this process.

Work is fixed by the arguments, never by the clock: a workload runs
``ticks_for(name, seconds)`` ticks — its calibrated ticks-per-second
times ``--seconds``, in whole 16-tick epochs so the every-16th-cycle
drift rebuild lands the same number of times — and the byte corpora are
a function of ``--seed``, so parent and change do identical work.  Sizes
were calibrated once on the 2-core sandbox so the measured phase takes
about ``--seconds`` there, and are frozen here.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import wiregen
from layers import layer_metrics
from pops import SimPop, TickRecord, WirePop
from spans import Tracer
from wiregen import EPOCH

#: Ticks after set-up whose timings are discarded.
WARMUP_TICKS = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run whose measured phase has taken this many times ``--seconds``
#: stops at the next epoch boundary (and says so) rather than run into
#: the caller's timeout on a host far slower than the calibration one.
_OVERRUN_FACTOR = 3.0


@dataclass(frozen=True)
class Workload:
    #: Table size; 4 in 5 prefixes are v4 /24s, the rest v6 /48s.
    prefixes: int
    #: Measured ticks per second of ``--seconds`` (calibration).
    ticks_per_second: float
    #: The workload's one intensity knob: flow samples per tick
    #: (``sflow_flood``), route updates per tick (``route_storm``),
    #: alt-path prefixes measured per tick (``pop_sim``).
    load: int = 0


WORKLOADS: Dict[str, Workload] = {
    "table_churn": Workload(prefixes=16_000, ticks_per_second=38.4),
    "sflow_flood": Workload(
        prefixes=1_000, ticks_per_second=12.8, load=65_536
    ),
    "route_storm": Workload(
        prefixes=8_000, ticks_per_second=12.8, load=800
    ),
    "pop_sim": Workload(prefixes=0, ticks_per_second=6.4, load=50),
}


def ticks_for(name: str, seconds: float, quick: bool) -> int:
    if quick:
        return EPOCH if name == "pop_sim" else 2 * EPOCH
    rate = WORKLOADS[name].ticks_per_second
    return max(2, round(seconds * rate / EPOCH)) * EPOCH


def build_corpus(
    name: str, seed: int, ticks: int, quick: bool
) -> wiregen.Corpus:
    spec = WORKLOADS[name]
    prefixes = spec.prefixes // 10 if quick else spec.prefixes
    load = spec.load // 10 if quick else spec.load
    count4, count6 = prefixes * 4 // 5, prefixes // 5
    if name == "table_churn":
        return wiregen.table_churn(seed, count4, count6, ticks)
    if name == "sflow_flood":
        return wiregen.sflow_flood(seed, count4, count6, ticks, load)
    if name == "route_storm":
        return wiregen.route_storm(seed, count4, count6, ticks, load)
    raise KeyError(name)


def host_spin() -> Dict[str, float]:
    """A fixed pure-Python loop, five times: how fast and how steady the
    host is right now.  Reported, never used to rescale anything."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += (i * i) & 7
        times.append(time.perf_counter() - started)
    median = statistics.median(times)
    return {
        "bench.host_spin_ms": median * 1e3,
        "bench.host_spin_spread_pct": (max(times) - min(times))
        / median
        * 100.0,
    }


def end_to_end(
    setups: Sequence[float], measured: Sequence[TickRecord]
) -> Dict[str, float]:
    walls = [r.wall for r in measured]
    return {
        "setup_s": statistics.median(setups),
        "tick_ms_p50": statistics.median(walls) * 1e3,
        # The 19th of 20 inclusive cut points: linear interpolation.
        "tick_ms_p95": statistics.quantiles(walls, n=20, method="inclusive")[
            18
        ]
        * 1e3,
        "ksamples_per_s": statistics.median(
            r.samples / r.wall for r in measured
        )
        / 1e3,
        "cpu_ms_per_tick": statistics.median(r.cpu for r in measured) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    quick: bool,
    trace: bool,
    spans_path: Optional[str] = None,
) -> dict:
    """Run workload *name* once in this process; returns its result."""
    spec = WORKLOADS[name]
    spin = host_spin()
    ticks = ticks_for(name, seconds, quick)
    tracer = Tracer() if trace else None

    started = time.perf_counter()
    corpus = (
        None if name == "pop_sim" else build_corpus(name, seed, ticks, quick)
    )
    gen_s = time.perf_counter() - started

    def make():
        if corpus is None:
            return SimPop(seed, spec.load, tracer)
        return WirePop(corpus, tracer)

    # Restart-to-first-decision, several times over; the last stack
    # goes on to run the ticks.
    setups: List[float] = []
    failures: List[str] = []
    failed = 0
    pop = None
    for _ in range(1 if quick else SETUPS):
        pop = None
        gc.collect()
        started = time.perf_counter()
        pop = make()
        record = pop.setup()
        setups.append(time.perf_counter() - started)
        failed += bool(record.failures)
        failures += [f"set-up: {text}" for text in record.failures]

    # From here on full collections happen only where the stacks make
    # them, off the clock (see pops.collect_garbage).
    gc.collect()
    young, middle, _ = gc.get_threshold()
    gc.set_threshold(young, middle, 1 << 30)

    records: List[TickRecord] = []
    truncated = False
    deadline = time.perf_counter() + _OVERRUN_FACTOR * max(seconds, 1.0)
    for k in range(ticks):
        record = pop.tick(k)
        records.append(record)
        failed += bool(record.failures)
        failures += [f"tick {k}: {text}" for text in record.failures]
        if (
            (k + 1) % EPOCH == 0
            and k + 1 < ticks
            and time.perf_counter() > deadline
        ):
            truncated = True
            break

    measured = records[WARMUP_TICKS:]
    walls = [r.wall for r in measured]
    quartiles = statistics.quantiles(walls, n=4)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "traced": trace,
        "ticks": len(measured),
        "truncated": truncated,
        "tick_iqr_pct": (quartiles[2] - quartiles[0])
        / statistics.median(walls)
        * 100.0,
        "ops_attempted": len(setups) + len(records),
        "ops_failed": failed,
        "failures": failures[:8],
        "decision_digest": pop.digest.hexdigest(),
        "gen_s": gen_s,
        "host": spin,
        "metrics": end_to_end(setups, measured),
    }
    if tracer is not None:
        counts = pop.layer_counts()
        layers = layer_metrics(
            tracer.spans,
            records,
            WARMUP_TICKS,
            "core" if corpus is None else "harness",
            counts["bgp.rib_prefixes"],
        )
        layers.update(counts)
        layers["core.controller.restart_ms"] = pop.restart_seconds * 1e3
        layers["bench.gen_s"] = gen_s
        layers.update(spin)
        result["layers"] = layers
        if spans_path:
            result["spans"] = tracer.write_jsonl(spans_path)
    return result

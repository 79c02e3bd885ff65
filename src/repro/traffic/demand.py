"""Synthetic egress demand: who wants how much traffic, when.

The paper's controller exists because demand is *skewed* (a few prefixes
carry most traffic), *diurnal* (evening peaks roughly double the trough),
and *volatile* at short timescales (per-prefix rates move minute to
minute).  The demand model reproduces those three properties:

- per-prefix base weights are Zipf-distributed, with prefixes inside
  private peers' customer cones boosted (ASes peer privately because they
  exchange lots of traffic),
- a sinusoidal diurnal cycle scales the total,
- a per-prefix log-AR(1) process adds short-timescale volatility, and
  optional flash events multiply selected prefixes for a bounded window.

Everything is deterministic given the seed.  The model is stepped with a
non-decreasing clock; querying time ``t`` advances the AR(1) state by the
elapsed ticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..netbase.addr import Prefix
from ..netbase.errors import TrafficError
from ..netbase.units import Rate, gbps

__all__ = ["FlashEvent", "DemandConfig", "DemandModel"]

DAY_SECONDS = 86_400.0


@dataclass(frozen=True)
class FlashEvent:
    """A temporary demand surge on a set of prefixes."""

    prefixes: Tuple[Prefix, ...]
    start: float
    duration: float
    multiplier: float = 3.0

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration


@dataclass(frozen=True)
class DemandConfig:
    seed: int = 0
    #: Total PoP egress at the diurnal peak (before volatility).
    peak_total: Rate = gbps(300)
    #: Zipf exponent for per-prefix weights.
    zipf_exponent: float = 1.1
    #: Weight multiplier for "popular" (peer-cone) prefixes.
    popular_boost: float = 4.0
    #: Trough demand as a fraction of peak.
    diurnal_floor: float = 0.4
    #: Time of day (seconds) of the diurnal peak.
    peak_time: float = 64_800.0  # 18:00
    #: Volatility: stationary std-dev of log rate, and per-tick memory.
    volatility_sigma: float = 0.2
    volatility_rho: float = 0.9
    #: Tick length for the AR(1) process.
    tick_seconds: float = 60.0
    #: Mean packet size used when converting rates to packets.
    mean_packet_bytes: int = 1000

    def __post_init__(self) -> None:
        if not 0 < self.diurnal_floor <= 1:
            raise TrafficError("diurnal_floor must be in (0, 1]")
        if not 0 <= self.volatility_rho < 1:
            raise TrafficError("volatility_rho must be in [0, 1)")
        if self.tick_seconds <= 0:
            raise TrafficError("tick_seconds must be positive")


class DemandModel:
    """Per-prefix egress demand over time."""

    def __init__(
        self,
        prefixes: Sequence[Prefix],
        config: DemandConfig = DemandConfig(),
        popular: Optional[Iterable[Prefix]] = None,
        flash_events: Sequence[FlashEvent] = (),
    ) -> None:
        if not prefixes:
            raise TrafficError("demand model needs at least one prefix")
        self.config = config
        self.prefixes: List[Prefix] = list(prefixes)
        self.flash_events = tuple(flash_events)
        self._index_of = {
            prefix: index for index, prefix in enumerate(self.prefixes)
        }
        rng = np.random.default_rng(config.seed)
        self._weights = self._build_weights(rng, popular)
        count = len(self.prefixes)
        # AR(1) log-volatility state, started at stationarity.
        self._rng = rng
        self._log_state = rng.normal(0.0, config.volatility_sigma, count)
        self._current_tick = 0
        self._innovation_sigma = config.volatility_sigma * np.sqrt(
            1.0 - config.volatility_rho**2
        )

    def _build_weights(
        self, rng: np.random.Generator, popular: Optional[Iterable[Prefix]]
    ) -> np.ndarray:
        count = len(self.prefixes)
        ranks = rng.permutation(count) + 1
        weights = ranks.astype(float) ** -self.config.zipf_exponent
        if popular is not None:
            for prefix in popular:
                index = self._index_of.get(prefix)
                if index is not None:
                    weights[index] *= self.config.popular_boost
        return weights / weights.sum()

    # -- time stepping ------------------------------------------------------

    def _advance_to(self, now: float) -> None:
        tick = int(now // self.config.tick_seconds)
        if tick < self._current_tick:
            raise TrafficError(
                "demand model clock must be non-decreasing "
                f"(was at tick {self._current_tick}, asked for {tick})"
            )
        rho = self.config.volatility_rho
        while self._current_tick < tick:
            noise = self._rng.normal(
                0.0, self._innovation_sigma, len(self.prefixes)
            )
            self._log_state = rho * self._log_state + noise
            self._current_tick += 1

    def diurnal_factor(self, now: float) -> float:
        """Fraction of peak demand at time-of-day *now*."""
        floor = self.config.diurnal_floor
        phase = 2.0 * np.pi * (now - self.config.peak_time) / DAY_SECONDS
        return floor + (1.0 - floor) * 0.5 * (1.0 + np.cos(phase))

    def _flash_multipliers(self, now: float) -> Optional[np.ndarray]:
        multipliers: Optional[np.ndarray] = None
        for event in self.flash_events:
            if not event.active(now):
                continue
            if multipliers is None:
                multipliers = np.ones(len(self.prefixes))
            for prefix in event.prefixes:
                index = self._index_of.get(prefix)
                if index is not None:
                    multipliers[index] *= event.multiplier
        return multipliers

    # -- queries -----------------------------------------------------------------

    def rates(self, now: float) -> Dict[Prefix, Rate]:
        """Per-prefix demand at time *now* (advances volatility state)."""
        return {
            prefix: Rate(value)
            for prefix, value in self.rates_bps(now).items()
        }

    def rates_bps(self, now: float) -> Dict[Prefix, float]:
        """Per-prefix demand in plain bits/second (the dataplane's hot
        path accumulates floats and converts to :class:`Rate` only at
        API boundaries)."""
        values = self.rate_array(now).tolist()
        return {
            prefix: values[index]
            for index, prefix in enumerate(self.prefixes)
            if values[index] > 0.0
        }

    def rate_array(self, now: float) -> np.ndarray:
        """Per-prefix demand in bits/second, aligned with ``self.prefixes``."""
        self._advance_to(now)
        total = (
            self.config.peak_total.bits_per_second
            * self.diurnal_factor(now)
        )
        volatility = np.exp(
            self._log_state - self.config.volatility_sigma**2 / 2.0
        )
        values = total * self._weights * volatility
        flash = self._flash_multipliers(now)
        if flash is not None:
            values = values * flash
        return values

    def weight_of(self, prefix: Prefix) -> float:
        index = self._index_of.get(prefix)
        if index is None:
            raise TrafficError(f"prefix {prefix} not in demand model")
        return float(self._weights[index])

    def top_prefixes(self, count: int) -> List[Prefix]:
        """The *count* heaviest prefixes by base weight."""
        order = np.argsort(-self._weights)[:count]
        return [self.prefixes[i] for i in order]

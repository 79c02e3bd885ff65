"""Synthetic per-path performance model (RTT and loss).

The paper measures alternate-path performance with production traffic;
this reproduction substitutes a generative model with the observed shape:

- each destination prefix has a baseline RTT (lognormal across prefixes —
  nearby cable customers to far satellite links),
- each (prefix, egress path) pair has a *static* offset from baseline,
  drawn from a mixture calibrated to the paper's findings: most
  alternates are within a few milliseconds of the preferred path, a small
  minority are dramatically worse (distant detours), and a meaningful
  minority are actually *better* (the preferred path is not always the
  best performer),
- congestion adds delay as an interface approaches saturation and loss
  once offered load exceeds capacity.

The static part is a pure function of (seed, prefix, session), so any
component can ask "what would this path's RTT be" and get a consistent
answer — which is what makes the performance-aware routing experiments
reproducible.  Being pure in a frozen config, each static value is
derived once per key and remembered (one entry per prefix or
⟨prefix, session⟩ ever asked about).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..netbase.addr import Prefix

__all__ = ["PathModelConfig", "PathPerformanceModel"]


@dataclass(frozen=True)
class PathModelConfig:
    seed: int = 0
    #: Lognormal parameters for the per-prefix baseline RTT (milliseconds).
    base_rtt_median_ms: float = 45.0
    base_rtt_sigma: float = 0.55
    #: Mixture for the per-path static offset, as (probability, mu, sigma).
    offset_mixture: tuple = (
        (0.67, 2.0, 2.0),  # roughly comparable
        (0.20, -3.0, 3.0),  # alternate slightly better
        (0.03, -25.0, 10.0),  # markedly better (perf-aware candidates)
        (0.10, 30.0, 18.0),  # much worse (distant detour)
    )
    #: Baseline retransmission probability on an uncongested path.
    base_retransmit: float = 0.004
    #: Utilization where congestion effects begin.
    congestion_knee: float = 0.95
    #: Added delay (ms) when offered load reaches capacity.
    congestion_delay_ms: float = 25.0
    #: Measurement noise on individual flow RTT samples.
    flow_noise_sigma: float = 0.08


class PathPerformanceModel:
    """Deterministic per-(prefix, path) performance, plus flow sampling."""

    def __init__(self, config: PathModelConfig = PathModelConfig()) -> None:
        self.config = config
        self._memo_base_rtt: Dict[Prefix, float] = {}
        self._memo_offset: Dict[Tuple[Prefix, str], float] = {}
        self._memo_retx_base: Dict[Tuple[Prefix, str], float] = {}

    # -- deterministic medians ------------------------------------------------

    def _rng_for(self, *parts: object) -> np.random.Generator:
        text = ":".join(str(part) for part in parts)
        digest = zlib.crc32(text.encode()) ^ (self.config.seed * 0x9E3779B9)
        return np.random.default_rng(digest & 0xFFFFFFFF)

    def base_rtt_ms(self, prefix: Prefix) -> float:
        """The prefix's baseline (preferred-path) median RTT."""
        value = self._memo_base_rtt.get(prefix)
        if value is None:
            rng = self._rng_for("base", prefix)
            value = self._memo_base_rtt[prefix] = float(
                self.config.base_rtt_median_ms
                * np.exp(rng.normal(0.0, self.config.base_rtt_sigma))
            )
        return value

    def path_offset_ms(self, prefix: Prefix, session_name: str) -> float:
        """Static RTT offset of one egress path from the prefix baseline."""
        key = (prefix, session_name)
        value = self._memo_offset.get(key)
        if value is None:
            rng = self._rng_for("offset", prefix, session_name)
            probabilities = [
                component[0] for component in self.config.offset_mixture
            ]
            choice = rng.choice(len(probabilities), p=probabilities)
            _p, mu, sigma = self.config.offset_mixture[int(choice)]
            value = self._memo_offset[key] = float(rng.normal(mu, sigma))
        return value

    def congestion_delay_ms(self, utilization: float) -> float:
        """Queueing delay added at the egress as load approaches capacity."""
        knee = self.config.congestion_knee
        if utilization <= knee:
            return 0.0
        ramp = min(1.0, (utilization - knee) / (1.0 - knee))
        return self.config.congestion_delay_ms * ramp

    def congestion_loss(self, utilization: float) -> float:
        """Fraction of offered traffic dropped when demand exceeds capacity."""
        if utilization <= 1.0:
            return 0.0
        return 1.0 - 1.0 / utilization

    def path_rtt_ms(
        self,
        prefix: Prefix,
        session_name: str,
        utilization: float = 0.0,
        preferred: bool = False,
    ) -> float:
        """Median RTT of one path under the given egress utilization.

        The BGP-preferred path (``preferred=True``) anchors the prefix
        baseline: peers build direct interconnects precisely for the
        traffic they exchange, so the preferred path's uncongested RTT
        *is* the reference the alternates' offsets are measured against.
        """
        rtt = self.base_rtt_ms(prefix) + self.congestion_delay_ms(
            utilization
        )
        if not preferred:
            rtt += self.path_offset_ms(prefix, session_name)
        return max(1.0, rtt)

    def retransmit_rate(
        self, prefix: Prefix, session_name: str, utilization: float = 0.0
    ) -> float:
        """Expected retransmission fraction on one path."""
        key = (prefix, session_name)
        base = self._memo_retx_base.get(key)
        if base is None:
            rng = self._rng_for("retx", prefix, session_name)
            base = self._memo_retx_base[key] = (
                self.config.base_retransmit
                * float(np.exp(rng.normal(0.0, 0.3)))
            )
        congested = self.congestion_loss(utilization)
        # Just below saturation, queues overflow transiently.
        knee = self.config.congestion_knee
        if 1.0 >= utilization > knee:
            congested += 0.01 * (utilization - knee) / (1.0 - knee)
        return min(1.0, base + congested)

    # -- flow sampling -----------------------------------------------------------

    def sample_flows(
        self,
        prefix: Prefix,
        session_name: str,
        utilization: float,
        count: int,
        rng: np.random.Generator,
        preferred: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Passively measured flows on one path (noisy around the median).

        Returns parallel arrays: per-flow RTT (``float64`` ms) and
        whether the flow retransmitted (``bool_``).
        """
        median = self.path_rtt_ms(
            prefix, session_name, utilization, preferred=preferred
        )
        retransmit = self.retransmit_rate(prefix, session_name, utilization)
        rtts = median * np.exp(
            rng.normal(0.0, self.config.flow_noise_sigma, count)
        )
        retx = rng.random(count) < retransmit
        return rtts, retx

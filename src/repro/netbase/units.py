"""Bandwidth and data-rate units.

Interface capacities, traffic demands and projected loads are all rates.
Representing them as bare floats invites unit mistakes (bits vs bytes,
mega vs giga), so the library uses a small immutable :class:`Rate` value
type measured internally in bits per second.

``Rate`` supports the arithmetic the allocator needs — addition,
subtraction, scaling, division (ratio of two rates), and comparison — and
nothing more.
"""

from __future__ import annotations

import math
from functools import total_ordering

__all__ = ["Rate", "bps", "mbps", "gbps"]

_KILO = 1_000.0
_MEGA = 1_000_000.0
_GIGA = 1_000_000_000.0
_TERA = 1_000_000_000_000.0


@total_ordering
class Rate:
    """An immutable data rate in bits per second.

    >>> gbps(10) + gbps(2.5)
    Rate('12.500 Gbps')
    >>> gbps(5) / gbps(10)
    0.5
    >>> gbps(5) * 2
    Rate('10.000 Gbps')
    """

    __slots__ = ("_bps",)

    def __init__(self, bits_per_second: float) -> None:
        value = float(bits_per_second)
        if math.isnan(value):
            raise ValueError("rate cannot be NaN")
        if value < 0:
            raise ValueError(f"rate cannot be negative: {value}")
        object.__setattr__(self, "_bps", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rate is immutable")

    # -- accessors ---------------------------------------------------------

    @property
    def bits_per_second(self) -> float:
        return self._bps

    @property
    def gigabits_per_second(self) -> float:
        return self._bps / _GIGA

    def is_zero(self) -> bool:
        return self._bps == 0.0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Rate") -> "Rate":
        if not isinstance(other, Rate):
            return NotImplemented
        return Rate(self._bps + other._bps)

    def __sub__(self, other: "Rate") -> "Rate":
        """Subtract, flooring at zero.

        Rates are magnitudes; "capacity minus load" below zero means "no
        headroom", so a floor at zero is the semantics every caller wants.
        Use :meth:`surplus_over` when the sign matters.
        """
        if not isinstance(other, Rate):
            return NotImplemented
        return Rate(max(0.0, self._bps - other._bps))

    def surplus_over(self, other: "Rate") -> float:
        """Signed difference in bits/second (self - other)."""
        return self._bps - other._bps

    def __mul__(self, factor: float) -> "Rate":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return Rate(self._bps * factor)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rate):
            if other._bps == 0.0:
                raise ZeroDivisionError("cannot divide by a zero rate")
            return self._bps / other._bps
        if isinstance(other, (int, float)):
            return Rate(self._bps / other)
        return NotImplemented

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rate) and self._bps == other._bps

    def __lt__(self, other: "Rate") -> bool:
        if not isinstance(other, Rate):
            return NotImplemented
        return self._bps < other._bps

    def __hash__(self) -> int:
        return hash(("Rate", self._bps))

    def __reduce__(self):
        # The immutability guard in __setattr__ breaks pickle's default
        # slot restoration; rebuild through the constructor instead.
        return (Rate, (self._bps,))

    def __bool__(self) -> bool:
        return self._bps > 0.0

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Rate({str(self)!r})"

    def __str__(self) -> str:
        magnitude = abs(self._bps)
        if magnitude >= _TERA:
            return f"{self._bps / _TERA:.3f} Tbps"
        if magnitude >= _GIGA:
            return f"{self._bps / _GIGA:.3f} Gbps"
        if magnitude >= _MEGA:
            return f"{self._bps / _MEGA:.3f} Mbps"
        if magnitude >= _KILO:
            return f"{self._bps / _KILO:.3f} kbps"
        return f"{self._bps:.0f} bps"


def bps(value: float) -> Rate:
    """A rate expressed in bits per second."""
    return Rate(value)


def mbps(value: float) -> Rate:
    """A rate expressed in megabits per second."""
    return Rate(value * _MEGA)


def gbps(value: float) -> Rate:
    """A rate expressed in gigabits per second."""
    return Rate(value * _GIGA)

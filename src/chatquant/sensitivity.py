"""Sensitivity profiles of the serial max chain.

The sensitivity profile of a computation g at sensor n is the conditional
second moment of the partial derivative of g with respect to argument n,
as a function of the observed value.  It measures how much a small
quantization error at sensor n perturbs the computed output, and it is the
weight that shapes the optimal codeword density downstream.  For the max
of iid uniform(0, 1) sources, four numbers fix it for each (sensor,
message) row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SensitivityProfile"]


@dataclass(frozen=True)
class SensitivityProfile:
    """Squared sensitivity gamma^2(x | n, k) of one (sensor, message) row.

    Sensor n of N has anc = n - 1 sensors before it and rest = N - n
    after it, and message k puts their running max in the cell
    [s_l, s_u].  A sensor that hears nothing is (0, N - 1): x^(N-1).
    """

    anc: int
    rest: int
    s_l: float = 0.0
    s_u: float = 0.0

    def __post_init__(self) -> None:
        if self.anc < 0 or self.rest < 0:
            raise ValueError(f"sensor counts {self.anc}, {self.rest} must be nonnegative")
        cell = (self.s_l, self.s_u)
        if self.anc == 0 and cell != (0.0, 0.0):
            raise ValueError(f"a sensor with none before it hears no message, got {cell}")
        if self.anc > 0 and not 0.0 <= self.s_l < self.s_u <= 1.0:
            raise ValueError(f"received interval {cell} is degenerate or outside [0, 1]")

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return _max_gamma_sq(
            np.asarray(x, dtype=float), self.anc, self.rest, self.s_l, self.s_u
        )


def _max_gamma_sq(x, anc, rest, s_l, s_u):
    """Squared sensitivity of the max at a sensor with ``anc`` sensors
    before it and ``rest`` after, given that the max of the ``anc`` lies
    in [s_l, s_u]; broadcasts over all five arguments.

    Below s_l the sensor is dominated for sure, between s_l and s_u it
    matters with probability (x^anc - s_l^anc) / (s_u^anc - s_l^anc)
    relative to the incoming max, and above s_u the conditioning is moot;
    the x^rest factor from the later sensors holds throughout.  With
    s_l = s_u = 0 nothing is known and the profile is x^rest.
    """
    tail = x**rest
    # s_l = s_u makes the ramp 0/0, but then it is never selected.
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = (x**anc - s_l**anc) / (s_u**anc - s_l**anc) * tail
    return np.where(x < s_l, 0.0, np.where(x < s_u, ramp, tail))

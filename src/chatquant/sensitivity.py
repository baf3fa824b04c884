"""Functional sensitivity profiles.

The sensitivity profile of a computation g at sensor n is the conditional
second moment of the partial derivative of g with respect to argument n,
as a function of the observed value.  It measures how much a small
quantization error at sensor n perturbs the computed output, and it is the
weight that shapes the optimal codeword density downstream.

Closed forms are provided for the max computation over iid uniform(0, 1)
sources, both unconditional and conditioned on a received chat message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MessageDistribution",
    "SensitivityProfile",
    "max_conditional_sensitivity",
    "max_sensitivity",
    "serial_max_message_distribution",
]


@dataclass(frozen=True)
class SensitivityProfile:
    """Squared sensitivity gamma^2 on a bounded support.

    The squared profile is the stored primitive because every distortion
    formula consumes it directly.
    ``zero_zones`` lists the maximal subintervals where the profile
    vanishes identically (don't-care regions for quantizer design).
    """

    support: tuple[float, float]
    gamma_sq: Callable[[np.ndarray], np.ndarray]
    zero_zones: tuple[tuple[float, float], ...] = ()
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        lo, hi = self.support
        if not (hi > lo):
            raise ValueError(f"degenerate support [{lo}, {hi}]")
        probe = np.linspace(lo, hi, 65)
        vals = np.asarray(self.gamma_sq(probe), dtype=float)
        if np.any(vals < -1e-12):
            raise ValueError("squared sensitivity must be nonnegative")

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return self.gamma_sq(np.asarray(x, dtype=float))


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


def max_sensitivity(n_sensors: int) -> SensitivityProfile:
    """Profile of the max of ``n_sensors`` iid uniform(0,1) observations.

    Each sensor sees gamma^2(x) = x^(N-1): the probability that its own
    observation is the running maximum.
    """
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    rest = n_sensors - 1

    def gamma_sq(x: np.ndarray) -> np.ndarray:
        return _max_gamma_sq(np.asarray(x, dtype=float), 0, rest, 0.0, 0.0)

    return SensitivityProfile((0.0, 1.0), gamma_sq)


def max_conditional_sensitivity(
    n: int, n_sensors: int, s_l: float, s_u: float
) -> SensitivityProfile:
    """Profile of sensor ``n`` in a serial max chain, given that the
    maximum of sensors 1..n-1 was revealed to lie in [s_l, s_u].

    Three pieces (see ``_max_gamma_sq``): zero below s_l, a ramp of the
    probability that x exceeds the incoming max between s_l and s_u, and
    x^(N-n) above s_u.
    """
    if not (2 <= n <= n_sensors):
        raise ValueError(f"sensor index {n} out of range 2..{n_sensors}")
    if not (0.0 <= s_l < s_u <= 1.0):
        raise ValueError(
            f"received interval [{s_l}, {s_u}] is degenerate or outside [0, 1]"
        )
    anc = n - 1
    rest = n_sensors - n

    def gamma_sq(x: np.ndarray) -> np.ndarray:
        return _max_gamma_sq(np.asarray(x, dtype=float), anc, rest, s_l, s_u)

    zones = ((0.0, float(s_l)),) if s_l > 0 else ()
    kinks = tuple(v for v in (float(s_l), float(s_u)) if 0.0 < v < 1.0)
    return SensitivityProfile((0.0, 1.0), gamma_sq, zones, kinks)


@dataclass(frozen=True)
class MessageDistribution:
    """Distribution over chat message indices 1..K."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("need a 1-D probability vector")
        if np.any(p < 0):
            raise ValueError("message probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"message probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "probabilities", p)

    @property
    def size(self) -> int:
        return int(self.probabilities.size)

    def entropy(self) -> float:
        """Shannon entropy in bits."""
        p = self.probabilities[self.probabilities > 0]
        return float(-(p * np.log2(p)).sum())


def serial_max_message_distribution(
    n: int, partition: Sequence[float]
) -> MessageDistribution:
    """Distribution of the chat message arriving at sensor ``n`` in a
    serial max chain over iid uniform(0,1) sources.

    The message reports the partition cell of max(X_1..X_{n-1}), so cell
    (t_{k-1}, t_k] has probability t_k^(n-1) - t_{k-1}^(n-1).
    """
    if n < 2:
        raise ValueError("first chatting sensor is n = 2")
    t = np.asarray(partition, dtype=float)
    if t.ndim != 1 or t.size < 2 or not np.all(np.diff(t) > 0):
        raise ValueError("partition must be strictly increasing boundaries")
    if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
        raise ValueError("partition must cover [0, 1]")
    return MessageDistribution(np.diff(t ** (n - 1)))

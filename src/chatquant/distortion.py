"""High-resolution distortion predictors and optimal point densities.

Covers plain mean-squared error of a companding quantizer, functional MSE
of a distributed network without chatting, and the chatting forms in which
each sensor selects a codebook from the received message.  All message
expectations are exact sums over the message distribution; nothing on the
design side is sampled.

The sensors observe iid uniform(0, 1) sources, so the source density is
1 on every profile's support [0, 1] and drops out of every integral.  The
network argument of the chat predictors is duck-typed: it needs
``n_sensors``, ``message_probs(n)`` and ``conditional_profile(n, k)``
with 1-based indices.  ``ChatNetworkSpec`` provides these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .probcore import (
    _log2_moment,
    binary_entropy,
    integrate_adaptive,
    quasi_norm_one_third,
)
from .quantizer import PointDensity, _active_intervals
from .sensitivity import SensitivityProfile

if TYPE_CHECKING:  # pragma: no cover
    from .chatnet import ChatNetworkSpec

__all__ = [
    "DistortionReport",
    "EntropyCodingTable",
    "InfeasibleRateError",
    "UndefinedDistortionError",
    "beta_fixed_rate",
    "closed_form_max_nochat",
    "entropy_coding_tables",
    "fixed_rate_betas",
    "fixed_rate_message_moments",
    "hr_fmse_entropy_chat",
    "hr_fmse_fixed_rate_chat",
    "optimal_density_entropy",
    "optimal_density_fixed_rate",
]

FIXED_RATE = "fixed-rate"
ENTROPY_CONSTRAINED = "entropy-constrained"


class UndefinedDistortionError(ValueError):
    """The point density vanishes on a set of positive probability."""


class InfeasibleRateError(ValueError):
    """A rate too small to carry the mandatory coding overhead."""


@dataclass(frozen=True)
class DistortionReport:
    """Additive distortion prediction, one term per sensor.

    ``detail`` holds (sensor, message, contribution) triples where the
    contribution is already weighted by the message probability, so the
    detail rows sum to ``total``.
    """

    per_sensor_terms: np.ndarray
    total: float
    regime: str
    detail: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        terms = np.asarray(self.per_sensor_terms, dtype=float)
        if np.any(terms < 0):
            raise ValueError("distortion terms must be nonnegative")
        if abs(terms.sum() - self.total) > 1e-9 * max(1.0, abs(self.total)):
            raise ValueError("total must equal the sum of per-sensor terms")
        object.__setattr__(self, "per_sensor_terms", terms)

    def csv_rows(self) -> list[tuple[int, int, float]]:
        """Rows of (sensor, message, value); message -1 aggregates a sensor."""
        rows = list(self.detail)
        rows += [
            (n + 1, -1, float(t)) for n, t in enumerate(self.per_sensor_terms)
        ]
        return rows


def _profile_density(profile: SensitivityProfile, root, empty: str) -> PointDensity:
    """Point density proportional to ``root(gamma^2)``, zero on the
    profile's zero zones and normalized over the rest."""
    lo, hi = profile.support

    def shaped(x: np.ndarray) -> np.ndarray:
        return root(np.maximum(profile(np.asarray(x, dtype=float)), 0.0))

    try:
        return PointDensity.from_proportional(
            shaped, lo, hi, profile.zero_zones, profile.breakpoints
        )
    except ValueError as exc:
        raise UndefinedDistortionError(empty) from exc


def optimal_density_fixed_rate(profile: SensitivityProfile) -> PointDensity:
    """Fixed-rate optimal point density, proportional to (gamma^2 f)^(1/3),
    that is gamma^(2/3) for the uniform source."""
    return _profile_density(
        profile, np.cbrt, "sensitivity-weighted density has no mass"
    )


def optimal_density_entropy(profile: SensitivityProfile) -> PointDensity:
    """Entropy-constrained optimal point density, proportional to gamma."""
    return _profile_density(
        profile, np.sqrt, "sensitivity profile vanishes almost everywhere"
    )


def _profile_regions(
    profile: SensitivityProfile,
) -> tuple[list[tuple[float, float]], list[float]]:
    """Active intervals of a profile and its sorted breakpoints."""
    regions = _active_intervals(*profile.support, profile.zero_zones)
    return regions, sorted(set(profile.breakpoints))


def _weighted_quasi_norm(profile: SensitivityProfile) -> float:
    """One-third quasi-norm of gamma^2 f = gamma^2 over the profile's support.

    gamma^2 is 0 on the zero zones, so their edges are only breakpoints.
    """
    bps = set(profile.breakpoints)
    bps.update(edge for zone in profile.zero_zones for edge in zone)
    return quasi_norm_one_third(profile, *profile.support, sorted(bps))


def _density_ratio_moment(profile: SensitivityProfile, density: PointDensity) -> float:
    """E[(gamma/lambda)^2 (X)] over the profile's active region."""
    regions, bps = _profile_regions(profile)
    bps = sorted(set(bps) | set(density.breakpoints))

    def integrand(x: np.ndarray) -> np.ndarray:
        num = profile(x)
        lam = density(x)
        # inf where the density vanishes under positive weight.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = num / np.maximum(lam, 0.0) ** 2
        return np.where(num > 0.0, ratio, 0.0)

    val = sum(integrate_adaptive(integrand, a, b, bps) for a, b in regions)
    if not np.isfinite(val):
        raise UndefinedDistortionError(
            "point density vanishes where the weighted source has mass"
        )
    return val


def _require_finite_rates(rates) -> None:
    """Raise ValueError unless every rate, per sensor or per (sensor,
    message), is finite."""
    for n, r in enumerate(rates, start=1):
        if not np.all(np.isfinite(np.asarray(r, dtype=float))):
            raise ValueError(f"sensor {n}: rates must be finite, got {r}")


def _sensor_messages(spec: "ChatNetworkSpec", n: int):
    """Yield (message index, probability, conditional profile)."""
    probs = spec.message_probs(n).probabilities
    for k, p in enumerate(probs, start=1):
        if p <= 0.0:
            continue
        yield k, float(p), spec.conditional_profile(n, k)


def _dont_care_count(profile: SensitivityProfile) -> int:
    return sum(1 for a, b in profile.zero_zones if b > a)


def hr_fmse_fixed_rate_chat(
    spec: "ChatNetworkSpec",
    densities: Mapping[tuple[int, int], PointDensity] | None,
    rates: Sequence[float],
) -> DistortionReport:
    """Functional MSE of a chatting network under fixed-rate coding.

    For each sensor n and incoming message m the codebook has 2^R_n
    codewords of which L_n(m) sit in don't-care intervals, leaving
    2^R_n - L_n(m) granular cells; the per-message term is
    E[(gamma/lambda)^2] / (12 (2^R_n - L_n(m))^2), averaged exactly over
    the message distribution.  ``densities`` maps (sensor, message) to the
    point density in force; None uses the optimal density for every pair,
    for which E[(gamma/lambda)^2] collapses to the one-third quasi-norm of
    gamma^2 f.  Raises ValueError on a non-finite rate and
    ``InfeasibleRateError`` when 2^R_n - L_n(m) < 1, a rate that buys less
    than one granular cell.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size != spec.n_sensors:
        raise ValueError("need one rate per sensor")
    _require_finite_rates(rates)
    per_sensor = np.zeros(spec.n_sensors)
    detail: list[tuple[int, int, float]] = []
    for n in range(1, spec.n_sensors + 1):
        for k, p, prof in _sensor_messages(spec, n):
            granular = 2.0 ** rates[n - 1] - _dont_care_count(prof)
            # The slack lets a rate of log2(L + 1), taken back from an
            # integer size, keep its one granular cell.
            if granular < 1.0 - 1e-9:
                raise InfeasibleRateError(
                    f"sensor {n}, message {k}: rate {rates[n - 1]:g} buys "
                    f"{2.0 ** rates[n - 1]:g} cells, less than one granular "
                    f"cell beside {_dont_care_count(prof)} don't-care cells"
                )
            if densities is None:
                moment = _weighted_quasi_norm(prof)
            else:
                moment = _density_ratio_moment(prof, densities[(n, k)])
            contrib = p * moment / (12.0 * granular**2)
            per_sensor[n - 1] += contrib
            detail.append((n, k, contrib))
    return DistortionReport(
        per_sensor, float(per_sensor.sum()), FIXED_RATE, tuple(detail)
    )


@dataclass(frozen=True)
class EntropyCodingTable:
    """Per-message entropy-coding data for one sensor.

    ``constants[k]`` is the distortion coefficient of message k+1 (the
    factor multiplying the rate-dependent exponential), ``active_mass`` is
    P(A) for that message, and ``gate_bits`` the binary entropy spent
    flagging whether the observation fell in a don't-care interval.
    """

    probs: np.ndarray
    constants: np.ndarray
    active_mass: np.ndarray
    gate_bits: np.ndarray


def _entropy_message_constant(
    profile: SensitivityProfile,
    density: PointDensity | None = None,
) -> tuple[float, float, float]:
    """Coefficient, P(A) and gate bits of one (sensor, message) pair."""
    regions, bps = _profile_regions(profile)
    # The source density is 1, so P(A) is the summed length of the active
    # regions (exact: P(A) = 1/2 gates exactly one bit) and X given A is
    # uniform on A, with h(X|A) = log2 P(A).
    mass = float(sum(b - a for a, b in regions))
    if mass <= 0.0:
        raise UndefinedDistortionError("no source mass outside don't-care zones")
    h_bits = float(np.log2(mass))
    if density is None:
        # 2 E[log2 gamma | A] = E[log2 gamma^2 | A].
        shape_bits = _log2_moment(profile, regions, bps) / mass
        ratio = 1.0
    else:
        # Full form: 2^{2 E[log2 lambda | A]} * E[(gamma/lambda)^2 | A].
        # The ratio first: where lambda vanishes under positive weight it
        # raises UndefinedDistortionError, while log2 lambda would meet a
        # jump with no breakpoint and fail to settle.
        ratio = _density_ratio_moment(profile, density) / mass
        lam_bps = sorted(set(bps) | set(density.breakpoints))
        shape_bits = 2.0 * _log2_moment(density, regions, lam_bps) / mass
    coeff = (mass / 12.0) * 2.0 ** (2.0 * h_bits + shape_bits) * ratio
    return coeff, mass, binary_entropy(mass)


def entropy_coding_tables(spec: "ChatNetworkSpec") -> list[EntropyCodingTable]:
    """Entropy-coding coefficients for every sensor and message.

    These are the raw ingredients for rate allocation: sensor n with
    message k contributes probs[k] * constants[k] * 2^(-2 (R - gate) / mass)
    to the network fMSE when granted rate R on that message.
    """
    tables = []
    for n in range(1, spec.n_sensors + 1):
        probs = spec.message_probs(n).probabilities
        consts = np.zeros_like(probs)
        masses = np.ones_like(probs)
        gates = np.zeros_like(probs)
        for k, _p, prof in _sensor_messages(spec, n):
            c, m, g = _entropy_message_constant(prof)
            consts[k - 1], masses[k - 1], gates[k - 1] = c, m, g
        tables.append(EntropyCodingTable(probs, consts, masses, gates))
    return tables


def hr_fmse_entropy_chat(
    spec: "ChatNetworkSpec",
    densities: Mapping[tuple[int, int], PointDensity] | None,
    rates: Sequence[float] | Sequence[Sequence[float]],
) -> DistortionReport:
    """Functional MSE of a chatting network under entropy coding.

    ``rates`` is either one rate per sensor or one sequence per sensor
    with a rate for each incoming message.  Each (sensor, message) rate
    must exceed the gate bits H_B(P(A)) spent flagging don't-care hits;
    the remainder is amplified by 1/P(A) because the granular code runs
    only when the observation is informative.  Raises ValueError on a
    non-finite rate.
    """
    _require_finite_rates(rates)
    per_sensor = np.zeros(spec.n_sensors)
    detail: list[tuple[int, int, float]] = []
    for n in range(1, spec.n_sensors + 1):
        r_n = rates[n - 1]
        for k, p, prof in _sensor_messages(spec, n):
            r = float(r_n if np.isscalar(r_n) else r_n[k - 1])
            dens = None if densities is None else densities[(n, k)]
            coeff, mass, gate = _entropy_message_constant(prof, dens)
            if r <= gate:
                raise InfeasibleRateError(
                    f"sensor {n}, message {k}: rate {r:g} cannot cover the "
                    f"{gate:g}-bit don't-care flag"
                )
            contrib = p * coeff * 2.0 ** (-2.0 * (r - gate) / mass)
            per_sensor[n - 1] += contrib
            detail.append((n, k, contrib))
    return DistortionReport(
        per_sensor, float(per_sensor.sum()), ENTROPY_CONSTRAINED, tuple(detail)
    )


def fixed_rate_message_moments(
    spec: "ChatNetworkSpec",
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-sensor (probs, quasi-norms, don't-care counts) over messages.

    The quasi-norm entry for message k is E[(gamma/lambda)^2] under the
    optimal fixed-rate density, so sensor n's distortion with a K-cell
    codebook is sum_k probs[k] * norms[k] / (12 (K - dc[k])^2).
    """
    out = []
    for n in range(1, spec.n_sensors + 1):
        probs = spec.message_probs(n).probabilities
        norms = np.zeros_like(probs)
        dc = np.zeros(probs.size, dtype=int)
        for k, _p, prof in _sensor_messages(spec, n):
            norms[k - 1] = _weighted_quasi_norm(prof)
            dc[k - 1] = _dont_care_count(prof)
        out.append((probs, norms, dc))
    return out


def beta_fixed_rate(n: int, spec: "ChatNetworkSpec") -> float:
    """Fixed-rate distortion coefficient of sensor ``n``.

    The message-probability-weighted one-third quasi-norm of the
    conditional gamma^2 f, divided by 12; sensor n then contributes
    beta_n * 2^(-2 R_n) to the network fMSE.
    """
    return sum(
        p * _weighted_quasi_norm(prof) / 12.0
        for _k, p, prof in _sensor_messages(spec, n)
    )


def fixed_rate_betas(spec: "ChatNetworkSpec") -> np.ndarray:
    return np.array(
        [beta_fixed_rate(n, spec) for n in range(1, spec.n_sensors + 1)]
    )


def closed_form_max_nochat(n_sensors: int, budget: float, regime: str) -> float:
    """Distortion-cost trade-off for the chat-free max network.

    Equal unit-cost links split the budget evenly, R_n = C/N over iid
    uniform(0,1) sources.
    """
    if n_sensors < 1:
        raise ValueError("need at least one sensor")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if regime == FIXED_RATE:
        const = (n_sensors / 12.0) * (3.0 / (n_sensors + 2.0)) ** 3
    elif regime == ENTROPY_CONSTRAINED:
        const = (n_sensors / 12.0) * np.exp(-(n_sensors - 1.0))
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return float(const * 2.0 ** (-2.0 * budget / n_sensors))

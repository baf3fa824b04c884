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

from .probcore import _LOG_FLOOR, _log2_moment, binary_entropy, integrate_adaptive
from .quantizer import PointDensity, _active_intervals
from .sensitivity import SensitivityProfile, _max_gamma_sq

if TYPE_CHECKING:  # pragma: no cover
    from .chatnet import ChatNetworkSpec

__all__ = [
    "DistortionReport",
    "EntropyCodingTable",
    "InfeasibleRateError",
    "UndefinedDistortionError",
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


def _chat_constants(
    spec: "ChatNetworkSpec", regime: str, partitions=None
) -> tuple[np.ndarray, ...]:
    """Message laws and high-resolution constants of every (sensor,
    message) pair of a max network, for the spec's own partition or for
    each of ``partitions``, with one integration call.

    The pairs' profiles are one formula (``sensitivity._max_gamma_sq``)
    of their parameters, so every pair is a row of one row integral over
    its active region [s_l, 1]: of the cube root of gamma^2 under fixed
    rate, of log2 gamma^2 under entropy coding.  ``partitions`` is a
    (G, K+1) array of partitions of the spec's chat chain; None takes
    the spec's own (G = 1), and raises, as ``message_probs`` does, for
    networks without a closed-form message law.

    Returns (probs, dont_care, *constants), each shaped (G, N, K), K the
    message count of a chat edge (1 without chat).  A sensor that
    receives nothing has message 1 only, with probability 1.  dont_care
    is 1 where message k leaves a don't-care zone [0, t_{k-1}].  The
    constants are the one-third quasi-norm of gamma^2 under fixed rate,
    and the coefficient, P(A) and gate bits under entropy coding (see
    ``entropy_coding_tables``); a pair of probability 0 holds 0, or
    0, 1 and 0.
    """
    if regime not in (FIXED_RATE, ENTROPY_CONSTRAINED):
        raise ValueError(f"unknown regime {regime!r}")
    n_sensors = spec.n_sensors
    if partitions is None:
        for n in range(1, n_sensors + 1):
            spec.message_probs(n)
        partitions = [spec.partition]
    t = np.asarray(partitions, dtype=float)
    receives = np.array(
        [spec.graph.edge_into(n) is not None for n in range(1, n_sensors + 1)]
    )
    probs = np.zeros((t.shape[0], n_sensors, t.shape[1] - 1))
    probs[:, ~receives, 0] = 1.0
    for n in np.flatnonzero(receives) + 1:
        # As serial_max_message_distribution: t_k^(n-1) - t_{k-1}^(n-1).
        probs[:, n - 1] = np.diff(t ** (n - 1), axis=1)
    dont_care = (receives[:, None] & (t[:, None, :-1] > 0.0)).astype(int)

    g, n0, k0 = np.nonzero(probs > 0.0)
    heard = receives[n0]
    # A sensor that hears nothing is the s_l = s_u = 0 case of the formula.
    # Equal pairs, such as sensor 1 at every point of a partition grid, are
    # one row.
    pairs, pair_of = np.unique(
        np.column_stack(
            [
                np.where(heard, n0, 0),
                np.where(heard, n_sensors - 1 - n0, n_sensors - 1),
                np.where(heard, t[g, k0], 0.0),
                np.where(heard, t[g, k0 + 1], 0.0),
            ]
        ),
        axis=0,
        return_inverse=True,
    )
    pair_of = pair_of.reshape(-1)
    params = pairs.T[:, :, None, None]
    s_l, s_u = pairs[:, 2], pairs[:, 3]

    # gamma^2 vanishes on the zone [0, s_l], so each row runs over the
    # active region [s_l, 1] in two pieces split at s_u; a piece of zero
    # width (s_u = 1, or s_l = s_u = 0 where nothing is heard) adds 0.
    edges = np.column_stack([s_l, s_u, np.ones_like(s_l)])

    def gamma_sq(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return _max_gamma_sq(x, *params[:, rows])

    if regime == FIXED_RATE:
        root = integrate_adaptive(
            lambda x, rows: np.cbrt(np.maximum(gamma_sq(x, rows), 0.0)), edges
        )
        norms = np.zeros_like(probs)
        norms[g, n0, k0] = (root**3)[pair_of]
        return probs, dont_care, norms

    # X given A is uniform on A = [s_l, 1], so P(A) = 1 - s_l (exact:
    # P(A) = 1/2 gates exactly one bit) and h(X|A) = log2 P(A); a zero
    # of gamma^2 is an integrable log singularity under the floor.
    log_g2 = integrate_adaptive(
        lambda x, rows: np.log2(np.maximum(gamma_sq(x, rows), _LOG_FLOOR)), edges
    )
    mass = 1.0 - s_l
    # 2 E[log2 gamma | A] = E[log2 gamma^2 | A].
    coeff = (mass / 12.0) * 2.0 ** (2.0 * np.log2(mass) + log_g2 / mass)
    gate = np.array([binary_entropy(m) for m in mass])
    out = []
    for fill, v in ((0.0, coeff), (1.0, mass), (0.0, gate)):
        arr = np.full_like(probs, fill)
        arr[g, n0, k0] = v[pair_of]
        out.append(arr)
    return (probs, dont_care, *out)


def _spec_constants(spec: "ChatNetworkSpec", regime: str) -> tuple[np.ndarray, ...]:
    """``_chat_constants`` of the spec's own partition, each array (N, K).

    Under fixed rate a sensor's one codebook counts the don't-care cells
    of its live messages only, so dont_care is 0 where probs is.
    """
    probs, dont_care, *values = (a[0] for a in _chat_constants(spec, regime))
    if regime == FIXED_RATE:
        dont_care = np.where(probs > 0.0, dont_care, 0)
    return (probs, dont_care, *values)


def _density_constants(
    spec: "ChatNetworkSpec",
    densities: Mapping[tuple[int, int], PointDensity],
    regime: str,
) -> tuple[np.ndarray, ...]:
    """``_spec_constants`` with each pair's codebook drawn from the given
    point density instead of the optimal one, one pair at a time."""
    sizes = [spec.message_probs(n).size for n in range(1, spec.n_sensors + 1)]
    shape = (spec.n_sensors, max(sizes))
    probs, dont_care = np.zeros(shape), np.zeros(shape, dtype=int)
    fills = (0.0,) if regime == FIXED_RATE else (0.0, 1.0, 0.0)
    values = [np.full(shape, v) for v in fills]
    for n in range(1, spec.n_sensors + 1):
        for k, p, prof in _sensor_messages(spec, n):
            probs[n - 1, k - 1] = p
            dont_care[n - 1, k - 1] = _dont_care_count(prof)
            dens = densities[(n, k)]
            if regime == FIXED_RATE:
                got = (_density_ratio_moment(prof, dens),)
            else:
                got = _entropy_message_constant(prof, dens)
            for arr, v in zip(values, got):
                arr[n - 1, k - 1] = v
    return (probs, dont_care, *values)


def _per_sensor(spec: "ChatNetworkSpec", *arrays: np.ndarray):
    """Each sensor's rows of (N, K) arrays, cut to the messages it can
    receive: K behind a chat edge, else 1."""
    for n in range(spec.n_sensors):
        k = arrays[0].shape[1] if spec.graph.edge_into(n + 1) is not None else 1
        yield tuple(a[n, :k] for a in arrays)


def _fixed_rate_report(probs, dont_care, norms, rates) -> DistortionReport:
    """Fixed-rate prediction from (N, K) constants; see
    ``hr_fmse_fixed_rate_chat``."""
    per_sensor = np.zeros(probs.shape[0])
    detail: list[tuple[int, int, float]] = []
    for n, k in zip(*np.nonzero(probs > 0.0)):
        granular = 2.0 ** rates[n] - dont_care[n, k]
        # The slack lets a rate of log2(L + 1), taken back from an
        # integer size, keep its one granular cell.
        if granular < 1.0 - 1e-9:
            raise InfeasibleRateError(
                f"sensor {n + 1}, message {k + 1}: rate {rates[n]:g} buys "
                f"{2.0 ** rates[n]:g} cells, less than one granular "
                f"cell beside {dont_care[n, k]} don't-care cells"
            )
        contrib = float(probs[n, k] * norms[n, k] / (12.0 * granular**2))
        per_sensor[n] += contrib
        detail.append((int(n) + 1, int(k) + 1, contrib))
    return DistortionReport(
        per_sensor, float(per_sensor.sum()), FIXED_RATE, tuple(detail)
    )


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
    if densities is None:
        consts = _spec_constants(spec, FIXED_RATE)
    else:
        consts = _density_constants(spec, densities, FIXED_RATE)
    return _fixed_rate_report(*consts, rates)


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
    profile: SensitivityProfile, density: PointDensity
) -> tuple[float, float, float]:
    """Coefficient, P(A) and gate bits of one (sensor, message) pair whose
    codebook follows ``density``."""
    regions, bps = _profile_regions(profile)
    # The source density is 1, so P(A) is the summed length of the active
    # regions and X given A is uniform on A, with h(X|A) = log2 P(A).
    mass = float(sum(b - a for a, b in regions))
    if mass <= 0.0:
        raise UndefinedDistortionError("no source mass outside don't-care zones")
    h_bits = float(np.log2(mass))
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
    probs, _dc, *values = _spec_constants(spec, ENTROPY_CONSTRAINED)
    return [EntropyCodingTable(*row) for row in _per_sensor(spec, probs, *values)]


def _entropy_report(probs, dont_care, coeffs, masses, gates, rates) -> DistortionReport:
    """Entropy-coded prediction from (N, K) constants; see
    ``hr_fmse_entropy_chat``."""
    per_sensor = np.zeros(probs.shape[0])
    detail: list[tuple[int, int, float]] = []
    for n, k in zip(*np.nonzero(probs > 0.0)):
        r_n = rates[n]
        r = float(r_n if np.isscalar(r_n) else r_n[k])
        gate = float(gates[n, k])
        if r <= gate:
            raise InfeasibleRateError(
                f"sensor {n + 1}, message {k + 1}: rate {r:g} cannot cover the "
                f"{gate:g}-bit don't-care flag"
            )
        contrib = float(
            probs[n, k] * coeffs[n, k] * 2.0 ** (-2.0 * (r - gate) / masses[n, k])
        )
        per_sensor[n] += contrib
        detail.append((int(n) + 1, int(k) + 1, contrib))
    return DistortionReport(
        per_sensor, float(per_sensor.sum()), ENTROPY_CONSTRAINED, tuple(detail)
    )


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
    if densities is None:
        consts = _spec_constants(spec, ENTROPY_CONSTRAINED)
    else:
        consts = _density_constants(spec, densities, ENTROPY_CONSTRAINED)
    return _entropy_report(*consts, rates)


def fixed_rate_message_moments(
    spec: "ChatNetworkSpec",
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-sensor (probs, quasi-norms, don't-care counts) over messages.

    The quasi-norm entry for message k is E[(gamma/lambda)^2] under the
    optimal fixed-rate density, so sensor n's distortion with a K-cell
    codebook is sum_k probs[k] * norms[k] / (12 (K - dc[k])^2).
    """
    probs, dont_care, norms = _spec_constants(spec, FIXED_RATE)
    return [(p, q, dc) for p, dc, q in _per_sensor(spec, probs, dont_care, norms)]


def _betas(probs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Fixed-rate coefficients: message-weighted quasi-norms over 12."""
    return np.sum(probs * norms / 12.0, axis=-1)


def fixed_rate_betas(spec: "ChatNetworkSpec") -> np.ndarray:
    """Fixed-rate distortion coefficient of every sensor.

    The message-probability-weighted one-third quasi-norm of the
    conditional gamma^2 f, divided by 12; sensor n then contributes
    beta_n * 2^(-2 R_n) to the network fMSE.
    """
    probs, _dc, norms = _spec_constants(spec, FIXED_RATE)
    return _betas(probs, norms)


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

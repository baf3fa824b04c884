"""High-resolution distortion prediction.

Covers the functional MSE of a max network without chatting and the
chatting forms in which each sensor selects a codebook from the received
message, under fixed-rate and entropy coding.  One table of (sensor,
message) constants, ``_chat_constants``, feeds every prediction
(``predict``) and every allocation.  All message expectations are exact
sums over the message distribution; nothing on the design side is
sampled.

The sensors observe iid uniform(0, 1) sources, so the source density is
1 on every profile's support [0, 1] and drops out of every integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .probcore import _LOG_FLOOR, binary_entropy, integrate_adaptive
from .sensitivity import _max_gamma_sq

if TYPE_CHECKING:  # pragma: no cover
    from .chatnet import ChatNetworkSpec

__all__ = [
    "DistortionReport",
    "InfeasibleRateError",
    "closed_form_max_nochat",
    "fixed_rate_betas",
    "predict",
]

FIXED_RATE = "fixed-rate"
ENTROPY_CONSTRAINED = "entropy-constrained"


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


def _rate_array(spec: "ChatNetworkSpec", rates) -> np.ndarray:
    """``rates`` as an (N, K) array of the rate of every (sensor, message)
    pair, K the message count of a chat link (1 without chat).

    ``rates`` holds one entry per sensor: a rate, which fills the
    sensor's row, or under entropy coding a sequence of one rate per
    message the sensor can receive (K if it hears chat, else 1).
    Raises ValueError for another count or shape and for a non-finite
    rate.
    """
    if np.isscalar(rates) or len(rates) != spec.n_sensors:
        raise ValueError(
            f"sensor rates: need one rate per sensor ({spec.n_sensors}), "
            f"got {rates!r}"
        )
    for n, r in enumerate(rates, start=1):
        if not np.all(np.isfinite(np.asarray(r, dtype=float))):
            raise ValueError(f"sensor {n}: rates must be finite, got {r}")
    out = np.empty((spec.n_sensors, len(spec.partition) - 1))
    for n, r in enumerate(rates, start=1):
        if np.ndim(r) != 0:
            if spec.regime == FIXED_RATE:
                raise ValueError(
                    f"sensor {n}: fixed-rate coding takes one rate per "
                    f"sensor, got {r}"
                )
            want = out.shape[1] if spec.receives(n) else 1
            if np.ndim(r) != 1 or len(r) != want:
                raise ValueError(
                    f"sensor {n}: need one rate per message ({want}), got {r}"
                )
        out[n - 1] = r
    return out


def _chat_constants(spec: "ChatNetworkSpec", partitions=None) -> tuple[np.ndarray, ...]:
    """Message laws and high-resolution constants of every (sensor,
    message) pair of a max network in the spec's regime, for the spec's
    own partition or for each of ``partitions``, with one integration
    call.

    The pairs' profiles are one formula (``sensitivity._max_gamma_sq``)
    of their parameters, so every pair is a row of one row integral over
    its active region [s_l, 1]: of the cube root of gamma^2 under fixed
    rate, of log2 gamma^2 under entropy coding.  ``partitions`` is a
    (G, K+1) array of partitions of the spec's chat chain; None takes
    the spec's own (G = 1).

    Returns (probs, dont_care, *constants), each shaped (G, N, K), K the
    message count of a chat link (1 without chat).  A sensor that
    receives nothing has message 1 only, with probability 1.  dont_care
    is 1 where message k leaves a don't-care zone [0, t_{k-1}].  The
    constants are the one-third quasi-norm of gamma^2 under fixed rate,
    and under entropy coding the coefficient, the active mass P(A) and
    the gate bits H_B(P(A)): granted rate R, the pair then adds
    probs * coefficient * 2^(-2 (R - gate) / P(A)) to the fMSE.  A pair
    of probability 0 holds 0, or 0, 1 and 0.
    """
    n_sensors = spec.n_sensors
    if partitions is None:
        partitions = [spec.partition]
    t = np.asarray(partitions, dtype=float)
    receives = np.array([spec.receives(n) for n in range(1, n_sensors + 1)])
    probs = np.zeros((t.shape[0], n_sensors, t.shape[1] - 1))
    probs[:, ~receives, 0] = 1.0
    for n in np.flatnonzero(receives) + 1:
        # As spec.message_probs: t_k^(n-1) - t_{k-1}^(n-1).
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

    if spec.regime == FIXED_RATE:
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


def _spec_constants(spec: "ChatNetworkSpec") -> tuple[np.ndarray, ...]:
    """``_chat_constants`` of the spec's own partition, each array (N, K).

    Under fixed rate a sensor's one codebook counts the don't-care cells
    of its live messages only, so dont_care is 0 where probs is.
    """
    probs, dont_care, *values = (a[0] for a in _chat_constants(spec))
    if spec.regime == FIXED_RATE:
        dont_care = np.where(probs > 0.0, dont_care, 0)
    return (probs, dont_care, *values)


def _fixed_rate_terms(probs, norms, granular):
    """Fixed-rate terms probs * norms / (12 granular^2) of (sensor,
    message) pairs with ``granular`` granular cells, entry by entry for
    scalars or (N, K) arrays."""
    return probs * norms / (12.0 * granular**2)


def _report(regime: str, rates, probs, dont_care, *values) -> DistortionReport:
    """Prediction in ``regime`` from (N, K) rates and the (N, K) constants
    of ``_spec_constants``; see ``predict``.  One live pair at a time,
    summed in order: the array forms of 2^r and g^2 and a pairwise
    np.sum can each move a prediction's last bit."""
    per_sensor = np.zeros(probs.shape[0])
    detail: list[tuple[int, int, float]] = []
    for n, k in zip(*np.nonzero(probs > 0.0)):
        if regime == FIXED_RATE:
            (norms,) = values
            granular = 2.0 ** rates[n, k] - dont_care[n, k]
            # The slack lets a rate of log2(L + 1), taken back from an
            # integer size, keep its one granular cell.
            if granular < 1.0 - 1e-9:
                raise InfeasibleRateError(
                    f"sensor {n + 1}, message {k + 1}: rate {rates[n, k]:g} buys "
                    f"{2.0 ** rates[n, k]:g} cells, less than one granular "
                    f"cell beside {dont_care[n, k]} don't-care cells"
                )
            contrib = float(_fixed_rate_terms(probs[n, k], norms[n, k], granular))
        else:
            coeffs, masses, gates = values
            r = float(rates[n, k])
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
    return DistortionReport(per_sensor, float(per_sensor.sum()), regime, tuple(detail))


def predict(
    spec: "ChatNetworkSpec", rates: Sequence[float] | Sequence[Sequence[float]]
) -> DistortionReport:
    """Functional MSE of a chatting network at given rates, in the spec's
    regime, averaged exactly over the message distribution.

    Fixed rate: sensor n has one codebook of 2^R_n codewords, of which
    L_n(m) sit in the don't-care intervals of message m, leaving
    2^R_n - L_n(m) granular cells; the message's term is the one-third
    quasi-norm of gamma^2 f over 12 (2^R_n - L_n(m))^2.  ``rates`` holds
    one rate per sensor.

    Entropy coding: ``rates`` holds one rate per sensor or one sequence
    per sensor with a rate for each message it can receive.  Each
    (sensor, message) rate must exceed the gate bits H_B(P(A)) spent
    flagging don't-care hits; the remainder is amplified by 1/P(A)
    because the granular code runs only when the observation is
    informative.

    Raises ValueError for a rate list of another shape or a non-finite
    rate, and ``InfeasibleRateError`` for a fixed rate that buys less
    than one granular cell or an entropy rate that cannot cover its gate.
    """
    return _report(spec.regime, _rate_array(spec, rates), *_spec_constants(spec))


def _betas(probs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Fixed-rate coefficients: message-weighted quasi-norms over 12."""
    return np.sum(probs * norms / 12.0, axis=-1)


def fixed_rate_betas(spec: "ChatNetworkSpec") -> np.ndarray:
    """Fixed-rate distortion coefficient of every sensor.

    The message-probability-weighted one-third quasi-norm of the
    conditional gamma^2 f, divided by 12; sensor n then contributes
    beta_n * 2^(-2 R_n) to the network fMSE.
    """
    probs, _dc, norms = _spec_constants(spec.with_regime(FIXED_RATE))
    return _betas(probs, norms)


def closed_form_max_nochat(n_sensors: int, budget: float, regime: str) -> float:
    """Distortion-cost trade-off for the chat-free max network.

    Equal unit-cost links split the budget evenly, R_n = C/N over iid
    uniform(0,1) sources.  Raises ValueError for a sensor count that is
    not an integer >= 1 (True is not one) or a budget not finite and >= 0.
    """
    if isinstance(n_sensors, bool) or not isinstance(n_sensors, (int, np.integer)) or n_sensors < 1:
        raise ValueError(f"need an integer sensor count >= 1, got {n_sensors!r}")
    if not (np.isfinite(budget) and budget >= 0):
        raise ValueError(f"budget must be finite and nonnegative, got {budget}")
    if regime == FIXED_RATE:
        const = (n_sensors / 12.0) * (3.0 / (n_sensors + 2.0)) ** 3
    elif regime == ENTROPY_CONSTRAINED:
        const = (n_sensors / 12.0) * np.exp(-(n_sensors - 1.0))
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return float(const * 2.0 ** (-2.0 * budget / n_sensors))

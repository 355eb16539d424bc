"""Optical transmittance models for the quantum links.

One budget and two fading models cover the link classes:

* diffraction_transmittance - vacuum Gaussian-beam spreading truncated by a
  circular receive aperture; the fixed budget of satellite-satellite links
  and the static part of every budget.
* DownlinkGaussianTail - a fixed diffraction floor eta0 scaled by
  clamp(1 - |G|, 0, 1) with G ~ Normal(0, b^2); b -> 0 recovers the fixed
  channel.
* UplinkPointingFade - block fading from beam wander: within each coherence
  interval the beam centroid sits at a Rayleigh-distributed radial offset,
  attenuating the diffraction-limited transmittance by exp(-2 r^2 / w^2).

Classical radio links are modeled lossless with propagation delay only, so
they need no transmittance model here.

Transmittance values (eta) are plain floats in [0, 1]; loss in dB is
-10*log10(eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import COUNT_MAX, RngStream, check_count, check_real

DEFAULT_WAVELENGTH = 1.55e-6      # telecom band [m]
DEFAULT_FADE_COHERENCE = 1e-3     # uplink beam-wander coherence time [s]
DEFAULT_DOWNLINK_B = 0.1          # downlink Gaussian-tail fade scale b


class InfeasibleTargetError(ValueError):
    """Requested mean loss is below what pure diffraction already costs."""


@dataclass(frozen=True)
class BeamParams:
    """Gaussian beam launched with waist w0 (= transmit aperture radius)."""
    w0: float
    wavelength: float = DEFAULT_WAVELENGTH

    def __post_init__(self):
        check_real(self.w0, "w0", 0, strict=True)
        check_real(self.wavelength, "wavelength", 0, strict=True)
        if not _squares(self.w0) or self.rayleigh_range == 0.0:
            raise ValueError(f"w0={self.w0!r} at wavelength={self.wavelength!r}"
                             f" puts the Rayleigh range out of the float range")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.w0**2 / self.wavelength


def _width(beam: BeamParams, z: float) -> float:
    """w(z) at a checked distance z >= 0; a ValueError names w0, the
    wavelength and the distance when w(z)**2, or a step to it, overflows."""
    try:
        w = beam.w0 * math.sqrt(1.0 + (z / beam.rayleigh_range) ** 2)
    except ArithmeticError:
        w = math.inf
    if not _squares(w):
        raise ValueError(f"w0={beam.w0!r} at wavelength={beam.wavelength!r} "
                         f"spreads the beam out of the float range at "
                         f"distance={z!r}")
    return w


def beam_radius(beam: BeamParams, distance: float) -> float:
    """Beam radius w(z) = w0 * sqrt(1 + (z*lambda/(pi*w0^2))^2) at the
    distance z >= 0; a ValueError names w0, the wavelength and the distance
    when w(z)**2 is past the float range."""
    check_real(distance, "distance", 0)
    return _width(beam, distance)


def diffraction_transmittance(beam: BeamParams, rx_radius: float,
                              distance: float) -> float:
    """Power fraction of a centered Gaussian beam through a circular aperture.

    eta = 1 - exp(-2 * rx_radius^2 / w(z)^2) at the distance z.  Strictly
    decreasing in z and strictly increasing in rx_radius.  rx_radius and the
    distance must be finite and > 0: at infinity the formula gives 0 or 1
    with no error.  A ValueError names rx_radius when its square overflows,
    then the beam and the distance by the rule of beam_radius.
    """
    check_real(rx_radius, "rx_radius", 0, strict=True)
    check_real(distance, "distance", 0, strict=True)
    if not _squares(rx_radius):
        raise ValueError(f"rx_radius={rx_radius!r} is too large to square")
    w = _width(beam, distance)
    return 1.0 - math.exp(-2.0 * rx_radius**2 / w**2)


def _squares(x: float) -> bool:
    """Whether x**2 is finite; past the float range Python raises."""
    try:
        return x ** 2 < math.inf
    except OverflowError:
        return False


def db_from_eta(eta: float) -> float:
    """Loss in dB; eta = 0 maps to +inf (infinite loss, not an error) and
    eta = 1 to +0.0, not -0.0."""
    check_real(eta, "eta", 0.0, 1.0)
    if eta == 0.0:
        return math.inf
    return -10.0 * math.log10(eta) if eta < 1.0 else 0.0


@dataclass(frozen=True)
class DownlinkGaussianTail:
    """Fixed loss eta0 with a Gaussian-tail deviation of scale b."""
    eta0: float
    b: float

    def __post_init__(self):
        check_real(self.eta0, "eta0", 0.0, 1.0)
        check_real(self.b, "b", 0)


@dataclass(frozen=True)
class UplinkPointingFade:
    """Beam-wander fading: Rayleigh(sigma_wander) centroid offset per interval."""
    eta_diffraction: float
    beam_radius_at_rx: float
    sigma_wander: float
    fade_coherence_time: float = DEFAULT_FADE_COHERENCE

    def __post_init__(self):
        check_real(self.eta_diffraction, "eta_diffraction", 0.0, 1.0)
        check_real(self.beam_radius_at_rx, "beam_radius_at_rx", 0, strict=True)
        check_real(self.sigma_wander, "sigma_wander", 0)
        check_real(self.fade_coherence_time, "fade_coherence_time", 0,
                   strict=True)
        for name in ("beam_radius_at_rx", "sigma_wander"):   # both squared
            value = getattr(self, name)
            if not _squares(float(value)):
                raise ValueError(f"{name}={value!r} is too large to square")
            if value and float(value) ** 2 == 0.0:
                raise ValueError(f"{name}={value!r} is too small to square")


def sample_downlink(model: DownlinkGaussianTail, rng: RngStream, n: int):
    """n draws of eta = eta0 * clamp(1 - |G|, 0, 1), G ~ Normal(0, b^2):
    every b draws n normals from the stream, and b = 0 gives eta0 exactly."""
    # mapped in place over the normals this call owns; 1 - |G| b <= 1 for
    # finite G, so clamping below at 0 is the whole clamp.  A |G| b past the
    # float range clamps to 0, the limit of the overflow and its exact value
    eta = rng.standard_normal(n)
    np.abs(eta, out=eta)
    with np.errstate(over="ignore"):
        eta *= model.b
    np.subtract(1.0, eta, out=eta)
    np.maximum(eta, 0.0, out=eta)
    eta *= model.eta0
    return eta


def fade_interval(model: UplinkPointingFade, t):
    """Index k of the coherence interval [k*tau, (k+1)*tau) containing t:
    an int for a float t, an int64 array for an array of times."""
    with np.errstate(over="ignore"):        # inf is rejected below
        k = np.floor(np.asarray(t, dtype=float) / model.fade_coherence_time)
    if not np.all(np.abs(k) < 2.0**63):
        raise ValueError("t must be finite and within 2**63 intervals of 0")
    return int(k) if k.ndim == 0 else k.astype(np.int64)


def _fades_at(model: UplinkPointingFade, rng: RngStream, intervals):
    """Transmittances of the coherence intervals with the given indices:
    every sigma_wander reads the stream, and 0 gives eta_diffraction."""
    u = rng.uniforms_at(intervals)
    # Rayleigh inverse CDF; u in [0, 1) keeps the log argument in (0, 1]
    r = model.sigma_wander * np.sqrt(-2.0 * np.log1p(-u))
    # C pow(r, 2.0), as pinned; r**2, r*r and np.square round differently.
    # An exponent past the float range is -inf: its limit 0 is exact
    with np.errstate(over="ignore"):
        exponent = -2.0 * np.float_power(r, 2.0) / model.beam_radius_at_rx**2
    return model.eta_diffraction * np.exp(exponent)


def sample_uplink(model: UplinkPointingFade, rng: RngStream, t):
    """Block-fading transmittance at time t, a float or an array of times.

    The value is constant within each coherence interval and is a pure
    function of (stream key, interval index), so any two calls landing in
    the same interval agree exactly.  A float t gives a float.
    """
    eta = _fades_at(model, rng, fade_interval(model, t))
    return float(eta) if np.ndim(t) == 0 else eta


def uplink_interval_samples(model: UplinkPointingFade, rng: RngStream,
                            n: int, start: int = 0) -> np.ndarray:
    """Transmittances of coherence intervals start .. start+n-1 < 2**63: the
    values that sample_uplink gives at every t with fade_interval(t) = k."""
    n = check_count(n, "draw count", 0, COUNT_MAX)
    start = check_count(start, "start", -2**63, 2**63 - 1 - n)
    return _fades_at(model, rng, np.arange(start, start + n))


def mean_uplink_transmittance(model: UplinkPointingFade) -> float:
    """Closed-form E[eta] = eta_diffraction * gamma / (gamma + 1)
    with gamma = beam_radius_at_rx^2 / (4 * sigma_wander^2); a gamma past
    the float range gives the limit eta_diffraction."""
    if model.sigma_wander == 0.0:
        return model.eta_diffraction
    gamma = model.beam_radius_at_rx**2 / (4.0 * model.sigma_wander**2)
    if gamma == math.inf:
        return model.eta_diffraction
    return model.eta_diffraction * gamma / (gamma + 1.0)


def calibrate_uplink_sigma(eta_diffraction: float, beam_radius_at_rx: float,
                           target_mean_loss_db: float) -> float:
    """Beam-wander jitter sigma that makes the mean loss hit a target budget.

    Bisects sigma against the closed-form mean loss (monotone increasing in
    sigma) until the bracket collapses; the returned sigma reproduces the
    target well inside 0.01 dB.  Raises InfeasibleTargetError when the
    target is below the pure-diffraction loss, or when only a sigma whose
    4 sigma**2 overflows, or whose sigma**2 underflows, would reach it.
    """
    UplinkPointingFade(eta_diffraction, beam_radius_at_rx, 0.0)  # checks both
    check_real(target_mean_loss_db, "target_mean_loss_db")
    floor_db = db_from_eta(eta_diffraction)
    if target_mean_loss_db < floor_db:
        raise InfeasibleTargetError(
            f"target {target_mean_loss_db} dB is below the diffraction-only "
            f"loss {floor_db:.6f} dB")
    if target_mean_loss_db == floor_db:
        return 0.0

    def loss_at(sigma: float) -> float:
        if sigma and sigma * sigma == 0.0:  # the model rejects such a sigma
            raise InfeasibleTargetError(f"target {target_mean_loss_db} dB "
                                        f"needs a wander below the float range")
        return db_from_eta(mean_uplink_transmittance(UplinkPointingFade(
            eta_diffraction, beam_radius_at_rx, sigma)))

    lo = 0.0
    hi = beam_radius_at_rx
    while loss_at(hi) < target_mean_loss_db:
        hi *= 2.0
        if hi > 1e12 * beam_radius_at_rx:
            raise InfeasibleTargetError(
                f"target {target_mean_loss_db} dB unreachable by wander alone")
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if loss_at(mid) < target_mean_loss_db:
            lo = mid
        else:
            hi = mid
    if loss_at(hi) == math.inf:     # 4 sigma**2 overflowed to inf
        raise InfeasibleTargetError(f"target {target_mean_loss_db} dB needs a "
                                    f"wander beyond the float range")
    return 0.5 * (lo + hi)

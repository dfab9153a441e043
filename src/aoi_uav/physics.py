"""Physical models of the UAV data-collection system.

Pure, stateless evaluation of the air-to-ground channel rate, the laser
charging link, and the rotary-wing propulsion power, plus the energy-optimal
cruise speed.  All functions are deterministic 64-bit float computations and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Floor on horizontal distance when computing the elevation angle; keeps the
# directly-overhead case finite while preserving theta -> 90 deg.
EPS_DIST = 1e-6

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


class PhysicsDomainError(ValueError):
    """Input outside the physical domain of a model."""


@dataclass(frozen=True)
class ChannelParams:
    """Air-to-ground uplink channel constants.

    ``ref_snr`` is the linear ratio of reference channel power to noise power
    (80 dB -> 1e8).  ``b1``/``b2`` are the environment constants of the
    line-of-sight probability model; ``mu_los``/``mu_nlos`` are the extra
    attenuation factors of the two link states.
    """

    bandwidth_hz: float = 1e6
    ref_snr: float = 1e8
    tx_power_w: float = 0.1
    pathloss_alpha: float = 2.0
    b1: float = 9.61
    b2: float = 0.16
    mu_los: float = 1.0
    mu_nlos: float = 0.2

    def validate(self) -> None:
        for name in ("bandwidth_hz", "ref_snr", "pathloss_alpha", "b1", "b2",
                     "mu_los", "mu_nlos"):
            if getattr(self, name) <= 0.0:
                raise PhysicsDomainError(f"channel.{name} must be > 0")
        if self.tx_power_w < 0.0:
            raise PhysicsDomainError("channel.tx_power_w must be >= 0")
        if self.mu_nlos > self.mu_los:
            raise PhysicsDomainError("channel.mu_nlos must not exceed mu_los")


@dataclass(frozen=True)
class LaserParams:
    """Laser charging link constants."""

    power_w: float = 1000.0
    conversion_eff: float = 0.15
    attenuation_per_m: float = 1e-6

    def validate(self) -> None:
        if self.power_w <= 0.0:
            raise PhysicsDomainError("laser.power_w must be > 0")
        # 0 is allowed and means charging is disabled.
        if not 0.0 <= self.conversion_eff <= 1.0:
            raise PhysicsDomainError("laser.conversion_eff must be in [0, 1]")
        if self.attenuation_per_m < 0.0:
            raise PhysicsDomainError("laser.attenuation_per_m must be >= 0")


@dataclass(frozen=True)
class PropulsionParams:
    """Rotary-wing propulsion power constants."""

    blade_power_w: float = 14.7517
    induced_power_w: float = 41.5409
    tip_speed: float = 80.0
    hover_induced_speed: float = 5.0463
    drag_ratio: float = 0.5009
    air_density: float = 1.225
    rotor_solidity: float = 0.1248
    rotor_area: float = 0.1256

    def validate(self) -> None:
        for name in ("blade_power_w", "induced_power_w", "tip_speed",
                     "hover_induced_speed", "drag_ratio", "air_density",
                     "rotor_solidity", "rotor_area"):
            if getattr(self, name) <= 0.0:
                raise PhysicsDomainError(f"propulsion.{name} must be > 0")


def los_probability(elevation_deg: float, b1: float, b2: float) -> float:
    """Probability of a line-of-sight link at the given elevation angle.

    P = 1 / (1 + b1 * exp(-b2 * (theta - b1))); the NLoS probability is the
    complement.  ``elevation_deg`` must lie in [0, 90].
    """
    if not 0.0 <= elevation_deg <= 90.0:
        raise PhysicsDomainError(
            f"elevation angle {elevation_deg} outside [0, 90] degrees")
    return 1.0 / (1.0 + b1 * math.exp(-b2 * (elevation_deg - b1)))


def elevation_deg(horizontal_dist: float, altitude: float) -> float:
    """Elevation angle (degrees) seen from the ground node to the UAV."""
    return math.degrees(math.atan(altitude / max(horizontal_dist, EPS_DIST)))


def transmission_rate(params: ChannelParams, horizontal_dist: float,
                      altitude: float) -> float:
    """Uplink data rate in bit/s from a ground node to a UAV.

    The LoS/NLoS mix is weighted by the elevation-angle LoS probability and
    the path loss uses the 3-D slant distance.
    """
    if altitude <= 0.0:
        raise PhysicsDomainError("altitude must be > 0")
    if horizontal_dist < 0.0:
        raise PhysicsDomainError("horizontal distance must be >= 0")
    theta = elevation_deg(horizontal_dist, altitude)
    p_los = los_probability(theta, params.b1, params.b2)
    mix = p_los * params.mu_los + (1.0 - p_los) * params.mu_nlos
    dist = math.hypot(horizontal_dist, altitude)
    snr = params.ref_snr * params.tx_power_w * mix / dist ** params.pathloss_alpha
    return params.bandwidth_hz * math.log2(1.0 + snr)


def laser_power_received(params: LaserParams, horizontal_dist: float,
                         altitude: float) -> float:
    """Electrical power (W) a UAV harvests from a laser beam director."""
    if altitude <= 0.0:
        raise PhysicsDomainError("altitude must be > 0")
    if horizontal_dist < 0.0:
        raise PhysicsDomainError("horizontal distance must be >= 0")
    slant = math.hypot(horizontal_dist, altitude)
    return params.power_w * params.conversion_eff * math.exp(
        -params.attenuation_per_m * slant)


def propulsion_power(params: PropulsionParams, speed: float) -> float:
    """Propulsion power (W) of a rotary-wing UAV at the given speed.

    Blade-profile, induced, and parasite terms; at speed 0 this reduces
    exactly to blade_power_w + induced_power_w (hover power).
    """
    if speed < 0.0:
        raise PhysicsDomainError("speed must be >= 0")
    v2 = speed * speed
    v0sq = params.hover_induced_speed * params.hover_induced_speed
    blade = params.blade_power_w * (1.0 + 3.0 * v2 / (params.tip_speed * params.tip_speed))
    # Radicand is analytically >= 0; the clamp guards float underflow only.
    radicand = math.sqrt(1.0 + v2 * v2 / (4.0 * v0sq * v0sq)) - v2 / (2.0 * v0sq)
    induced = params.induced_power_w * math.sqrt(max(radicand, 0.0))
    parasite = (0.5 * params.drag_ratio * params.air_density
                * params.rotor_solidity * params.rotor_area * v2 * speed)
    return blade + induced + parasite


def optimal_speed(params: PropulsionParams, v_max: float, tol: float) -> float:
    """Speed in [0, v_max] minimizing propulsion power, to within ``tol``.

    Golden-section search; valid because the power curve is unimodal in speed.
    """
    if v_max <= 0.0:
        raise PhysicsDomainError("v_max must be > 0")
    if tol <= 0.0:
        raise PhysicsDomainError("tol must be > 0")
    lo, hi = 0.0, v_max
    a = hi - GOLDEN_RATIO * (hi - lo)
    b = lo + GOLDEN_RATIO * (hi - lo)
    fa, fb = propulsion_power(params, a), propulsion_power(params, b)
    while hi - lo > tol:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - GOLDEN_RATIO * (hi - lo)
            fa = propulsion_power(params, a)
        else:
            lo, a, fa = a, b, fb
            b = lo + GOLDEN_RATIO * (hi - lo)
            fb = propulsion_power(params, b)
    return 0.5 * (lo + hi)

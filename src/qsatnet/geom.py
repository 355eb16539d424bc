"""Positions, elevations, slant ranges, and light-time delays for ground
stations and circular-orbit satellites.

Orbits are Keplerian two-body circles (no J2, no drag); Earth is a sphere.
Earth rotation is a flag, off by default so geometry is time-independent in
tests and on for realistic pass simulations.

Positions and lines of sight also take arrays, one row per time, so a
session can place a whole chunk of distribution batches in one call.  Each
row equals the scalar call bit for bit: cos, sin and asin run per element
through ``math``, and lengths and dot products run the 1-D dot kernel per
row through ``np.vecdot``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .engine import check_count, check_real

R_EARTH = 6_371_000.0          # mean Earth radius [m]
MU_EARTH = 3.986004418e14      # Earth gravitational parameter [m^3/s^2]
C_LIGHT = 299_792_458.0        # [m/s]
SIDEREAL_RATE = 7.2921159e-5   # Earth rotation rate [rad/s]
GEO_ALTITUDE = 3.6e7           # coordination-tier link distance [m]
LEO_ALTITUDE_MIN = 500e3       # [m]
LEO_ALTITUDE_MAX = 1200e3      # [m]
DEFAULT_MIN_ELEVATION = math.radians(10.0)  # optical ground-station horizon mask
# the shortest length whose square is a normal float; below it the square
# loses precision and lengths and directions read wrong
MIN_LENGTH = math.sqrt(sys.float_info.min)  # about 1.5e-154 m


class Tier(Enum):
    LEO = "LEO"
    GEO = "GEO"


@dataclass(frozen=True)
class GroundStation:
    """Ground node with a telescope aperture and a pair memory.

    latitude/longitude in radians; aperture_radius in meters;
    memory_coherence_time is the maximum usable age of a stored pair [s].
    """
    id: int
    latitude: float
    longitude: float
    aperture_radius: float
    memory_coherence_time: float = 1.0
    memory_capacity: int = 100_000

    def __post_init__(self):
        check_count(self.id, "id")
        check_real(self.latitude, "latitude", -math.pi / 2, math.pi / 2)
        check_real(self.longitude, "longitude")
        check_real(self.aperture_radius, "aperture_radius", 0, strict=True)
        check_real(self.memory_coherence_time, "memory_coherence_time", 0,
                   strict=True)
        check_count(self.memory_capacity, "memory_capacity")


@dataclass(frozen=True)
class Satellite:
    """Circular-orbit satellite; angles in radians, altitude in meters."""
    id: int
    tier: Tier
    altitude: float
    aperture_radius: float
    inclination: float = 0.0
    raan: float = 0.0
    phase_at_epoch: float = 0.0

    def __post_init__(self):
        # "GEO" as a str would pass the GEO altitude band, yet no session
        # would take it for a coordinator
        if not isinstance(self.tier, Tier):
            raise ValueError(f"tier must be a geom.Tier, got {self.tier!r}")
        check_count(self.id, "id")
        check_real(self.aperture_radius, "aperture_radius", 0, strict=True)
        band = ((LEO_ALTITUDE_MIN, LEO_ALTITUDE_MAX) if self.tier is Tier.LEO
                else (GEO_ALTITUDE * (1 - 1e-9), GEO_ALTITUDE * (1 + 1e-9)))
        check_real(self.altitude, "altitude", *band)
        for name in ("inclination", "raan", "phase_at_epoch"):
            check_real(getattr(self, name), name)

    @property
    def orbital_radius(self) -> float:
        return R_EARTH + self.altitude

    @property
    def orbital_period(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.orbital_radius**3 / MU_EARTH)


@dataclass(frozen=True)
class LinkGeometry:
    """Instantaneous line-of-sight between two nodes."""
    distance: float
    propagation_delay: float


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    """fn, a math function, of each element.  libm per element keeps every
    row of an array form bit-equal to the scalar call."""
    return np.array([fn(v) for v in x.tolist()])


def _cos_sin(start: float, rate: float, t, name: str):
    """cos and sin of the angle start + rate * t, rate >= 0, as 1-D arrays,
    one element per time of t, a time or an array of times [s].  Every time
    must be finite and >= 0; the angle is largest at the latest time, and a
    ValueError names the field when that angle is past the float range."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    check_real(float(times.min()), "t", 0)
    latest = check_real(float(times.max()), "t", 0)
    if start + rate * latest == math.inf:
        raise ValueError(f"{name}={start!r} at t={latest!r} puts the angle "
                         f"past the float range")
    angle = start + rate * times
    return _per_element(math.cos, angle), _per_element(math.sin, angle)


def satellite_position(sat: Satellite, t) -> np.ndarray:
    """Earth-centered inertial position [m] at time t >= 0; for an array of
    times, one row per time.

    Uniform circular motion: in-plane angle from the ascending node is
    phase_at_epoch + sqrt(mu/r^3) * t, rotated by inclination then RAAN.
    """
    r = sat.orbital_radius
    cos_t, sin_t = _cos_sin(sat.phase_at_epoch, math.sqrt(MU_EARTH / r**3), t,
                            "phase_at_epoch")
    cos_i, sin_i = math.cos(sat.inclination), math.sin(sat.inclination)
    cos_o, sin_o = math.cos(sat.raan), math.sin(sat.raan)
    rows = r * np.column_stack((cos_o * cos_t - sin_o * sin_t * cos_i,
                                sin_o * cos_t + cos_o * sin_t * cos_i,
                                sin_t * sin_i))
    return rows if np.ndim(t) else rows[0]


def ground_position(gs: GroundStation, t=0.0,
                    earth_rotation: bool = False) -> np.ndarray:
    """Station position [m] on the spherical Earth surface at time t >= 0;
    for an array of times, one row per time.

    With earth_rotation the longitude advances at the sidereal rate;
    otherwise the position is time-independent.
    """
    cos_lon, sin_lon = _cos_sin(gs.longitude,
                                SIDEREAL_RATE if earth_rotation else 0.0, t,
                                "longitude")
    cos_lat = math.cos(gs.latitude)
    rows = R_EARTH * np.column_stack((cos_lat * cos_lon, cos_lat * sin_lon,
                                      np.full(len(cos_lon),
                                              math.sin(gs.latitude))))
    return rows if np.ndim(t) else rows[0]


def _check_distance(distance, name: str, origin: str) -> None:
    """A ValueError names the position whose distance from origin, or any
    row's, is below MIN_LENGTH or not finite."""
    if not np.all((distance >= MIN_LENGTH) & (distance < math.inf)):
        raise ValueError(f"{name} must be finite, at a distance from {origin} "
                         f"whose square is a finite normal float")


def line_of_sight(ground_pos: np.ndarray, target_pos: np.ndarray):
    """Length [m] and angle above the local horizon plane [rad] of the line
    of sight from a ground position to a target: two floats for two
    positions, two arrays for rows of positions.

    sqrt(vecdot(x, x)) is what the 1-D np.linalg.norm computes, with the
    same dot kernel, so each row equals the call on that row's positions.
    A ValueError names ground_pos when its distance from the origin is
    below MIN_LENGTH or not finite, and target_pos when its distance from
    ground_pos is.
    """
    ground = np.asarray(ground_pos, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        los = np.asarray(target_pos, dtype=float) - ground
        distance = np.sqrt(np.vecdot(los, los))
        height = np.sqrt(np.vecdot(ground, ground))
    _check_distance(height, "ground_pos", "the origin")
    _check_distance(distance, "target_pos", "ground_pos")
    up = ground / height[..., np.newaxis]
    sin_el = np.vecdot(los, up) / distance
    elevation = _per_element(lambda s: math.asin(min(1.0, max(-1.0, s))),
                             np.atleast_1d(sin_el))
    if los.ndim == 1:
        return float(distance), float(elevation[0])
    return distance, elevation


def elevation_angle(ground_pos: np.ndarray, target_pos: np.ndarray) -> float:
    """Angle of the line of sight above the local horizon plane [rad]."""
    return line_of_sight(ground_pos, target_pos)[1]


def link_geometry(pos_a: np.ndarray, pos_b: np.ndarray) -> LinkGeometry:
    """Distance and light-time delay between two positions."""
    a = np.asarray(pos_a, dtype=float)
    b = np.asarray(pos_b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        d = float(np.linalg.norm(b - a))
    _check_distance(d, "pos_b", "pos_a")
    return LinkGeometry(distance=d, propagation_delay=d / C_LIGHT)


def best_satellite(candidates: Sequence[Satellite],
                   ground_positions: Sequence[np.ndarray], t: float,
                   min_elevation: float = DEFAULT_MIN_ELEVATION) -> Optional[int]:
    """Id of the candidate maximizing its lowest elevation over the ground
    positions.

    Only candidates at or above min_elevation from every position qualify;
    ties break to the lowest satellite id.  None when no candidate qualifies.
    min_elevation must be finite and in [-pi/2, pi/2].
    """
    check_real(min_elevation, "min_elevation", -math.pi / 2, math.pi / 2)
    ranked = []                 # (score, -id): max takes the lowest id on ties
    for sat in candidates:
        pos_s = satellite_position(sat, t)
        score = min(elevation_angle(g, pos_s) for g in ground_positions)
        if score >= min_elevation:
            ranked.append((score, -sat.id))
    return -max(ranked)[1] if ranked else None


def select_leo(candidates: Sequence[Satellite], gs_a: GroundStation,
               gs_b: GroundStation, t: float,
               min_elevation: float = DEFAULT_MIN_ELEVATION,
               earth_rotation: bool = False) -> Optional[int]:
    """Pick the relay satellite maximizing min(elevation at a, elevation at b).

    Only candidates visible from both stations (both elevations at or above
    min_elevation) qualify; ties break to the lowest satellite id.  Returns
    the chosen id, or None when no candidate is visible from both.
    """
    for sat in candidates:
        if sat.tier is not Tier.LEO:
            raise ValueError(f"candidate {sat.id} is not LEO tier")
    return best_satellite(candidates, [ground_position(gs_a, t, earth_rotation),
                                       ground_position(gs_b, t, earth_rotation)],
                          t, min_elevation)

"""Positions, elevations, slant ranges, and light-time delays for ground
stations and circular-orbit satellites.

Orbits are Keplerian two-body circles (no J2, no drag); Earth is a sphere.
Earth rotation is a flag, off by default so geometry is time-independent in
tests and on for realistic pass simulations.
"""

from __future__ import annotations

import math
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


def satellite_position(sat: Satellite, t: float) -> np.ndarray:
    """Earth-centered inertial position [m] at time t >= 0.

    Uniform circular motion: in-plane angle from the ascending node is
    phase_at_epoch + sqrt(mu/r^3) * t, rotated by inclination then RAAN.
    """
    check_real(t, "t", 0)
    r = sat.orbital_radius
    theta = sat.phase_at_epoch + math.sqrt(MU_EARTH / r**3) * t
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cos_i, sin_i = math.cos(sat.inclination), math.sin(sat.inclination)
    cos_o, sin_o = math.cos(sat.raan), math.sin(sat.raan)
    return r * np.array([
        cos_o * cos_t - sin_o * sin_t * cos_i,
        sin_o * cos_t + cos_o * sin_t * cos_i,
        sin_t * sin_i,
    ])


def ground_position(gs: GroundStation, t: float = 0.0,
                    earth_rotation: bool = False) -> np.ndarray:
    """Station position [m] on the spherical Earth surface at time t >= 0.

    With earth_rotation the longitude advances at the sidereal rate;
    otherwise the position is time-independent.
    """
    check_real(t, "t", 0)
    lon = gs.longitude + (SIDEREAL_RATE * t if earth_rotation else 0.0)
    cos_lat = math.cos(gs.latitude)
    return R_EARTH * np.array([
        cos_lat * math.cos(lon),
        cos_lat * math.sin(lon),
        math.sin(gs.latitude),
    ])


def line_of_sight(ground_pos: np.ndarray,
                  target_pos: np.ndarray) -> tuple[float, float]:
    """Length [m] and angle above the local horizon plane [rad] of the line
    of sight from a ground position to a target."""
    ground = np.asarray(ground_pos, dtype=float)
    los = np.asarray(target_pos, dtype=float) - ground
    distance = float(np.linalg.norm(los))
    if distance == 0.0:
        raise ValueError("coincident points: elevation undefined")
    up = ground / float(np.linalg.norm(ground))
    sin_el = float(np.dot(los, up)) / distance
    return distance, math.asin(min(1.0, max(-1.0, sin_el)))


def elevation_angle(ground_pos: np.ndarray, target_pos: np.ndarray) -> float:
    """Angle of the line of sight above the local horizon plane [rad]."""
    return line_of_sight(ground_pos, target_pos)[1]


def link_geometry(pos_a: np.ndarray, pos_b: np.ndarray) -> LinkGeometry:
    """Distance and light-time delay between two positions."""
    a = np.asarray(pos_a, dtype=float)
    b = np.asarray(pos_b, dtype=float)
    d = float(np.linalg.norm(b - a))
    if d == 0.0:
        raise ValueError("coincident points: link geometry undefined")
    return LinkGeometry(distance=d, propagation_delay=d / C_LIGHT)


def best_satellite(candidates: Sequence[Satellite],
                   ground_positions: Sequence[np.ndarray], t: float,
                   min_elevation: float = DEFAULT_MIN_ELEVATION) -> Optional[int]:
    """Id of the candidate maximizing its lowest elevation over the ground
    positions.

    Only candidates at or above min_elevation from every position qualify;
    ties break to the lowest satellite id.  None when no candidate qualifies.
    """
    best_id = None
    best_score = -math.inf
    for sat in candidates:
        pos_s = satellite_position(sat, t)
        score = min(elevation_angle(g, pos_s) for g in ground_positions)
        if score < min_elevation:
            continue
        if score > best_score or (score == best_score and
                                  (best_id is None or sat.id < best_id)):
            best_score = score
            best_id = sat.id
    return best_id


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

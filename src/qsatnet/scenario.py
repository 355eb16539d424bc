"""Scenario files: plain-text INI with one section per node.

Layout (# comments allowed anywhere).  The keys commented out are optional:
an absent one is not passed on, so the constructor it feeds takes its own
default.  [scenario] feeds Engine (seed), Engine.run_until (t_end) and
Network (earth_rotation, min_elevation_deg); [channel] feeds Network too.
[protocol] feeds Network.request (requester, responder, qubits,
pairs_target), and each of its other keys the Network keyword of the same
name.

    [scenario]
    t_end = 1.0
    # seed = 42
    # earth_rotation = on
    # min_elevation_deg = 15.0

    [station.alice]          # one per ground station
    id = 1
    latitude_deg = 0.0
    longitude_deg = 0.0
    aperture_radius_m = 1.25
    # memory_coherence_s = 0.5
    # memory_capacity = 5000

    [station.bob]
    id = 2
    latitude_deg = 0.0
    longitude_deg = 4.0
    aperture_radius_m = 1.25

    [satellite.leo1]         # one per satellite
    id = 201
    tier = LEO               # or GEO
    altitude_m = 1200e3      # optional for GEO, which sits at geom.GEO_ALTITUDE
    aperture_radius_m = 0.2
    # inclination_deg = 30.0
    # raan_deg = 15.0
    # phase_at_epoch_deg = 2.0

    [channel]                # optional section
    # wavelength_m = 1.3e-6
    # downlink_b = 0.2

    [protocol]               # optional section; without it nothing is requested
    requester = alice        # station section names
    responder = bob
    qubits = 50
    pairs_target = 10000
    # distill_rounds = 2
    # yield_rate = 0.1       # default: the product-channel mean rate
    # yield_samples = 50000
    # batch_size = 5000      # default: one batch
    # source_rate_hz = 2e6
    # min_raw_pairs = 10

A key that its section's key table does not list is rejected as
`[section] key: unknown key`.  configparser copies each [DEFAULT] key into
every section, and no key is known to every section, so [DEFAULT] must be
empty.  All ids (stations and satellites together) must be unique and
[protocol] may name only defined stations; validation runs before any
simulation starts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional

from . import geom
from .proto import Network
from .engine import (COUNT_MAX, DEFAULT_SEED, SEED_MAX, Engine, check_count,
                     check_real)


class ConfigError(ValueError):
    """Scenario file problem, reported with its section and field."""

    def __init__(self, message: str, section: str = "", option: str = ""):
        where = f"[{section}]" if section else ""
        if option:
            where += f" {option}"
        super().__init__(f"{where}: {message}" if where else message)


@dataclass
class Scenario:
    """A loaded scenario.  network holds every Network keyword the file
    sets, from [scenario], [channel] and [protocol]; request holds the
    keywords for Network.request (None without a [protocol] section)."""
    t_end: float
    stations: list
    satellites: list
    seed: int = DEFAULT_SEED
    network: dict = field(default_factory=dict)
    request: Optional[dict] = None


def _to_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _int(lo: int, hi: Optional[int] = None):
    """Converter for a whole number of at least lo and, when hi is given, at
    most hi.  Integer text is read exactly; 1e3-style text only when it
    names an integer exactly, so a 17-digit seed is never rounded through a
    float."""
    def conv(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            real = float(raw)
            if not (math.isfinite(real) and real == int(real)):
                raise ValueError("not an integer") from None
            if Decimal(raw) != real:
                raise ValueError("not exact as a float; write the integer's "
                                 "digits") from None
            value = int(real)
        return check_count(value, "value", lo, hi)
    return conv


def _real(lo: float = -math.inf, hi: float = math.inf, strict: bool = False):
    """Converter for a finite float in [lo, hi], or in (lo, hi] when strict."""
    return lambda raw: check_real(float(raw), "value", lo, hi, strict)


def _deg(lo: float = -math.inf, hi: float = math.inf):
    """Converter for an angle in degrees within [lo, hi], to radians."""
    degrees = _real(lo, hi)
    return lambda raw: math.radians(degrees(raw))


# Key tables: INI key -> (constructor keyword, converter, required).
# [scenario] feeds two constructors, one table each
_SCENARIO = {
    "seed": ("seed", _int(0, SEED_MAX), False),
    "t_end": ("t_end", _real(0), True),
}
_GEOMETRY = {
    "earth_rotation": ("earth_rotation", _to_bool, False),
    "min_elevation_deg": ("min_elevation", _deg(-90, 90), False),
}
_CHANNEL = {
    "wavelength_m": ("wavelength", _real(0, strict=True), False),
    "downlink_b": ("downlink_b", _real(0), False),
}
_STATION = {
    "id": ("id", _int(0), True),
    "latitude_deg": ("latitude", _deg(-90, 90), True),
    "longitude_deg": ("longitude", _deg(), True),
    "aperture_radius_m": ("aperture_radius", _real(0, strict=True), True),
    "memory_coherence_s": ("memory_coherence_time", _real(0, strict=True),
                           False),
    "memory_capacity": ("memory_capacity", _int(0), False),
}
_SATELLITE = {
    "id": ("id", _int(0), True),
    "tier": ("tier", lambda raw: geom.Tier(raw.upper()), True),
    # required for LEO; load_scenario puts GEO satellites at GEO_ALTITUDE
    "altitude_m": ("altitude", _real(), False),
    "aperture_radius_m": ("aperture_radius", _real(0, strict=True), True),
    "inclination_deg": ("inclination", _deg(), False),
    "raan_deg": ("raan", _deg(), False),
    "phase_at_epoch_deg": ("phase_at_epoch", _deg(), False),
}
# [protocol] feeds two constructors, one table each
_REQUEST = {
    "requester": ("a_id", str, True),     # a station name until resolved
    "responder": ("b_id", str, True),
    "qubits": ("qubits", _int(1, COUNT_MAX), True),
    "pairs_target": ("pairs_target", _int(1, COUNT_MAX), True),
}
_NETWORK = {
    "distill_rounds": ("distill_rounds", _int(1, COUNT_MAX), False),
    "yield_rate": ("yield_rate", _real(0, 1), False),
    "yield_samples": ("yield_samples", _int(1, COUNT_MAX), False),
    "batch_size": ("batch_size", _int(1), False),
    "source_rate_hz": ("source_rate_hz", _real(0, strict=True), False),
    "min_raw_pairs": ("min_raw_pairs", _int(0), False),
}


def _read(parser, section: str, *tables) -> list[dict]:
    """The section's keys as one keyword dict per table.  A key in no table
    is rejected; an absent optional key is left out of its dict."""
    for key in parser.options(section):
        if not any(key in table for table in tables):
            raise ConfigError("unknown key", section, key)
    out = []
    for table in tables:
        kwargs = {}
        for key, (keyword, conv, required) in table.items():
            if not parser.has_option(section, key):
                if required:
                    raise ConfigError("missing required field", section, key)
                continue
            raw = parser.get(section, key)
            try:
                kwargs[keyword] = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value {raw!r}: {exc}", section,
                                  key) from exc
        out.append(kwargs)
    return out


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; raises ConfigError on any defect."""
    # values are plain text: no %-interpolation, so a stray % is a bad value
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}")

    if not parser.has_section("scenario"):
        raise ConfigError("missing section", "scenario")
    settings, network = _read(parser, "scenario", _SCENARIO, _GEOMETRY)
    if parser.has_section("channel"):
        network.update(*_read(parser, "channel", _CHANNEL))

    stations, satellites = [], []
    station_ids: dict[str, int] = {}
    seen_ids: dict[int, str] = {}
    for section in parser.sections():
        if section.startswith("station."):
            node = _node(section, geom.GroundStation,
                         *_read(parser, section, _STATION))
            station_ids[section.split(".", 1)[1]] = node.id
            stations.append(node)
        elif section.startswith("satellite."):
            kwargs, = _read(parser, section, _SATELLITE)
            if kwargs["tier"] is geom.Tier.GEO:
                kwargs.setdefault("altitude", geom.GEO_ALTITUDE)
            elif "altitude" not in kwargs:
                raise ConfigError("missing required field", section,
                                  "altitude_m")
            node = _node(section, geom.Satellite, kwargs)
            satellites.append(node)
        elif section in ("scenario", "channel", "protocol"):
            continue
        else:
            raise ConfigError("unknown section", section)
        if node.id in seen_ids:
            raise ConfigError(f"duplicate id {node.id} (already used by "
                              f"[{seen_ids[node.id]}])", section, "id")
        seen_ids[node.id] = section

    request = None
    if parser.has_section("protocol"):
        request, protocol = _read(parser, "protocol", _REQUEST, _NETWORK)
        network.update(protocol)
        for keyword, key in (("a_id", "requester"), ("b_id", "responder")):
            name = request[keyword]
            if name not in station_ids:
                raise ConfigError(f"references undefined station {name!r}",
                                  "protocol", key)
            request[keyword] = station_ids[name]
        if request["a_id"] == request["b_id"]:
            raise ConfigError("requester and responder must differ", "protocol")

    if not stations:
        raise ConfigError("no [station.*] sections defined")
    return Scenario(stations=stations, satellites=satellites, network=network,
                    request=request, **settings)


def _node(section: str, cls, kwargs: dict):
    """cls(**kwargs), with a ValueError from the node's own range checks
    reported against its section."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), section) from exc


def run_scenario(scenario: Scenario, trace_sink=None):
    """Execute the configured session to completion or t_end.

    Returns (network, summary dict).
    """
    engine = Engine(seed=scenario.seed)
    network = Network(engine, scenario.stations, scenario.satellites,
                      trace_sink=trace_sink, **scenario.network)
    if scenario.request is not None:
        network.request(**scenario.request)
    engine.run_until(scenario.t_end)
    return network, network.summary()

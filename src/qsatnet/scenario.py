"""Scenario files: plain-text INI with one section per node.

Layout (# comments allowed anywhere):

    [scenario]
    seed = 42
    t_end = 1.0
    earth_rotation = off
    min_elevation_deg = 10.0

    [station.<name>]         # one per ground station
    id = 1
    latitude_deg = 0.0
    longitude_deg = 0.0
    aperture_radius_m = 1.25
    memory_coherence_s = 1.0
    memory_capacity = 100000

    [satellite.<name>]       # one per satellite
    id = 201
    tier = LEO               # or GEO
    altitude_m = 1200e3
    aperture_radius_m = 0.2
    inclination_deg = 0.0    # optional, with raan_deg / phase_at_epoch_deg
    raan_deg = 0.0
    phase_at_epoch_deg = 2.0

    [channel]
    wavelength_m = 1.55e-6
    downlink_b = 0.1

    [protocol]
    requester = alice        # station section names
    responder = bob
    qubits = 50
    pairs_target = 10000
    distill_rounds = 1
    # yield_rate = 0.1       # optional; default is the product-channel mean rate
    yield_samples = 100000
    # batch_size = 5000      # optional; default emits one batch
    source_rate_hz = 1e6
    min_raw_pairs = 1

All ids (stations and satellites together) must be unique and every name
referenced in [protocol] must be defined; validation runs before any
simulation starts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional

from . import channel as ch
from . import geom
from .proto import DistillationPolicy, Network
from .engine import SEED_MAX, Engine, check_count, check_real


class ConfigError(ValueError):
    """Scenario file problem, reported with its section and field."""

    def __init__(self, message: str, section: str = "", option: str = ""):
        where = f"[{section}]" if section else ""
        if option:
            where += f" {option}"
        super().__init__(f"{where}: {message}" if where else message)
        self.section = section
        self.option = option


@dataclass
class ProtocolParams:
    requester: int
    responder: int
    qubits: int
    pairs_target: int
    policy: DistillationPolicy
    batch_size: Optional[int] = None
    source_rate_hz: float = 1e6
    min_raw_pairs: int = 1


@dataclass
class Scenario:
    seed: int
    t_end: float
    earth_rotation: bool
    min_elevation: float
    stations: list = field(default_factory=list)
    satellites: list = field(default_factory=list)
    wavelength: float = ch.DEFAULT_WAVELENGTH
    downlink_b: float = 0.1
    protocol: Optional[ProtocolParams] = None


def _get(parser, section, option, conv, default=None, required=False):
    if not parser.has_option(section, option):
        if required:
            raise ConfigError("missing required field", section, option)
        return default
    raw = parser.get(section, option)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r}: {exc}", section, option) from exc


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


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


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; raises ConfigError on any defect."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}")

    if not parser.has_section("scenario"):
        raise ConfigError("missing section", "scenario")
    scenario = Scenario(
        seed=_get(parser, "scenario", "seed", _int(0, SEED_MAX), default=0),
        t_end=_get(parser, "scenario", "t_end", _real(0), required=True),
        earth_rotation=_get(parser, "scenario", "earth_rotation", _to_bool,
                            default=False),
        min_elevation=math.radians(_get(parser, "scenario", "min_elevation_deg",
                                        _real(-90, 90), default=10.0)),
    )

    if parser.has_section("channel"):
        scenario.wavelength = _get(parser, "channel", "wavelength_m",
                                   _real(0, strict=True),
                                   default=ch.DEFAULT_WAVELENGTH)
        scenario.downlink_b = _get(parser, "channel", "downlink_b", _real(0),
                                   default=0.1)

    names: dict[str, int] = {}
    seen_ids: dict[int, str] = {}
    for section in parser.sections():
        if section.startswith("station."):
            node_id = _get(parser, section, "id", _int(0), required=True)
            station = _node(section, lambda: geom.GroundStation(
                    id=node_id,
                    latitude=math.radians(_get(parser, section, "latitude_deg",
                                               _real(-90, 90), required=True)),
                    longitude=math.radians(_get(parser, section, "longitude_deg",
                                                _real(), required=True)),
                    aperture_radius=_get(parser, section, "aperture_radius_m",
                                         _real(0, strict=True), required=True),
                    memory_coherence_time=_get(parser, section,
                                               "memory_coherence_s",
                                               _real(0, strict=True),
                                               default=1.0),
                    memory_capacity=_get(parser, section, "memory_capacity",
                                         _int(0), default=100_000),
            ))
            _register(seen_ids, node_id, section)
            names[section.split(".", 1)[1]] = node_id
            scenario.stations.append(station)
        elif section.startswith("satellite."):
            node_id = _get(parser, section, "id", _int(0), required=True)
            tier_raw = _get(parser, section, "tier", str, required=True).strip().upper()
            if tier_raw not in ("LEO", "GEO"):
                raise ConfigError(f"tier must be LEO or GEO, got {tier_raw!r}",
                                  section, "tier")
            tier = geom.Tier[tier_raw]
            default_alt = geom.GEO_ALTITUDE if tier is geom.Tier.GEO else None
            altitude = _get(parser, section, "altitude_m", _real(),
                            default=default_alt,
                            required=tier is geom.Tier.LEO)
            sat = _node(section, lambda: geom.Satellite(
                    id=node_id,
                    tier=tier,
                    altitude=altitude,
                    aperture_radius=_get(parser, section, "aperture_radius_m",
                                         _real(0, strict=True), required=True),
                    inclination=math.radians(_get(parser, section,
                                                  "inclination_deg", _real(),
                                                  default=0.0)),
                    raan=math.radians(_get(parser, section, "raan_deg", _real(),
                                           default=0.0)),
                    phase_at_epoch=math.radians(_get(parser, section,
                                                     "phase_at_epoch_deg",
                                                     _real(), default=0.0)),
            ))
            _register(seen_ids, node_id, section)
            names[section.split(".", 1)[1]] = node_id
            scenario.satellites.append(sat)
        elif section not in ("scenario", "channel", "protocol"):
            raise ConfigError("unknown section", section)

    if parser.has_section("protocol"):
        requester = _get(parser, "protocol", "requester", str, required=True).strip()
        responder = _get(parser, "protocol", "responder", str, required=True).strip()
        station_names = {n for n in names
                         if any(s.id == names[n] for s in scenario.stations)}
        for role, name in (("requester", requester), ("responder", responder)):
            if name not in station_names:
                raise ConfigError(f"references undefined station {name!r}",
                                  "protocol", role)
        if requester == responder:
            raise ConfigError("requester and responder must differ", "protocol")
        scenario.protocol = ProtocolParams(
            requester=names[requester],
            responder=names[responder],
            qubits=_get(parser, "protocol", "qubits", _int(1), required=True),
            pairs_target=_get(parser, "protocol", "pairs_target", _int(1),
                              required=True),
            policy=DistillationPolicy(
                rounds=_get(parser, "protocol", "distill_rounds", _int(1),
                            default=1),
                yield_rate=_get(parser, "protocol", "yield_rate", _real(0, 1),
                                default=None),
                yield_samples=_get(parser, "protocol", "yield_samples", _int(1),
                                   default=100_000),
            ),
            batch_size=_get(parser, "protocol", "batch_size", _int(1),
                            default=None),
            source_rate_hz=_get(parser, "protocol", "source_rate_hz",
                                _real(0, strict=True), default=1e6),
            min_raw_pairs=_get(parser, "protocol", "min_raw_pairs", _int(0),
                               default=1),
        )

    if not scenario.stations:
        raise ConfigError("no [station.*] sections defined")
    return scenario


def _node(section: str, build):
    """build(), with a ValueError from the node's own range checks reported
    against its section; a field's ConfigError passes through as it is."""
    try:
        return build()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), section) from exc


def _register(seen_ids: dict, node_id: int, section: str) -> None:
    if node_id in seen_ids:
        raise ConfigError(
            f"duplicate id {node_id} (already used by [{seen_ids[node_id]}])",
            section, "id")
    seen_ids[node_id] = section


def run_scenario(scenario: Scenario, trace_sink=None):
    """Execute the configured session to completion or t_end.

    Returns (network, summary dict).
    """
    engine = Engine(seed=scenario.seed)
    p = scenario.protocol
    network = Network(
        engine, scenario.stations, scenario.satellites,
        wavelength=scenario.wavelength,
        downlink_b=scenario.downlink_b,
        min_elevation=scenario.min_elevation,
        earth_rotation=scenario.earth_rotation,
        batch_size=p.batch_size if p else None,
        source_rate_hz=p.source_rate_hz if p else 1e6,
        min_raw_pairs=p.min_raw_pairs if p else 1,
        trace_sink=trace_sink,
    )
    if p is not None:
        network.request(p.requester, p.responder, p.qubits, p.pairs_target,
                        policy=p.policy, t=0.0)
    engine.run_until(scenario.t_end)
    return network, network.summary()

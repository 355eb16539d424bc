import math
import re
from pathlib import Path

import pytest

from qsatnet import cli, geom, scenario
from qsatnet.engine import Engine
from qsatnet.proto import DistillationPolicy, Network
from qsatnet.scenario import ConfigError, load_scenario, run_scenario

EXAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "example.ini"


def write_scenario(tmp_path, body):
    path = tmp_path / "scenario.ini"
    path.write_text(body)
    return str(path)


def with_field(body, section, field, value):
    """body with `field = value` in [section], replacing any existing line;
    a missing section is appended."""
    lines, inside, done = [], False, False
    for line in body.splitlines():
        if line.startswith("["):
            if inside and not done:
                lines.append(f"{field} = {value}")
                done = True
            inside = line == f"[{section}]"
        elif inside and line.split("=")[0].strip() == field:
            line, done = f"{field} = {value}", True
        lines.append(line)
    if not done:
        lines += [] if inside else ["", f"[{section}]"]
        lines.append(f"{field} = {value}")
    return "\n".join(lines) + "\n"


MINIMAL = """
[scenario]
seed = 1
t_end = 1.0

[station.alice]
id = 1
latitude_deg = 0.0
longitude_deg = 0.0
aperture_radius_m = 1.25

[station.bob]
id = 2
latitude_deg = 0.0
longitude_deg = 4.0
aperture_radius_m = 1.25

[satellite.geo1]
id = 100
tier = GEO
aperture_radius_m = 0.2
phase_at_epoch_deg = 2.0

[satellite.leo1]
id = 201
tier = LEO
altitude_m = 1200e3
aperture_radius_m = 0.2
phase_at_epoch_deg = 2.0

[protocol]
requester = alice
responder = bob
qubits = 5
pairs_target = 2000
"""


class TestLoading:
    def test_bundled_example_loads(self):
        sc = load_scenario(str(EXAMPLE))
        assert sc.seed == 42
        assert len(sc.stations) == 2
        assert len(sc.satellites) == 5
        assert sc.request["qubits"] == 50
        assert sc.network["min_elevation"] == pytest.approx(math.radians(10.0))

    def test_minimal_scenario(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, MINIMAL))
        network = Network(Engine(sc.seed), sc.stations, sc.satellites,
                          **sc.network)
        assert network.downlink_b == 0.1       # default
        assert sc.satellites[0].tier is geom.Tier.GEO
        assert sc.satellites[0].altitude == geom.GEO_ALTITUDE

    def test_comments_and_inline_comments(self, tmp_path):
        body = MINIMAL.replace("seed = 1", "seed = 1   # root seed")
        sc = load_scenario(write_scenario(tmp_path, body))
        assert sc.seed == 1

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/path.ini")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_bytes(MINIMAL.encode() + b"# \xff\xfe\n")
        with pytest.raises(ConfigError, match="^cannot read scenario file: "
                           "'utf-8' codec can't decode byte 0xff"):
            load_scenario(str(path))


class TestValidation:
    def test_duplicate_id_names_the_id(self, tmp_path):
        body = MINIMAL.replace("id = 201", "id = 100")
        with pytest.raises(ConfigError, match="100"):
            load_scenario(write_scenario(tmp_path, body))

    def test_undefined_requester(self, tmp_path):
        body = MINIMAL.replace("requester = alice", "requester = carol")
        with pytest.raises(ConfigError, match="carol"):
            load_scenario(write_scenario(tmp_path, body))

    def test_requester_equals_responder(self, tmp_path):
        body = MINIMAL.replace("responder = bob", "responder = alice")
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, body))

    def test_bad_latitude_reports_section(self, tmp_path):
        body = MINIMAL.replace("latitude_deg = 0.0\nlongitude_deg = 0.0",
                               "latitude_deg = 120.0\nlongitude_deg = 0.0", 1)
        with pytest.raises(ConfigError, match="station.alice"):
            load_scenario(write_scenario(tmp_path, body))

    def test_leo_altitude_out_of_bounds(self, tmp_path):
        body = MINIMAL.replace("altitude_m = 1200e3", "altitude_m = 100e3")
        with pytest.raises(ConfigError, match="satellite.leo1"):
            load_scenario(write_scenario(tmp_path, body))

    def test_missing_required_field(self, tmp_path):
        body = MINIMAL.replace("qubits = 5\n", "")
        with pytest.raises(ConfigError, match="qubits"):
            load_scenario(write_scenario(tmp_path, body))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            load_scenario(write_scenario(tmp_path, MINIMAL + "\n[mystery]\nx = 1\n"))

    def test_non_integer_id(self, tmp_path):
        body = MINIMAL.replace("id = 201", "id = 20.5")
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, body))

    def test_integers_parse_exactly(self, tmp_path):
        # 2**53 + 1 has no float; a float parse would run seed 2**53
        body = MINIMAL.replace("seed = 1", "seed = 9007199254740993")
        assert load_scenario(write_scenario(tmp_path, body)).seed == 2**53 + 1
        body = MINIMAL.replace("seed = 1", "seed = 1e3")
        assert load_scenario(write_scenario(tmp_path, body)).seed == 1000
        body = MINIMAL.replace("seed = 1", "seed = 9007199254740993.0")
        with pytest.raises(ConfigError, match=r"\[scenario\] seed:"):
            load_scenario(write_scenario(tmp_path, body))

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616",
                                      "18446744073709551617"])
    def test_seed_outside_64_bits_rejected(self, tmp_path, seed):
        # 2**64 + 1 would key the same streams as 1
        body = MINIMAL.replace("seed = 1", f"seed = {seed}")
        with pytest.raises(ConfigError, match=r"^\[scenario\] seed: .*"
                                              r"in \[0, 18446744073709551615\]"):
            load_scenario(write_scenario(tmp_path, body))

    def test_seed_range_edges_accepted(self, tmp_path):
        for seed in (0, 2**64 - 1):
            body = MINIMAL.replace("seed = 1", f"seed = {seed}")
            assert load_scenario(write_scenario(tmp_path, body)).seed == seed

    # section of each field; MINIMAL has no [channel] section
    SECTION = {"t_end": "scenario", "min_elevation_deg": "scenario",
               "wavelength_m": "channel", "downlink_b": "channel",
               "longitude_deg": "station.alice",
               "aperture_radius_m": "station.alice",
               "memory_coherence_s": "station.alice"}

    @pytest.mark.parametrize("field, value", [
        ("t_end", "nan"), ("t_end", "inf"),
        ("batch_size", "0"), ("batch_size", "-5"),
        ("source_rate_hz", "0"), ("source_rate_hz", "-1"),
        ("source_rate_hz", "nan"), ("source_rate_hz", "inf"),
        ("yield_samples", "0"), ("batch_size", "inf"),
        ("downlink_b", "nan"), ("wavelength_m", "nan"),
        ("memory_coherence_s", "nan"), ("min_elevation_deg", "nan"),
        ("min_elevation_deg", "91"), ("aperture_radius_m", "nan"),
        ("longitude_deg", "inf"),
    ])
    def test_out_of_range_field_names_it(self, tmp_path, field, value):
        section = self.SECTION.get(field, "protocol")
        body = with_field(MINIMAL, section, field, value)
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {field}:")):
            load_scenario(write_scenario(tmp_path, body))


class TestKeyTables:
    @pytest.mark.parametrize("section, key", [
        ("scenario", "sead"), ("channel", "downlink"),
        ("station.alice", "memory_capacty"), ("satellite.leo1", "inclination"),
        ("protocol", "source_rate")])
    def test_misspelled_key_exits_2(self, tmp_path, capsys, section, key):
        path = write_scenario(tmp_path, with_field(MINIMAL, section, key, "5"))
        out = str(tmp_path / "trace.jsonl")
        assert cli.main(["run", path, "--output", out]) == 2
        assert f"[{section}] {key}: unknown key" in capsys.readouterr().err

    def test_default_section_key_rejected(self, tmp_path):
        # configparser copies [DEFAULT] keys into every section
        body = "[DEFAULT]\nmemory_capacity = 3\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"^\[scenario\] memory_capacity: "
                                              r"unknown key$"):
            load_scenario(write_scenario(tmp_path, body))

    def test_percent_sign_is_plain_text(self, tmp_path):
        body = MINIMAL.replace("qubits = 5", "qubits = 5%")
        with pytest.raises(ConfigError, match=r"^\[protocol\] qubits: "
                                              r"bad value '5%'"):
            load_scenario(write_scenario(tmp_path, body))

    def test_absent_keys_take_constructor_defaults(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, MINIMAL))
        network, _ = run_scenario(sc)
        bare = Network(Engine(), sc.stations, sc.satellites)
        for name in ("batch_size", "source_rate_hz", "min_raw_pairs",
                     "wavelength", "downlink_b", "min_elevation",
                     "earth_rotation"):
            assert getattr(network, name) == getattr(bare, name)
        assert network.stations[1] == geom.GroundStation(1, 0.0, 0.0, 1.25)
        assert network.satellites[201] == geom.Satellite(
            201, geom.Tier.LEO, 1200e3, 0.2,
            phase_at_epoch=math.radians(2.0))
        assert network.sessions[1].policy == DistillationPolicy()

    def test_docstring_layout_loads(self, tmp_path):
        # the layout block with every optional key uncommented
        block = [line[4:] for line in scenario.__doc__.splitlines()
                 if line.startswith("    ")]
        body = "\n".join(re.sub(r"^# (\w+ = )", r"\1", line)
                         for line in block)
        sc = load_scenario(write_scenario(tmp_path, body))
        assert sc.seed == 42
        assert sc.stations[0].memory_capacity == 5000
        assert sc.request["policy"].rounds == 2
        assert sc.network["min_raw_pairs"] == 10
        # every Network keyword the file sets reaches the Network it runs
        network, _ = run_scenario(sc)
        assert network.earth_rotation is True
        assert network.min_elevation == math.radians(15.0)
        assert network.wavelength == 1.3e-6
        assert network.downlink_b == 0.2
        assert network.batch_size == 5000
        assert network.source_rate_hz == 2e6
        assert network.min_raw_pairs == 10


class TestRunScenario:
    def test_bundled_example_completes(self):
        sc = load_scenario(str(EXAMPLE))
        network, summary = run_scenario(sc)
        assert summary["sessions_done"] == 1
        assert summary["qubits_delivered"] == summary["ebits_consumed"] == 50
        assert summary["pairs_attempted"] == 10_000

    def test_trace_sink_receives_all_records(self):
        # a sink gets exactly the records a sink-less run keeps in memory
        sc = load_scenario(str(EXAMPLE))
        sink = []
        with_sink, _ = run_scenario(sc, trace_sink=sink.append)
        kept, _ = run_scenario(sc)
        assert sink == kept.trace
        assert len(sink) > 0
        assert with_sink.trace == []

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_example_is_robust_across_seeds(self, seed):
        # the bundled geometry leaves wide margin over the 50-qubit target
        sc = load_scenario(str(EXAMPLE))
        sc.seed = seed
        _, summary = run_scenario(sc)
        assert summary["sessions_done"] == 1
        assert summary["qubits_delivered"] == 50

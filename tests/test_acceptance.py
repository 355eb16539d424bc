"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria:
  1. coordination-tier rate bound  - 36000 km surface stays below 0.05
  2. loss-budget witnesses         - 3 / 5 / 60 dB points from the
                                     diffraction model, pinned
  3. uplink calibration            - 20 dB mean loss round trip + block fading
  4. rate-oracle equivalence       - Monte Carlo vs quadrature at 3 points
  5. protocol conservation/safety  - bundled scenario ledger replay
  6. determinism                   - byte-identical CLI reruns, parallel sweep
  7. packet codec                  - round trips, truncation fuzz, CRC word
  8. geometry                      - relay selection brute force + GEO delay
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from audit_util import brute_force_select, quad_mean_rate, replay_audit
from qsatnet import channel as ch
from qsatnet import geom
from qsatnet import packet as pk
from qsatnet import rates
from qsatnet.cli import main as cli_main
from qsatnet.engine import make_stream
from qsatnet.scenario import load_scenario, run_scenario

EXAMPLE = str(Path(__file__).resolve().parent.parent / "scenarios" / "example.ini")


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_geo_rate_bound():
    """36000 km, b=0.1, 10x10 grid up to 1.0 m waists / 1.25 m receivers,
    1e5 samples per point: every mean rate < 0.05 ebits/use in < 1 min."""
    t0 = time.monotonic()
    surface = rates.sweep(list(np.linspace(0.1, 1.0, 10)),
                          list(np.linspace(0.125, 1.25, 10)),
                          distance=3.6e7, b=0.1, n_samples=100_000, seed=42)
    elapsed = time.monotonic() - t0
    peak = float(surface.mean_rates.max())
    report("criterion 1: coordination-tier rates stay below 0.05",
           peak < 0.05 and elapsed < 60.0,
           f"max={peak:.5f}, {elapsed:.1f}s")


def test_criterion_2_loss_budget_witnesses():
    """Witness points inside the stated aperture ranges hit 3 +/- 1,
    5 +/- 1, and 60 +/- 3 dB."""
    witnesses = [
        # (waist m, rx m, distance m, nominal dB, tol dB, frozen dB)
        (0.25, 0.25, 200e3, 3.0, 1.0, 3.6055),
        (0.20, 1.25, 1200e3, 5.0, 1.0, 5.2460),
        (0.10, 0.10, 3.6e7, 60.0, 3.0, 61.9794),
    ]
    t0 = time.monotonic()
    ok = True
    details = []
    for w0, rx, z, nominal, tol, frozen in witnesses:
        loss = ch.db_from_eta(ch.diffraction_transmittance(ch.BeamParams(w0), rx, z))
        ok &= abs(loss - nominal) <= tol and abs(loss - frozen) < 5e-4
        details.append(f"{loss:.4f}dB@{z/1e3:.0f}km")
    elapsed = time.monotonic() - t0
    report("criterion 2: loss-budget witness points",
           ok and elapsed < 1.0, ", ".join(details))


def test_criterion_3_uplink_calibration():
    """Calibrated wander sigma reproduces a 20 dB mean loss within 0.1 dB
    over 1e6 samples; block fading is exact within 1 ms intervals."""
    t0 = time.monotonic()
    beam = ch.BeamParams(0.5)
    w_rx = ch.beam_radius(beam, 1000e3)
    eta_diff = ch.diffraction_transmittance(beam, 0.15, 1000e3)
    sigma = ch.calibrate_uplink_sigma(eta_diff, w_rx, 20.0)
    model = ch.UplinkPointingFade(eta_diff, w_rx, sigma)
    etas = ch.uplink_interval_samples(model, make_stream(42, "acc3"), 1_000_000)
    mean_db = ch.db_from_eta(float(etas.mean()))
    rng = make_stream(42, "acc3")
    same_block = all(
        ch.sample_uplink(model, rng, k * 1e-3 + 1e-5)
        == ch.sample_uplink(model, rng, k * 1e-3 + 9.9e-4)
        for k in range(100))
    elapsed = time.monotonic() - t0
    report("criterion 3: uplink 20 dB calibration round trip",
           abs(mean_db - 20.0) <= 0.1 and same_block and elapsed < 30.0,
           f"mean={mean_db:.4f}dB, sigma={sigma:.4f}m, {elapsed:.1f}s")


@pytest.mark.parametrize("eta0,b", [(0.3, 0.1), (0.05, 0.1), (0.3, 0.01)])
def test_criterion_4_rate_oracle_equivalence(eta0, b):
    """Monte-Carlo mean rate (1e6 draws) matches 10000-point Gauss-Legendre
    quadrature within 3 standard errors."""
    model = ch.DownlinkGaussianTail(eta0, b)
    samples = rates.rci_array(
        ch.sample_downlink(model, make_stream(42, "acc4", int(eta0 * 1e3),
                                              int(b * 1e3)), 1_000_000))
    mc = float(samples.mean())
    se = float(samples.std()) / 1000.0
    quad = quad_mean_rate(eta0, b, total_points=10_000)
    z = (mc - quad) / se
    report(f"criterion 4: rate oracle equivalence at eta0={eta0} b={b}",
           abs(mc - quad) < 3.0 * se, f"MC={mc:.6f} quad={quad:.6f} z={z:+.2f}")


def test_criterion_5_protocol_conservation_and_safety():
    """Bundled scenario: ledger replay proves conservation, zero expired
    consumptions, ordered transitions, and a binomial survivor count."""
    t0 = time.monotonic()
    scenario = load_scenario(EXAMPLE)
    network, summary = run_scenario(scenario)
    coherence = min(s.memory_coherence_time for s in scenario.stations)
    stats = replay_audit(network.trace, coherence)

    ok = summary["qubits_delivered"] == summary["ebits_consumed"] == 50
    ok &= summary["pairs_attempted"] == 10_000
    sess = stats[1]
    ok &= sess["delivered"] == sess["consumed_distilled"]
    shrink = 1.0 - network.downlink_b * math.sqrt(2.0 / math.pi)
    batch = sess["batches"][0]
    p = (batch["eta0_a"] * shrink) * (batch["eta0_b"] * shrink)
    n = batch["attempted"]
    sigma = math.sqrt(n * p * (1.0 - p))
    ok &= abs(batch["survivors"] - n * p) < 3.0 * sigma
    elapsed = time.monotonic() - t0
    report("criterion 5: protocol conservation and safety",
           ok and elapsed < 10.0,
           f"delivered={summary['qubits_delivered']}, "
           f"survivors={batch['survivors']} vs {n * p:.0f}+/-{3 * sigma:.0f}, "
           f"{elapsed:.1f}s")


def test_criterion_6_cli_determinism(tmp_path, monkeypatch):
    """Every subcommand yields byte-identical output on rerun with a fixed
    seed; parallel and serial sweeps agree byte for byte."""
    pkt_json = tmp_path / "p.json"
    pkt_json.write_text(json.dumps({
        "requesting_station_id": 3, "receiving_station_id": 4,
        "transmit_time_ns": 999,
        "qubits": [{"qubit_id": 5, "entanglement_group": 6, "encoding": 1}]}))
    hex_path = tmp_path / "p.hex"
    cli_main(["packet", "encode", "--input", str(pkt_json),
              "--output", str(hex_path)])
    invocations = {
        "run": ["run", EXAMPLE],
        "rates-sweep": ["rates-sweep", "--distance", "1200e3", "--b", "0.1",
                        "--waist-grid", "0.1:0.6:3", "--rx-grid", "0.25:1.25:3",
                        "--samples", "20000", "--seed", "7"],
        "channel-sample": ["channel-sample", "--model", "uplink",
                           "--eta-diffraction", "0.4", "--beam-radius-rx", "1.0",
                           "--sigma-wander", "0.5", "--n", "2000", "--seed", "7"],
        "packet encode": ["packet", "encode", "--input", str(pkt_json)],
        "packet decode": ["packet", "decode", "--input", str(hex_path)],
    }
    ok = True
    for name, args in invocations.items():
        outs = []
        for k in (0, 1):
            path = tmp_path / f"{name.replace(' ', '_')}_{k}.out"
            code = cli_main(args + ["--output", str(path)])
            ok &= code == 0
            outs.append(path.read_bytes())
        ok &= outs[0] == outs[1]

    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    sweep_args = ["rates-sweep", "--distance", "3.6e7", "--b", "0.1",
                  "--waist-grid", "0.1:1.0:4", "--rx-grid", "0.125:1.25:4",
                  "--samples", "10000", "--seed", "42"]
    cli_main(sweep_args + ["--output", str(parallel)])    # every usable CPU
    monkeypatch.setattr(rates, "SWEEP_THREADS", 1)
    cli_main(sweep_args + ["--output", str(serial)])
    ok &= serial.read_bytes() == parallel.read_bytes()
    report("criterion 6: CLI determinism", ok,
           "all subcommands byte-identical, parallel == serial")


def test_criterion_7_packet_codec():
    """1e4 randomized round trips; exhaustive truncation fuzz of a 200-byte
    frame reports structured errors only; published CRC check word."""
    t0 = time.monotonic()
    rng = random.Random(42)
    ok = True
    for _ in range(10_000):
        n_qubits = rng.choice([0, 1, 2, 8, 30])
        ack = rng.random() < 0.5
        p = pk.Packet(
            requesting_station_id=rng.randrange(2**32),
            receiving_station_id=rng.randrange(2**32),
            transmit_time_ns=rng.randrange(2**64),
            op_commence_time_ns=rng.randrange(2**64),
            qubits=tuple(pk.QubitDescriptor(rng.randrange(2**32),
                                            rng.randrange(2**32),
                                            rng.choice([0, 1]))
                         for _ in range(n_qubits)),
            ack_present=ack,
            ack_session_id=rng.randrange(2**32) if ack else 0,
            error_corr=bytes(rng.randrange(256)
                             for _ in range(rng.choice([0, 5, 64]))))
        ok &= pk.decode(pk.encode(p)) == p

    # 42 + 9*10 + 68 = 200 bytes exactly
    frame = pk.encode(pk.Packet(
        1, 2, 3, qubits=tuple(pk.QubitDescriptor(i) for i in range(10)),
        error_corr=bytes(range(68))))
    ok &= len(frame) == 200
    structured = 0
    for cut in range(len(frame)):
        try:
            pk.decode(frame[:cut])
            ok = False
        except pk.PacketError as err:
            structured += isinstance(err.offset, int)
    ok &= structured == 200
    ok &= pk.crc32(b"123456789") == 0xCBF43926
    elapsed = time.monotonic() - t0
    report("criterion 7: packet codec", ok and elapsed < 10.0,
           f"1e4 round trips, 200 structured truncation errors, {elapsed:.1f}s")


def test_criterion_8_geometry():
    """Max-min relay selection equals a brute-force scan for an 8-satellite
    constellation at 100 random epochs; GEO one-way delay is 0.12008 s."""
    rng = random.Random(42)
    gs_a = geom.GroundStation(1, 0.0, math.radians(-2.0), 1.25)
    gs_b = geom.GroundStation(2, math.radians(3.0), math.radians(2.0), 1.25)
    constellation = [
        geom.Satellite(10 + k, geom.Tier.LEO,
                       500e3 + 700e3 * rng.random(), 0.2,
                       inclination=rng.uniform(0, math.pi / 2),
                       raan=rng.uniform(0, 2 * math.pi),
                       phase_at_epoch=rng.uniform(0, 2 * math.pi))
        for k in range(8)]
    agree = 0
    hits = 0
    for _ in range(100):
        t = rng.uniform(0.0, 20_000.0)
        expected = brute_force_select(
            constellation, geom.ground_position(gs_a, t),
            geom.ground_position(gs_b, t),
            lambda s: geom.satellite_position(s, t),
            geom.DEFAULT_MIN_ELEVATION)
        got = geom.select_leo(constellation, gs_a, gs_b, t)
        agree += got == expected
        hits += expected is not None

    ground = np.array([geom.R_EARTH, 0.0, 0.0])
    sat = np.array([geom.R_EARTH + 3.6e7, 0.0, 0.0])
    delay = geom.link_geometry(ground, sat).propagation_delay
    ok = agree == 100 and abs(delay - 0.12008) <= 1e-5
    report("criterion 8: geometry selection and GEO delay", ok,
           f"{agree}/100 epochs agree ({hits} with a visible relay), "
           f"delay={delay:.6f}s")

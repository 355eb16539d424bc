"""Command-line entry point.

Subcommands:

    run            execute a scenario file, emit a JSON-lines trace
    rates-sweep    mean-rate surface over an aperture grid, as CSV
    channel-sample draw transmittance samples from a channel model, as CSV
    packet encode  JSON packet description -> hex frame
    packet decode  hex frame -> JSON packet description

Exit codes: 0 success, 2 configuration error, 3 runtime failure.  The
commands raise; ``main`` alone turns an exception into one stderr line
and its exit code (``_report``), so no subcommand ends in a traceback.
All outputs are byte-reproducible for a fixed seed under one numpy SIMD
dispatch; normals, fades and rates depend on it (see engine).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from . import channel as ch
from . import packet as pk
from . import rates
from .engine import (COUNT_MAX, DEFAULT_SEED, SEED_MAX, EngineError,
                     check_count, check_real, make_stream)
from .proto import trace_line
from .scenario import load_scenario, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

DEFAULT_WAIST_GRID = "0.1:1.0:10"
DEFAULT_RX_GRID = "0.125:1.25:10"


def _parse_grid(spec: str, flag: str) -> list:
    """Grid syntax: comma-separated values or lo:hi:count (inclusive).
    Every value is a radius, so it must be finite and > 0."""
    spec = spec.strip()
    try:                            # every message names the flag
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError(f"must be lo:hi:count, got {spec!r}")
            lo = check_real(float(parts[0]), "lo")
            hi = check_real(float(parts[1]), "hi")
            count = check_count(int(parts[2]), "count", 1, COUNT_MAX)
            values = [lo] if count == 1 else list(np.linspace(lo, hi, count))
        else:
            values = [float(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag} {exc}") from None
    if not values:
        raise ValueError(f"{flag} is empty")
    for v in values:
        check_real(v, f"{flag} value", 0, strict=True)
    return values


def _check_flags(args, positive=(), nonnegative=(), fractions=()) -> None:
    """Named numeric flags must be finite and > 0, >= 0, or in [0, 1] for
    fractions; None is unset."""
    for name in positive + nonnegative + fractions:
        if getattr(args, name) is not None:
            check_real(getattr(args, name), f"--{name.replace('_', '-')}", 0,
                       1 if name in fractions else math.inf,
                       strict=name in positive)


def _seed(args) -> int:
    """--seed, or DEFAULT_SEED when it is unset; a root seed is in
    [0, 2**64)."""
    if args.seed is None:
        return DEFAULT_SEED
    return check_count(args.seed, "--seed", 0, SEED_MAX)


def _read_input(path: Optional[str]) -> bytes:
    return sys.stdin.buffer.read() if path is None else Path(path).read_bytes()


@contextmanager
def _output(path: Optional[str], binary: bool = False):
    """The --output file, or stdout when it is absent or "-"; a file is
    closed on exit."""
    if path is None or path == "-":
        yield sys.stdout.buffer if binary else sys.stdout
        return
    try:
        out = (open(path, "wb") if binary else
               open(path, "w", encoding="utf-8", newline=""))
    except OSError as exc:
        raise ValueError(f"--output cannot be opened: {exc}") from exc
    with out:
        yield out


def _jsonl(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _cmd_run(args) -> None:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = _seed(args)
    with _output(args.output) as out:
        network, summary = run_scenario(
            scenario, trace_sink=lambda r: out.write(trace_line(r)))
        out.write(_jsonl({"summary": summary}))


def _cmd_rates_sweep(args) -> None:
    waists = _parse_grid(args.waist_grid, "--waist-grid")
    rx_radii = _parse_grid(args.rx_grid, "--rx-grid")
    _check_flags(args, ("distance", "wavelength"), ("b",))
    check_count(args.samples, "--samples", 1, COUNT_MAX)
    mean_rates = rates.sweep(waists, rx_radii, args.distance, args.b,
                             wavelength=args.wavelength,
                             n_samples=args.samples, seed=_seed(args))
    with _output(args.output) as out:
        rows = ((w0, rx, float(mean_rates[i, j]))
                for i, w0 in enumerate(waists) for j, rx in enumerate(rx_radii))
        if args.format == "jsonl":
            for w0, rx, rate in rows:
                out.write(_jsonl({"tx_waist_m": w0, "rx_radius_m": rx,
                                  "distance_m": args.distance, "b": args.b,
                                  "mean_rate_ebits": rate}))
        else:
            out.write("tx_waist_m,rx_radius_m,distance_m,b,mean_rate_ebits\n")
            for w0, rx, rate in rows:
                out.write(f"{w0!r},{rx!r},{args.distance!r},{args.b!r},{rate!r}\n")


def _cmd_channel_sample(args) -> None:
    check_count(args.n, "--n", 1, COUNT_MAX)
    _check_flags(args, ("t_step", "fade_coherence", "wavelength", "distance",
                        "waist", "rx_radius", "beam_radius_rx"),
                 ("b", "sigma_wander", "calibrate_target_db"),
                 ("eta0", "eta_diffraction"))
    rng = make_stream(_seed(args), "channel-sample", args.model)
    # each model is checked in full before its rows are allocated
    if args.model == "fixed":
        etas = np.full(args.n, ch.diffraction_transmittance(
            ch.BeamParams(args.waist, args.wavelength), args.rx_radius,
            args.distance))
        times = np.arange(args.n, dtype=float)
    elif args.model == "downlink":
        etas = ch.sample_downlink(ch.DownlinkGaussianTail(args.eta0, args.b),
                                  rng, args.n)
        times = np.arange(args.n, dtype=float)
    else:
        # the row step, and the flag that set it; a last row time past the
        # float range is inf here, and so past any interval count
        step, step_flag = ((args.fade_coherence, "--fade-coherence")
                           if args.t_step is None
                           else (args.t_step, "--t-step"))
        if (args.n - 1) * step / args.fade_coherence >= 2.0**63:
            raise ValueError(f"{step_flag} {step} puts sample {args.n - 1} "
                             f"past 2**63 fade intervals or the float range")
        sigma = args.sigma_wander
        if args.calibrate_target_db is not None:
            sigma = ch.calibrate_uplink_sigma(
                args.eta_diffraction, args.beam_radius_rx,
                args.calibrate_target_db)
        elif sigma is None:
            raise ValueError("uplink model needs --sigma-wander or "
                             "--calibrate-target-db")
        model = ch.UplinkPointingFade(args.eta_diffraction,
                                      args.beam_radius_rx, sigma,
                                      args.fade_coherence)
        times = np.arange(args.n, dtype=float)
        times *= step
        etas = ch.sample_uplink(model, rng, times)
    with _output(args.output) as out:
        # a float64 memoryview yields Python floats: no numpy scalar per value
        rows = zip(memoryview(times), memoryview(etas))
        if args.format == "jsonl":
            for t, e in rows:
                out.write(_jsonl({"t": t, "eta": e,
                                  "loss_db": ch.db_from_eta(e)}))
        else:
            out.write("t,eta,loss_db\n")
            for t, e in rows:
                out.write(f"{t!r},{e!r},{ch.db_from_eta(e)!r}\n")


def _cmd_packet_encode(args) -> None:
    try:
        spec = json.loads(_read_input(args.input).decode("utf-8"))
        if not isinstance(spec, dict):
            raise TypeError(f"expected a JSON object, got {type(spec).__name__}")
        packet = pk.packet_from_dict(spec)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        # unreadable input, malformed or too deeply nested JSON, bad hex,
        # missing or mistyped fields
        raise ValueError(f"bad packet description: {exc}") from exc
    data = pk.encode(packet)     # an EncodeValidationError names the field
    with _output(args.output, binary=args.raw) as out:
        out.write(data if args.raw else data.hex() + "\n")


def _cmd_packet_decode(args) -> None:
    try:
        data = _read_input(args.input)
        if not args.raw:
            data = bytes.fromhex("".join(data.decode("utf-8").split()))
    except (OSError, ValueError) as exc:
        # unreadable input, non-UTF-8 text or bad hex
        raise ValueError(f"bad frame input: {exc}") from exc
    decoded = pk.decode(data)
    with _output(args.output) as out:
        out.write(json.dumps(pk.packet_to_dict(decoded), sort_keys=True,
                             indent=2) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsatnet",
        description="Satellite-terrestrial quantum network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, tabular=True):
        """--output, plus --seed and --format where the subcommand reads them."""
        p.add_argument("--output", "-o", default=None,
                       help="output file (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="root seed for all random streams")
        if tabular:
            p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                           help="tabular output format")

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to the scenario INI file")
    add_common(p_run, tabular=False)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("rates-sweep",
                             help="mean-rate surface over an aperture grid")
    p_sweep.add_argument("--distance", type=float, required=True,
                         help="link distance [m]")
    p_sweep.add_argument("--b", type=float, default=ch.DEFAULT_DOWNLINK_B,
                         help="downlink deviation parameter")
    p_sweep.add_argument("--waist-grid", default=DEFAULT_WAIST_GRID,
                         help="tx waist radii [m]: lo:hi:count or v1,v2,...")
    p_sweep.add_argument("--rx-grid", default=DEFAULT_RX_GRID,
                         help="rx aperture radii [m]: lo:hi:count or v1,v2,...")
    p_sweep.add_argument("--samples", type=int, default=100_000,
                         help="Monte-Carlo draws per grid point")
    p_sweep.add_argument("--wavelength", type=float, default=ch.DEFAULT_WAVELENGTH)
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_rates_sweep)

    p_chan = sub.add_parser("channel-sample",
                            help="draw transmittance samples from one model")
    p_chan.add_argument("--model", choices=("fixed", "downlink", "uplink"),
                        required=True)
    p_chan.add_argument("--n", type=int, default=1000, help="number of samples")
    p_chan.add_argument("--waist", type=float, default=0.2,
                        help="fixed model: tx waist radius [m]")
    p_chan.add_argument("--rx-radius", type=float, default=1.25,
                        help="fixed model: rx aperture radius [m]")
    p_chan.add_argument("--distance", type=float, default=1200e3,
                        help="fixed model: link distance [m]")
    p_chan.add_argument("--wavelength", type=float, default=ch.DEFAULT_WAVELENGTH)
    p_chan.add_argument("--eta0", type=float, default=0.3,
                        help="downlink model: diffraction-floor transmittance")
    p_chan.add_argument("--b", type=float, default=ch.DEFAULT_DOWNLINK_B,
                        help="downlink model: deviation parameter")
    p_chan.add_argument("--eta-diffraction", type=float, default=0.036,
                        help="uplink model: diffraction-only transmittance")
    p_chan.add_argument("--beam-radius-rx", type=float, default=1.1,
                        help="uplink model: beam radius at the receiver [m]")
    wander = p_chan.add_mutually_exclusive_group()
    wander.add_argument("--sigma-wander", type=float, default=None,
                        help="uplink model: centroid jitter sigma [m]")
    wander.add_argument("--calibrate-target-db", type=float, default=None,
                        help="uplink model: pick sigma to hit this mean loss")
    p_chan.add_argument("--fade-coherence", type=float,
                        default=ch.DEFAULT_FADE_COHERENCE,
                        help="uplink model: fading coherence interval [s]")
    p_chan.add_argument("--t-step", type=float, default=None,
                        help="uplink model: sample spacing in time "
                             "(default: one coherence interval)")
    add_common(p_chan)
    p_chan.set_defaults(func=_cmd_channel_sample)

    p_pkt = sub.add_parser("packet", help="hybrid frame codec")
    pkt_sub = p_pkt.add_subparsers(dest="packet_command", required=True)
    p_enc = pkt_sub.add_parser("encode", help="JSON description -> hex frame")
    p_enc.add_argument("--input", "-i", default=None,
                       help="JSON file (default: stdin)")
    p_enc.add_argument("--raw", action="store_true",
                       help="write raw binary instead of hex")
    add_common(p_enc, seed=False, tabular=False)
    p_enc.set_defaults(func=_cmd_packet_encode)
    p_dec = pkt_sub.add_parser("decode", help="hex frame -> JSON description")
    p_dec.add_argument("--input", "-i", default=None,
                       help="hex file (default: stdin)")
    p_dec.add_argument("--raw", action="store_true",
                       help="read raw binary from stdin instead of hex")
    add_common(p_dec, seed=False, tabular=False)
    p_dec.set_defaults(func=_cmd_packet_decode)

    return parser


def _report(exc: Exception) -> int:
    """Print the one stderr line for a command's failure; its exit code.
    An event handler's failure is reported as the closed pipe or the
    MemoryError it wraps."""
    if (isinstance(exc, EngineError)
            and isinstance(exc.__cause__, (BrokenPipeError, MemoryError))):
        exc = exc.__cause__
    if isinstance(exc, BrokenPipeError):
        # the reader closed stdout: point it at devnull, as the Python signal
        # docs advise, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        line, code = f"runtime failure: output closed: {exc}", EXIT_RUNTIME
    elif isinstance(exc, pk.PacketError):     # a ValueError, so checked first
        line = json.dumps({"error": type(exc).__name__, "offset": exc.offset,
                           "message": str(exc)}, sort_keys=True)
        code = EXIT_RUNTIME
    elif isinstance(exc, ValueError):         # every bad input or --output
        line, code = f"config error: {exc}", EXIT_CONFIG
    elif isinstance(exc, MemoryError):
        # a grid, sample count or frame too large to allocate
        line, code = f"runtime failure: out of memory: {exc}", EXIT_RUNTIME
    else:
        line, code = f"runtime failure: {exc}", EXIT_RUNTIME
    print(line, file=sys.stderr)
    return code


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except Exception as exc:
        return _report(exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

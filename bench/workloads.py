"""The four benchmark workloads: inputs, the timed op, and the output check.

Every op takes its own seed, derived from the workload seed and the op's
index, so a cache kept across ops gains nothing a one-shot CLI user would
not also gain.  ``prepare`` (untimed) builds an op's inputs, ``run`` is the
timed op, and ``check`` (untimed) decides whether the op's output is right.

A check applies invariants that hold for any seed and any correct
implementation.  The warm-up op always runs at the default workload seed,
and with that seed every op, so the output's sha256 is compared with the
digest pinned in ``digests.json`` in every run.  The CLI ops write to a
fresh file that ``check`` streams back, line by line, and removes: the
check holds little of the output in memory at once, so the process's peak
memory stays the program's.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import struct
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path


DEFAULT_SEED = 42
PINNED_OPS = 64             # ops 0..63 at DEFAULT_SEED, besides the warm-up
DIGESTS_PATH = Path(__file__).with_name("digests.json")

# batched-run: the bundled scenario scaled to 1600 batches of 100 pairs
PAIRS_TARGET = 160_000
BATCH_SIZE = 100
QUBITS = 50
TRACE_LINES = 3217          # 3216 protocol records plus the summary line

# uplink-sample: the calibrated uplink of the CLI documentation
UPLINK_N = 100_000
UPLINK_ETA_DIFF = 0.036
UPLINK_TARGET_DB = 20.0
UPLINK_T_STEP = 1e-3        # default coherence interval

# rates-sweep: default 10x10 grid at 1e5 samples per point
SWEEP_GRID = 10
SWEEP_SAMPLES = 100_000
SWEEP_DISTANCE = 36000e3
SWEEP_B = 0.1
SWEEP_RATE_CEILING = 0.05   # acceptance criterion 1: GEO rates below 0.05

# packet-codec: 16 empty frames, then descriptor counts spaced
# geometrically from 1 to 4096; every op has the same multiset of sizes so
# only the contents and order depend on the seed
CODEC_EMPTY = 16
CODEC_FRAMES = 256
CODEC_MAX_EC = 64


def op_seed(workload_seed: int, index) -> int:
    """Seed of op ``index`` ("warmup" or an int) for a workload seed."""
    h = hashlib.blake2b(f"qsatnet-bench:{workload_seed}:{index}".encode(),
                        digest_size=4)
    return int.from_bytes(h.digest(), "big")


@dataclass
class Outcome:
    ok: bool
    items: int = 0
    digest: str = ""
    reason: str = ""
    extra: dict = field(default_factory=dict)


def _fail(reason: str) -> Outcome:
    return Outcome(False, reason=reason)


class HashedLines:
    """The lines of a byte stream, without line ends, hashed as they pass."""

    def __init__(self, stream):
        self.stream = stream
        self.sha = hashlib.sha256()

    def __iter__(self):
        for raw in self.stream:
            self.sha.update(raw)
            yield raw.decode("utf-8").rstrip("\n")

    def digest(self) -> str:
        return self.sha.hexdigest()


class Workload:
    name = ""

    def __init__(self, root: Path, work_dir: Path):
        self.root = root
        self.work_dir = work_dir

    def setup(self) -> None:
        """Per-process inputs shared by all ops (untimed, part of set-up)."""

    def prepare(self, seed: int):
        raise NotImplementedError

    def run(self, inputs) -> int:
        raise NotImplementedError

    def check(self, inputs, rc: int) -> Outcome:
        raise NotImplementedError


class CliWorkload(Workload):
    """An op is one ``qsatnet.cli.main(argv)`` call writing ``--output``."""

    def argv(self, seed: int, out: Path) -> list:
        raise NotImplementedError

    def prepare(self, seed: int):
        out = self.work_dir / f"{self.name}-{seed}.out"
        out.unlink(missing_ok=True)
        return seed, out, self.argv(seed, out)

    def run(self, inputs) -> int:
        return sys.modules["qsatnet.cli"].main(inputs[2])

    def check(self, inputs, rc: int) -> Outcome:
        _, out, _ = inputs
        try:
            if rc != 0:
                return _fail(f"exit code {rc}")
            with open(out, "rb") as stream:
                outcome = self.check_lines(HashedLines(stream))
                outcome.extra["output_bytes"] = stream.tell()
            return outcome
        except OSError as exc:
            return _fail(f"no output: {exc}")
        finally:
            out.unlink(missing_ok=True)

    @classmethod
    def check_bytes(cls, data: bytes) -> Outcome:
        return cls.check_lines(HashedLines(io.BytesIO(data)))

    @staticmethod
    def check_lines(lines: HashedLines) -> Outcome:
        """Reads every line when the output is right; the digest is set
        only then."""
        raise NotImplementedError


class BatchedRun(CliWorkload):
    name = "batched-run"

    def setup(self) -> None:
        text = (self.root / "scenarios" / "example.ini").read_text()
        lines = []
        for line in text.splitlines():
            if line.split("=")[0].strip() == "pairs_target":
                line = f"pairs_target = {PAIRS_TARGET}\nbatch_size = {BATCH_SIZE}"
            lines.append(line)
        self.scenario = self.work_dir / "batched.ini"
        self.scenario.write_text("\n".join(lines) + "\n")

    def argv(self, seed, out):
        return ["run", str(self.scenario), "--seed", str(seed),
                "--output", str(out)]

    @staticmethod
    def check_lines(lines: HashedLines) -> Outcome:
        expected_keys = {"t", "session_id", "event", "payload"}
        count = attempted = deposited = 0
        rec = None
        for line in lines:
            if rec is not None:     # every line but the last is a record
                if set(rec) != expected_keys:
                    return _fail(f"malformed trace record {sorted(rec)}")
                if rec["event"] == "batch_emitted":
                    attempted += rec["payload"]["attempted"]
                elif rec["event"] == "pairs_deposited":
                    deposited += rec["payload"]["count"]
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                return _fail(f"trace line {count} is not JSON: {exc}")
            count += 1
        if count != TRACE_LINES:
            return _fail(f"{count} trace lines, expected {TRACE_LINES}")
        summary = rec.get("summary")
        if not isinstance(summary, dict):
            return _fail("last trace line is not the summary")
        expected = {"qubits_delivered": QUBITS, "ebits_consumed": QUBITS,
                    "pairs_attempted": PAIRS_TARGET, "sessions_done": 1,
                    "sessions_failed": 0}
        for key, value in expected.items():
            if summary.get(key) != value:
                return _fail(f"summary {key}={summary.get(key)!r}, "
                             f"expected {value}")
        survived = summary.get("pairs_survived")
        if attempted != PAIRS_TARGET or deposited != survived:
            return _fail(f"trace attempted {attempted} / deposited {deposited} "
                         f"disagree with the summary")
        if not 0 < survived <= PAIRS_TARGET:
            return _fail(f"pairs_survived={survived} out of range")
        return Outcome(True, PAIRS_TARGET, lines.digest(), extra={
            "trace_records": count,
            "survival_ratio": survived / PAIRS_TARGET})


def _floats(fields: list) -> list:
    return [float(f) for f in fields]


class RatesSweep(CliWorkload):
    name = "rates-sweep"

    def argv(self, seed, out):
        return ["rates-sweep", "--distance", repr(SWEEP_DISTANCE),
                "--b", repr(SWEEP_B), "--seed", str(seed), "--output", str(out)]

    @staticmethod
    def check_lines(lines: HashedLines) -> Outcome:
        rows = iter(lines)
        if next(rows, None) != \
                "tx_waist_m,rx_radius_m,distance_m,b,mean_rate_ebits":
            return _fail("bad CSV header")
        # The tx_waist_m and rx_radius_m columns are not parsed: under
        # numpy 2 the CLI writes them as "np.float64(0.1)" reprs.
        count = 0
        for k, line in enumerate(rows):
            count += 1
            fields = line.split(",")
            try:
                dist, b, rate = _floats(fields[2:])
            except ValueError:
                return _fail(f"row {k} is not two grid columns and three "
                             f"numbers: {line!r}")
            if dist != SWEEP_DISTANCE or b != SWEEP_B:
                return _fail(f"row {k} is not a grid point at distance "
                             f"{SWEEP_DISTANCE} and b {SWEEP_B}: {line!r}")
            if not (math.isfinite(rate) and 0.0 <= rate < SWEEP_RATE_CEILING):
                return _fail(f"row {k} rate {rate!r} outside [0, "
                             f"{SWEEP_RATE_CEILING})")
        if count != SWEEP_GRID * SWEEP_GRID:
            return _fail(f"{count} rows, expected {SWEEP_GRID * SWEEP_GRID}")
        return Outcome(True, SWEEP_GRID * SWEEP_GRID * SWEEP_SAMPLES,
                       lines.digest())


class UplinkSample(CliWorkload):
    name = "uplink-sample"

    def argv(self, seed, out):
        return ["channel-sample", "--model", "uplink",
                "--eta-diffraction", repr(UPLINK_ETA_DIFF),
                "--beam-radius-rx", "1.1",
                "--calibrate-target-db", repr(UPLINK_TARGET_DB),
                "--n", str(UPLINK_N), "--seed", str(seed),
                "--output", str(out)]

    @staticmethod
    def check_lines(lines: HashedLines) -> Outcome:
        rows = iter(lines)
        if next(rows, None) != "t,eta,loss_db":
            return _fail("bad CSV header")
        count = 0
        eta_sum = eta_sq_sum = 0.0
        for k, line in enumerate(rows):
            count += 1
            try:
                t, eta, loss = _floats(line.split(","))
            except ValueError:
                return _fail(f"row {k} is not three numbers: {line!r}")
            if t != k * UPLINK_T_STEP:
                return _fail(f"row {k} has t={t!r}")
            if not 0.0 <= eta <= UPLINK_ETA_DIFF:
                return _fail(f"row {k} eta={eta!r} outside [0, "
                             f"{UPLINK_ETA_DIFF}]")
            expected_loss = -10.0 * math.log10(eta) if eta else math.inf
            if not math.isclose(loss, expected_loss, rel_tol=1e-12):
                return _fail(f"row {k} loss_db={loss!r} does not match "
                             f"eta={eta!r}")
            eta_sum += eta
            eta_sq_sum += eta * eta
        if count != UPLINK_N:
            return _fail(f"{count} rows, expected {UPLINK_N}")
        # the calibration sets the mean transmittance; allow five standard
        # errors of the sample mean, converted to dB
        mean = eta_sum / count
        std = math.sqrt(max(eta_sq_sum / count - mean * mean, 0.0))
        mean_db = -10.0 * math.log10(mean)
        tol_db = 5.0 * 10.0 / math.log(10.0) * std / math.sqrt(count) / mean
        if abs(mean_db - UPLINK_TARGET_DB) > tol_db:
            return _fail(f"mean loss {mean_db:.4f} dB is not within "
                         f"{tol_db:.4f} dB of {UPLINK_TARGET_DB}")
        return Outcome(True, UPLINK_N, lines.digest())


def codec_corpus(seed: int) -> list:
    """Packet descriptions for one op, in ``packet_to_dict`` form."""
    rng = random.Random(seed)
    sizes = [0] * CODEC_EMPTY + [
        round(2.0 ** (12.0 * j / (CODEC_FRAMES - CODEC_EMPTY - 1)))
        for j in range(CODEC_FRAMES - CODEC_EMPTY)]
    ec_lens = [j % (CODEC_MAX_EC + 1) for j in range(CODEC_FRAMES)]
    rng.shuffle(sizes)
    rng.shuffle(ec_lens)
    corpus = []
    for q, n in zip(sizes, ec_lens):
        bits = rng.getrandbits
        group = 0
        qubits = []
        for _ in range(q):
            # pairs of consecutive descriptors share a group half the time
            if group and rng.random() < 0.5:
                g, group = group, 0
            else:
                g = group = bits(32) if rng.random() < 0.7 else 0
            qubits.append({"qubit_id": bits(32), "entanglement_group": g,
                           "encoding": bits(1)})
        ack = rng.random() < 0.5
        corpus.append({
            "version": 1,
            "requesting_station_id": bits(32),
            "receiving_station_id": bits(32),
            "transmit_time_ns": bits(64),
            "op_commence_time_ns": bits(64) if rng.random() < 0.5 else 0,
            "qubits": qubits,
            "ack_present": ack,
            "ack_session_id": bits(32) if ack else 0,
            "error_corr_hex": rng.randbytes(n).hex(),
        })
    return corpus


def check_frame(spec: dict, frame: bytes, decoded: dict) -> str:
    """Why a round-tripped frame is wrong, or "" when it is right.

    Checks the wire layout independently of the codec: length 42 + 9q + n,
    magic, version, header fields, CRC-32 over the body, end marker.
    """
    q = len(spec["qubits"])
    n = len(spec["error_corr_hex"]) // 2
    if len(frame) != 42 + 9 * q + n:
        return f"length {len(frame)} != 42 + 9*{q} + {n}"
    if frame[:3] != b"\x51\x50\x01" or frame[-2:] != b"\x0e\x0f":
        return "bad magic, version or end marker"
    body, (crc,) = frame[:-6], struct.unpack(">I", frame[-6:-2])
    if zlib.crc32(body) != crc:
        return "crc mismatch"
    header = struct.unpack(">IIQQH", frame[4:30])
    if header != (spec["requesting_station_id"], spec["receiving_station_id"],
                  spec["transmit_time_ns"], spec["op_commence_time_ns"], q):
        return "header fields differ from the description"
    if decoded != spec:
        return "decoded packet differs from the description"
    return ""


class PacketCodec(Workload):
    """An op round-trips a corpus through the codec functions the ``packet``
    subcommands call; one argparse call per frame would swamp the codec."""
    name = "packet-codec"

    def prepare(self, seed: int):
        return codec_corpus(seed)

    def run(self, corpus) -> int:
        pk = sys.modules["qsatnet.packet"]
        self.frames = frames = []
        for spec in corpus:
            frame = pk.encode(pk.packet_from_dict(spec))
            frames.append((frame, pk.packet_to_dict(pk.decode(frame))))
        return 0

    def check(self, corpus, rc: int) -> Outcome:
        frames, self.frames = self.frames, []
        return self.check_frames(corpus, frames)

    @staticmethod
    def check_frames(corpus: list, frames: list) -> Outcome:
        if len(frames) != len(corpus):
            return _fail(f"{len(frames)} frames for {len(corpus)} inputs")
        sha = hashlib.sha256()
        for k, (spec, (frame, decoded)) in enumerate(zip(corpus, frames)):
            reason = check_frame(spec, frame, decoded)
            if reason:
                return _fail(f"frame {k}: {reason}")
            sha.update(frame)
        return Outcome(True, len(frames), sha.hexdigest())


WORKLOADS = {w.name: w for w in (BatchedRun, RatesSweep, UplinkSample,
                                 PacketCodec)}


def pinned_digests() -> dict:
    try:
        return json.loads(DIGESTS_PATH.read_text())
    except FileNotFoundError:
        return {}

"""Self-tests of the benchmark: each output check rejects a corrupted
output, the pinned digests and the layer trace are wired up, and a
directory without the program yields no result.

Run from the repository root (takes about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

assert run.use_checkout()
import workloads as wl  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def make_bench(name: str, seed: int = 7) -> run.Bench:
    bench = run.Bench(argparse.Namespace(workload=name, seed=seed, seconds=0,
                                         trace=1), wl)
    bench.set_up()
    return bench


@pytest.fixture(scope="module")
def outputs():
    """One op's output bytes per CLI workload (seed 7)."""
    out = {}
    for name in ("batched-run", "rates-sweep", "uplink-sample"):
        bench = make_bench(name)
        inputs = bench.workload.prepare(7)
        assert bench.workload.run(inputs) == 0
        out[name] = inputs[1].read_bytes()
        bench.close()
    return out


def check(name: str, data: bytes) -> wl.Outcome:
    return wl.WORKLOADS[name].check_bytes(data)


def replace_line(data: bytes, index: int, edit) -> bytes:
    lines = data.split(b"\n")
    lines[index] = edit(lines[index])
    return b"\n".join(lines)


def drop_line(data: bytes, index: int) -> bytes:
    lines = data.split(b"\n")
    del lines[index]
    return b"\n".join(lines)


def test_outputs_pass(outputs):
    for name, data in outputs.items():
        outcome = check(name, data)
        assert outcome.ok, (name, outcome.reason)
        assert outcome.items > 0


@pytest.mark.parametrize("edit", [
    lambda d: d.replace(b'"qubits_delivered":50', b'"qubits_delivered":49'),
    lambda d: d.replace(b'"sessions_done":1', b'"sessions_done":0'),
    lambda d: replace_line(d, -2, lambda s: s.replace(
        b'"pairs_survived":', b'"pairs_survived":1')),
    lambda d: drop_line(d, 100),
    lambda d: replace_line(d, 5, lambda s: s[:-1]),
])
def test_batched_run_rejects_wrong_trace_or_summary(outputs, edit):
    bad = edit(outputs["batched-run"])
    assert bad != outputs["batched-run"]
    assert not check("batched-run", bad).ok


@pytest.mark.parametrize("edit", [
    lambda d: replace_line(d, 17, lambda s: s.rsplit(b",", 1)[0] + b",nan"),
    lambda d: replace_line(d, 17, lambda s: s.rsplit(b",", 1)[0] + b",0.07"),
    lambda d: replace_line(d, 17, lambda s: s.rsplit(b",", 1)[0] + b",-1e-9"),
    lambda d: replace_line(d, 17, lambda s: s.replace(b",0.1,", b",0.2,")),
    lambda d: drop_line(d, 17),
])
def test_rates_sweep_rejects_corrupted_row(outputs, edit):
    bad = edit(outputs["rates-sweep"])
    assert bad != outputs["rates-sweep"]
    assert not check("rates-sweep", bad).ok


def _scale_eta(row: bytes) -> bytes:
    t, eta, loss = row.split(b",")
    return b",".join([t, repr(float(eta) * 0.5).encode(), loss])


@pytest.mark.parametrize("edit", [
    lambda d: replace_line(d, 500, _scale_eta),
    lambda d: replace_line(d, 500, lambda s: b"0.5" + s[s.index(b","):]),
    lambda d: replace_line(d, 500, lambda s: s[:len(s) // 2]),
    lambda d: replace_line(d, 500, lambda s: s.split(b",")[0] + b",0.04,13.9"),
    lambda d: drop_line(d, 500),
])
def test_uplink_sample_rejects_corrupted_row(outputs, edit):
    bad = edit(outputs["uplink-sample"])
    assert bad != outputs["uplink-sample"]
    assert not check("uplink-sample", bad).ok


def test_uplink_sample_rejects_miscalibrated_mean(outputs):
    lines = outputs["uplink-sample"].decode().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        t, eta, _ = line.split(",")
        eta = float(eta) * 0.97    # 0.13 dB more mean loss
        rows.append(f"{t},{eta!r},{-10.0 * __import__('math').log10(eta)!r}")
    assert not check("uplink-sample", ("\n".join(rows) + "\n").encode()).ok


def test_packet_codec_rejects_flipped_frame_byte():
    bench = make_bench("packet-codec")
    corpus = bench.workload.prepare(7)
    bench.workload.run(corpus)
    frames = bench.workload.frames
    bench.close()
    assert wl.PacketCodec.check_frames(corpus, frames).ok
    k = max(range(len(frames)), key=lambda i: len(frames[i][0]))
    frame, decoded = frames[k]
    for pos in (0, 2, 5, 30, len(frame) // 2, len(frame) - 7,
                len(frame) - 3, len(frame) - 1):
        flipped = bytearray(frame)
        flipped[pos] ^= 0x01
        bad = frames[:k] + [(bytes(flipped), decoded)] + frames[k + 1:]
        assert not wl.PacketCodec.check_frames(corpus, bad).ok, pos
    wrong = dict(decoded, transmit_time_ns=decoded["transmit_time_ns"] ^ 1)
    bad = frames[:k] + [(frame, wrong)] + frames[k + 1:]
    assert not wl.PacketCodec.check_frames(corpus, bad).ok


def test_corpus_spans_descriptor_and_ec_sizes():
    corpus = wl.codec_corpus(7)
    sizes = sorted(len(c["qubits"]) for c in corpus)
    assert sizes[0] == 0 and sizes[-1] == 4096
    assert sorted(len(c["error_corr_hex"]) // 2 for c in corpus)[-1] == 64
    assert sizes == sorted(len(c["qubits"]) for c in wl.codec_corpus(8))
    assert wl.codec_corpus(7) == corpus


def test_scaled_scenario_at_seed_42():
    # pinned apart from digests.json: scenario seed 42 (not an op seed)
    # survives 11438 of 160000 pairs
    bench = make_bench("batched-run")
    inputs = bench.workload.prepare(42)
    assert bench.workload.run(inputs) == 0
    data = inputs[1].read_bytes()
    bench.close()
    assert hashlib.sha256(data).hexdigest().startswith("7b5e690c5c80f167")
    assert b'"pairs_survived":11438' in data.splitlines()[-1]


def test_digest_mismatch_fails_the_op():
    pinned = wl.pinned_digests()
    for name in wl.WORKLOADS:
        assert set(pinned[name]) == {"warmup",
                                     *map(str, range(wl.PINNED_OPS))}
    bench = make_bench("packet-codec", seed=wl.DEFAULT_SEED)
    assert bench.pinned["0"] == pinned["packet-codec"]["0"]
    assert bench.digest_checked == 1    # the warm-up op of the set-up
    _, outcome = bench.op(0)
    assert outcome.ok and bench.digest_checked == 2
    bench.pinned = {"1": "0" * 64}
    _, outcome = bench.op(1)
    bench.close()
    assert not outcome.ok and "pinned" in outcome.reason


def test_warmup_digest_is_checked_at_any_seed():
    bench = make_bench("packet-codec", seed=7)
    assert set(bench.pinned) == {"warmup"} and bench.digest_checked == 1
    _, outcome = bench.op(0)
    bench.close()
    assert outcome.ok and bench.digest_checked == 1


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_op_reads_every_predicted_layer(name):
    bench = make_bench(name)
    plain, wrapped, per_op, outcomes, tr = bench.timed_ops(traced=True)
    bench.close()
    assert all(o.ok for o in outcomes)
    metrics, missing = run.layer_metrics(per_op, plain, wrapped, tr, name)
    assert missing == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    snap = per_op[0][0]
    covered = sum(s["self_s"] for s in snap.values())
    assert covered >= 0.9 * wrapped[0]
    if name == "batched-run":
        assert max(snap, key=lambda n: snap[n]["self_s"]) == "proto.deposit_raw"
        assert metrics["proto.survival_ratio"]["value"] > 0
        assert metrics["proto.trace_records"]["value"] == wl.TRACE_LINES


def test_stale_wrapper_name_is_reported_missing(monkeypatch):
    bench = make_bench("packet-codec")
    monkeypatch.setattr(tracer, "LAYERS", [
        *tracer.LAYERS,
        ("packet.encode", ["qsatnet.packet:encode_v0"], None, None, False)])
    plain, wrapped, per_op, _, tr = bench.timed_ops(traced=True)
    bench.close()
    _, missing = run.layer_metrics(per_op, plain, wrapped, tr, "packet-codec")
    assert missing == ["qsatnet.packet:encode_v0"]


def test_end_to_end_metric_names(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "packet-codec", "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_no_result_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "packet-codec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from audit_util import survivor_z_scores
from qsatnet import rates
from qsatnet.cli import main
from qsatnet.engine import COUNT_MAX

EXAMPLE = str(Path(__file__).resolve().parent.parent / "scenarios" / "example.ini")


def run_cli(args):
    return main(args)


class TestRun:
    def test_trace_and_summary(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert run_cli(["run", EXAMPLE, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        summary = records[-1]["summary"]
        assert summary["qubits_delivered"] == summary["ebits_consumed"]
        assert summary["pairs_attempted"] == 10_000
        assert all("event" in r for r in records[:-1])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(["run", EXAMPLE, "--output", str(a)])
        run_cli(["run", EXAMPLE, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("extra, digest", [
        ("", "33e2e5cf68a5a22e1289f8b9f3477b8bd7b99d239dccdb7a8a4b4cf2076ad902"),
        ("batch_size = 100\n",
         "2ae30b9387454f2d7c1d9f5ae08fb8be4c310f0261d35223f88d0768daee944f"),
        # 37-pair batches do not fill a draw chunk exactly
        ("batch_size = 37\n",
         "449eaf9c0fe270f20527d43b766e13093a5f63f31a4127a39d2694170f1ebc9e"),
        # b = 0: the arm fades draw their streams and read the floor
        ("downlink_b = 0.0\nbatch_size = 100\n",
         "27a11406591a3916ea2e27676729613f37dead44ba87906def467c582eb54664"),
        # the session yield's Monte-Carlo mean at and around its chunk edge
        ("yield_samples = 1\n",
         "9251ddefb05ec40c9645be615de4aafd54d3b5fc16fbbdf9d46f8a0b3882c644"),
        ("yield_samples = 16384\n",
         "c16abd15b2d35f90a4ad49f655f4ec384f955f2037f2911819032ff8f45ec14e"),
        ("yield_samples = 16385\n",
         "758b6d947333afbd756c73163b1431acb787b6279b8ed51cd01ce394c49b644f"),
        # station positions move with the sidereal rotation
        ("earth_rotation = on\nbatch_size = 100\n",
         "9e5595bd2166709218787093ba744928d91460bd7b9a3c857ea6fbf326f8481f"),
        # a slow source: the relay sets after 402 batches, several draw
        # chunks into the pass, and the yield uses the last batch's arms
        ("t_end = 3000.0\nsource_rate_hz = 100.0\nbatch_size = 100\n"
         "pairs_target = 100000\nmemory_coherence_s = 1000.0\nqubits = 5\n",
         "9cc16cb54feca83bd84c7a611b18ecea04e8658e13b126e656e8b9bf0ca77fb4"),
        # full memories drop 423 survivors
        ("memory_capacity = 300\nbatch_size = 100\n",
         "9d9cd57223c8a7b68962be4df5d64f4bdf77d2b1d836cc91d4de214be4a3f64e"),
        # one batch larger than a draw chunk
        ("pairs_target = 40000\n",
         "ea434c184f3829432cd69b2fb5bd13e923dde2d45c95e615b93518cec771da56"),
    ])
    def test_trace_bytes_pinned(self, tmp_path, extra, digest):
        # the bundled example, one batch or fixed-size batches; each line of
        # extra replaces the example's line for the same key, or is appended
        # (the example file ends inside [protocol])
        scenario, out = tmp_path / "s.ini", tmp_path / "trace.jsonl"
        text = Path(EXAMPLE).read_text()
        for line in extra.splitlines(keepends=True):
            key = line.split("=")[0]
            text, found = re.subn(rf"^{re.escape(key)}=.*\n", line, text,
                                  flags=re.M)
            text += "" if found else line
        scenario.write_text(text)
        assert run_cli(["run", str(scenario), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        # a z-bound a re-pin cannot absorb: each of these 11 runs has one
        # session, whose survivor count must lie within 5 standard
        # deviations of the binomial mean that its batches' eta0 and b give
        z = survivor_z_scores(json.loads(line)
                              for line in out.read_text().splitlines())
        assert len(z) == 1 and abs(z[1]) < 5.0

    def test_seed_override_changes_trace(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(["run", EXAMPLE, "--output", str(a)])
        run_cli(["run", EXAMPLE, "--seed", "7", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616",
                                      "18446744073709551617"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        # --seed 2**64 + 1 would otherwise print what --seed 1 prints
        sweep = ["rates-sweep", "--distance", "1e6", "--samples", "1",
                 "--waist-grid", "0.2", "--rx-grid", "0.5"]
        sample = ["channel-sample", "--model", "downlink", "--n", "3"]
        for argv in (["run", EXAMPLE], sweep, sample):
            out = tmp_path / "out"
            assert run_cli([*argv, f"--seed={seed}", "--output", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: --seed must be an integer in "
                f"[0, 18446744073709551615], got {seed}\n")
            assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run_cli(["channel-sample", "--model", "downlink", "--n", "3",
                        "--seed", str(2**64 - 1), "--output", str(out)]) == 0

    def test_duplicate_id_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(Path(EXAMPLE).read_text().replace("id = 201", "id = 100"))
        assert run_cli(["run", str(bad)]) == 2
        assert "100" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert run_cli(["run", "/does/not/exist.ini"]) == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(bytes(range(256)) * 4)
        assert run_cli(["run", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: cannot read scenario file: 'utf-8' codec can't decode")

    def test_zero_batch_size_exits_2(self, tmp_path, capsys):
        # zero-pair batches would reschedule at the same t forever
        bad = tmp_path / "bad.ini"
        bad.write_text(Path(EXAMPLE).read_text() + "batch_size = 0\n")
        assert run_cli(["run", str(bad)]) == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("distill_rounds", 10**320), ("yield_samples", 10**30),
        ("yield_samples", 2**62), ("pairs_target", 10**30),
        ("qubits", COUNT_MAX + 1)])
    def test_count_above_bound_exits_2(self, tmp_path, capsys, key, value):
        # too large for float arithmetic or any array: a bad value, not a
        # runtime failure
        bad = tmp_path / "bad.ini"
        text = re.sub(rf"^{key} = .*\n", "", Path(EXAMPLE).read_text(),
                      flags=re.M)
        bad.write_text(text + f"{key} = {value}\n")
        out = tmp_path / "never.jsonl"
        assert run_cli(["run", str(bad), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: [protocol] {key}: bad value '{value}': value "
            f"must be an integer in [1, {COUNT_MAX}]")

    def test_unallocatable_yield_samples_exits_3(self, tmp_path, capsys):
        # a count within the bound that no address space holds fails when
        # the session's yield is drawn
        bad = tmp_path / "bad.ini"
        bad.write_text(Path(EXAMPLE).read_text().replace(
            "yield_samples = 100000", "yield_samples = 100000000000000000"))
        assert run_cli(["run", str(bad), "--output",
                        str(tmp_path / "trace.jsonl")]) == 3
        assert capsys.readouterr().err.startswith(
            "runtime failure: out of memory: ")


class TestRatesSweep:
    def test_row_major_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["rates-sweep", "--distance", "1200e3", "--b", "0",
                        "--waist-grid", "0.1,0.2", "--rx-grid", "0.5,1.0,1.5",
                        "--samples", "1", "--output", str(out)]) == 0
        rows = [tuple(line.split(",")[:2])
                for line in out.read_text().splitlines()[1:]]
        assert rows == [("0.1", "0.5"), ("0.1", "1.0"), ("0.1", "1.5"),
                        ("0.2", "0.5"), ("0.2", "1.0"), ("0.2", "1.5")]

    def test_single_point_value(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["rates-sweep", "--distance", "200e3", "--b", "0",
                        "--waist-grid", "0.25", "--rx-grid", "0.25",
                        "--samples", "1", "--seed", "1",
                        "--output", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "tx_waist_m,rx_radius_m,distance_m,b,mean_rate_ebits"
        assert float(row.split(",")[-1]) == pytest.approx(0.826, abs=1e-3)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["rates-sweep", "--distance", "1200e3", "--b", "0.1",
                "--waist-grid", "0.1:0.5:3", "--rx-grid", "0.2:1.0:3",
                "--samples", "2000", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(args + ["--output", str(a)])
        run_cli(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # parallel: every usable CPU, up to SWEEP_THREADS; serial: one thread
        args = ["rates-sweep", "--distance", "1200e3", "--b", "0.1",
                "--waist-grid", "0.1:1.0:4", "--rx-grid", "0.2:1.0:4",
                "--samples", "5000", "--seed", "9"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli(args + ["--output", str(parallel)]) == 0
        monkeypatch.setattr(rates, "SWEEP_THREADS", 1)
        assert run_cli(args + ["--output", str(serial)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    # default 10x10 grids at seed 7; sample counts around the Monte-Carlo
    # draw chunk of 16384 and two chunk boundaries (40000)
    @pytest.mark.parametrize("args,digest", [
        ("1200e3 csv 1",
         "4a83217c803876f2c015f025b3ac0a8d5b5e024afbe44da4d147007ac78ea3a2"),
        ("1200e3 csv 16383",
         "349ae7a9eaf6a8b4b053c3f00b7ec24af8253b49849a3713c085e30e520533ac"),
        ("1200e3 csv 16384",
         "20a9c81ea27cc0ad5f62434ed7b164b99af6227786bf792e9c7f77e3909ab75a"),
        ("1200e3 csv 16385",
         "fff1bddf1d8b2346d997adc720c8d48cb257246fc5673f67fc254b2ec42f213b"),
        ("1200e3 csv 40000",
         "26f1eafa10359f49f8275fc563c1ec5d05cdb87a084890d348dbcbe103f61e83"),
        ("1200e3 jsonl 1",
         "6f4dd407d4f9acc1ceb3103740d09c9174fe271bc6fb107ce0d9503f99fe72d4"),
        ("1200e3 jsonl 16383",
         "9e3254b26407979a0440093e221d94ab1ed1803b33c201142020449ec56f1457"),
        ("1200e3 jsonl 16384",
         "14674115df4db219c847529471ba793699c327520616369903a9f31b2ffe916b"),
        ("1200e3 jsonl 16385",
         "5ef2f7e3f7095a7486eceb77a63d8b666a1e70a3a7201d17e17dfd5541ed499f"),
        ("1200e3 jsonl 40000",
         "eed692e3d1d15eb2d84d1ee4532818222a42586ee7a380eeedfef8837a50b1d3"),
        ("36000e3 csv 1",
         "0a42577b4d93d73a35512aec4036282790475b799285b91121cf8db404bf64bb"),
        ("36000e3 csv 16383",
         "03c827af973ce5c08e7fef3e46a92cd81d4b166bcd40457dac04c06ca262e891"),
        ("36000e3 csv 16384",
         "ff69b748907238e214eb01f5c49033f9760a5cdee4cb351226e4b248d7f5c341"),
        ("36000e3 csv 16385",
         "64d59a1f9d214e3ccc9b0910b7724ff41a1d476c117c536b8db49f5803fbc7d0"),
        ("36000e3 csv 40000",
         "eb8b278e1dafd749509a127865f698408a98e8a7df04175c15359f355ba9fdea"),
        ("36000e3 csv 100000",
         "f3a08485db71668434f13ef70c4e9aa695cd3e2be348128f2c2c97c718e1e0b6"),
        ("36000e3 jsonl 1",
         "da79a916c8795c4915d8e4070cc891307fe429b129807724a9cd26c92f21b8bc"),
        ("36000e3 jsonl 16383",
         "85e94073dde13c6185ece8a18ba2c7a1a871d259eaadf7573eee4ad533fbc314"),
        ("36000e3 jsonl 16384",
         "c43d3dab0776b8f3d1f6c93499c3813061658e4fb6a151ad571d7b29301c668e"),
        ("36000e3 jsonl 16385",
         "0c7d42e2d5c9c33c2721c9848abc5b6ca32546370da2b1384784c1a43c46eb3b"),
        ("36000e3 jsonl 40000",
         "f5b9638763a10a5a12043292601f03e051d31cbe8f6e3d6b5f17d9831bc167eb"),
    ])
    def test_bytes_pinned(self, tmp_path, args, digest):
        distance, fmt, samples = args.split()
        out = tmp_path / "sweep.out"
        assert run_cli(["rates-sweep", "--distance", distance, "--b", "0.1",
                        "--format", fmt, "--samples", samples, "--seed", "7",
                        "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("fmt,digest", [
        ("csv", "fc55ecca2f955bac9866883e74623a0581d31eba569df37377fcd85b88d17500"),
        ("jsonl",
         "9971284fcc03c4d7e4a1255538328b6c7e3eedfffbde8e83b38ce55a1b5a9caf"),
    ])
    def test_b_zero_bytes_pinned(self, tmp_path, fmt, digest):
        out = tmp_path / "sweep.out"
        assert run_cli(["rates-sweep", "--distance", "1200e3", "--b", "0",
                        "--format", fmt, "--samples", "16385",
                        "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_default_grids_coordination_distance_bound(self, tmp_path):
        # default 10x10 grid at 36000 km: every mean rate below 0.05
        out = tmp_path / "geo.csv"
        assert run_cli(["rates-sweep", "--distance", "36000e3", "--b", "0.1",
                        "--samples", "20000", "--seed", "42",
                        "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 100
        assert all(float(r.split(",")[-1]) < 0.05 for r in rows)

    def test_malformed_grid_exits_2(self, capsys):
        assert run_cli(["rates-sweep", "--distance", "1e6",
                        "--waist-grid", "0.1:0.5", "--rx-grid", "0.2"]) == 2
        # text that is not a number, or a bound out of the float range
        for grid in ("a:b:3", "0.1:1:x", "0.1,abc", "0.1:1e400:3", ","):
            capsys.readouterr()
            assert run_cli(["rates-sweep", "--distance", "1e6",
                            "--waist-grid", grid, "--rx-grid", "0.2"]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: --waist-grid"), grid
        assert run_cli(["rates-sweep", "--distance", "-5",
                        "--waist-grid", "0.1", "--rx-grid", "0.2"]) == 2
        for grid in ("0", "-0.5", "0.1,0", "0:1:3", "nan", "inf"):
            assert run_cli(["rates-sweep", "--distance", "1e6",
                            "--waist-grid", "0.1", "--rx-grid", grid]) == 2
        for flags in (["--distance", "1e6", "--wavelength", "-1"],
                      ["--distance", "nan"], ["--distance", "inf"],
                      ["--distance", "1e6", "--b", "nan"],
                      ["--distance", "1e6", "--b", "-0.1"],
                      ["--distance", "1e6", "--samples", "0"]):
            # the later --samples wins
            assert run_cli(["rates-sweep", "--waist-grid", "0.1", "--rx-grid",
                            "0.2", "--samples", "10", *flags]) == 2, flags

    def test_budget_out_of_float_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run_cli(["rates-sweep", "--distance", "1e6", "--waist-grid",
                        "0.1,1e300", "--rx-grid", "0.2", "--samples", "3",
                        "--output", str(out)]) == 2
        assert "config error: w0=1e+300 " in capsys.readouterr().err
        assert not out.exists()
        # a beam that a long wavelength spreads names all three fields
        assert run_cli(["rates-sweep", "--distance", "1e6", "--waist-grid",
                        "0.2", "--rx-grid", "0.5", "--samples", "3",
                        "--wavelength=1e150"]) == 2
        assert capsys.readouterr().err == (
            "config error: w0=0.2 at wavelength=1e+150 spreads the beam out "
            "of the float range at distance=1000000.0\n")

    @pytest.mark.parametrize("argv, distance", [
        (["rates-sweep", "--distance", "1e6", "--waist-grid", "1e-160",
          "--rx-grid", "0.5", "--samples", "3", "--wavelength", "1"],
         "1000000.0"),
        (["channel-sample", "--model", "fixed", "--waist", "1e-160",
          "--wavelength", "1", "--n", "2"], "1200000.0")])
    def test_beam_whose_radius_overflows_to_inf_exits_2(self, capsys, argv,
                                                        distance):
        # z / z_R and w(z) overflow to inf with no exception: both commands
        # once wrote 0.0 transmittances and exited 0
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (
            "config error: w0=1e-160 at wavelength=1.0 spreads the beam out "
            f"of the float range at distance={distance}\n")

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_first_failing_point_in_grid_order_exits_2(self, tmp_path, capsys,
                                                       monkeypatch, threads):
        # (0, 1) fails on rx_radius and (1, 0) on w0, in different shares
        # once there are 2 or more threads; the error names (0, 1)
        monkeypatch.setattr(rates, "_sweep_threads", lambda: threads)
        out = tmp_path / "never.csv"
        assert run_cli(["rates-sweep", "--distance", "1e6", "--waist-grid",
                        "0.1,1e300", "--rx-grid", "0.5,1e300", "--samples",
                        "3", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: rx_radius=1e+300 ")
        assert not out.exists()

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_out_of_memory_at_one_point_exits_3(self, tmp_path, capsys,
                                                monkeypatch, threads):
        point_rate = rates._point_rate

        def failing(*args):
            if args[-2:] == (1, 1):
                raise MemoryError("grid point (1, 1)")
            return point_rate(*args)

        monkeypatch.setattr(rates, "_sweep_threads", lambda: threads)
        monkeypatch.setattr(rates, "_point_rate", failing)
        out = tmp_path / "never.csv"
        assert run_cli(["rates-sweep", "--distance", "1e6", "--waist-grid",
                        "0.1,0.2", "--rx-grid", "0.5,1.0", "--samples", "3",
                        "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            "runtime failure: out of memory: grid point (1, 1)\n")
        assert not out.exists()

    @pytest.mark.parametrize("grids", [
        ["--waist-grid", "0.1:1:100000000000000000"],
        ["--waist-grid", "0.1", "--rx-grid", "0.1",
         "--samples", "100000000000000000"],
    ])
    def test_unallocatable_request_exits_3(self, tmp_path, capsys, grids):
        # 10**17 grid points or samples need 8e17 bytes, more than the 2**57
        # bytes of any x86-64 or arm64 user address space, so the allocation
        # fails at once
        out = tmp_path / "never.csv"
        assert run_cli(["rates-sweep", "--distance", "1e6", *grids,
                        "--output", str(out)]) == 3
        assert "runtime failure: out of memory: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--samples", str(10**30)], "--samples"),
        (["--samples", str(COUNT_MAX + 1)], "--samples"),
        (["--waist-grid", f"0.1:1:{2**62}"], "--waist-grid count"),
    ])
    def test_count_above_bound_exits_2(self, tmp_path, capsys, flags, name):
        out = tmp_path / "never.csv"
        assert run_cli(["rates-sweep", "--distance", "1e6", *flags,
                        "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {name} must be an integer in [1, {COUNT_MAX}], ")
        assert not out.exists()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        run_cli(["rates-sweep", "--distance", "200e3", "--b", "0",
                 "--waist-grid", "0.25", "--rx-grid", "0.25", "--samples", "1",
                 "--format", "jsonl", "--output", str(out)])
        rec = json.loads(out.read_text())
        assert rec["mean_rate_ebits"] == pytest.approx(0.826, abs=1e-3)


class TestChannelSample:
    def test_downlink_b_zero_constant_column(self, tmp_path):
        out = tmp_path / "dl.csv"
        run_cli(["channel-sample", "--model", "downlink", "--eta0", "0.3",
                 "--b", "0", "--n", "50", "--seed", "3", "--output", str(out)])
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 50
        assert all(float(r.split(",")[1]) == 0.3 for r in rows)

    def test_uplink_block_fading_column(self, tmp_path):
        out = tmp_path / "ul.csv"
        run_cli(["channel-sample", "--model", "uplink",
                 "--eta-diffraction", "0.5", "--beam-radius-rx", "1.0",
                 "--sigma-wander", "0.4", "--n", "20", "--seed", "3",
                 "--output", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        # t advances one coherence interval per row
        assert float(rows[1][0]) - float(rows[0][0]) == pytest.approx(1e-3)
        etas = [float(r[1]) for r in rows]
        assert len(set(etas)) > 15

    def test_uplink_substep_rows_equal_within_block(self, tmp_path):
        out = tmp_path / "ul2.csv"
        run_cli(["channel-sample", "--model", "uplink",
                 "--eta-diffraction", "0.5", "--beam-radius-rx", "1.0",
                 "--sigma-wander", "0.4", "--n", "40", "--seed", "3",
                 "--t-step", "0.00025", "--output", str(out)])
        etas = [float(line.split(",")[1])
                for line in out.read_text().splitlines()[1:]]
        blocks = [etas[k:k + 4] for k in range(0, 40, 4)]
        assert all(len(set(block)) == 1 for block in blocks)
        assert len({block[0] for block in blocks}) > 5

    def test_calibrated_uplink_mean(self, tmp_path):
        out = tmp_path / "cal.csv"
        run_cli(["channel-sample", "--model", "uplink",
                 "--eta-diffraction", "0.5", "--beam-radius-rx", "1.0",
                 "--calibrate-target-db", "20", "--n", "200000", "--seed", "4",
                 "--output", str(out)])
        etas = [float(line.split(",")[1])
                for line in out.read_text().splitlines()[1:]]
        mean_db = -10.0 * math.log10(sum(etas) / len(etas))
        assert mean_db == pytest.approx(20.0, abs=0.2)

    UPLINK = ["channel-sample", "--model", "uplink", "--eta-diffraction", "0.036",
              "--beam-radius-rx", "1.1", "--calibrate-target-db", "20",
              "--n", "5000", "--seed", "7"]

    @pytest.mark.parametrize("args, digest", [
        (UPLINK, "7671e722fcfefd3001973c418383b3d83dbc7f368452adc90ee385419420a9fa"),
        (UPLINK + ["--t-step", "3.7e-4"],
         "97da3961ade7b168e2df5db7aabb3a0818ea952bd12d392f67eb879b243c3711"),
        (UPLINK + ["--t-step", "0.25"],
         "5d132968484cff76041ac1893011db22013853d009520acb4b3cfd93bfa9cb31"),
        (["channel-sample", "--model", "uplink", "--sigma-wander", "0.3",
          "--eta-diffraction", "0.4", "--beam-radius-rx", "1.0",
          "--fade-coherence", "7e-4", "--t-step", "1e-3", "--n", "5000",
          "--seed", "3", "--format", "jsonl"],
         "f23cdbd72438173a7b208c008d1f268ca5d6a86dff0bfea09289894e1d68a203"),
    ])
    def test_uplink_bytes_pinned(self, tmp_path, args, digest):
        out = tmp_path / "ul.out"
        assert run_cli(args + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # the fixed budget goes through math alone; the downlink's normals go
    # through numpy's SIMD log1p and cos, so its pin holds under one numpy
    # SIMD dispatch, like every Monte-Carlo pin (see conftest)
    @pytest.mark.parametrize("args, digest", [
        (["--model", "fixed"],
         "291fc2d98c24acdd902c4e9f3debda4b4812cf5caa9a9a17650afb9837397b4f"),
        (["--model", "fixed", "--format", "jsonl"],
         "4ef94fd064546897d89e3b84aaf323b0ded4e003b9638bff2d875e675a3147d9"),
        (["--model", "downlink", "--n", "1000", "--seed", "7"],
         "e986c763690484a2143c7ea6d83b18d406928685ffcdafb5c16b6dc866ee6a7b"),
    ], ids=["fixed-csv", "fixed-jsonl", "downlink-csv"])
    def test_fixed_and_downlink_bytes_pinned(self, tmp_path, args, digest):
        out = tmp_path / "sample.out"
        assert run_cli(["channel-sample", *args, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("model, flag, value", [
        ("uplink", "--t-step", "nan"), ("uplink", "--t-step", "inf"),
        ("uplink", "--t-step", "-1"), ("uplink", "--t-step", "0"),
        ("uplink", "--t-step", "1e300"),
        ("uplink", "--fade-coherence", "nan"),
        ("uplink", "--beam-radius-rx", "-1"),
        ("uplink", "--sigma-wander", "nan"),
        ("fixed", "--distance", "nan"), ("fixed", "--wavelength", "-1"),
        ("fixed", "--waist", "inf"), ("fixed", "--rx-radius", "0"),
        ("downlink", "--b", "nan"), ("downlink", "--b", "-0.1"),
        ("downlink", "--n", "0"), ("downlink", "--n", str(2**62)),
        ("uplink", "--n", str(10**30)),
        ("uplink", "--calibrate-target-db", "nan"),
        ("uplink", "--calibrate-target-db", "inf"),
        ("uplink", "--calibrate-target-db", "-1"),
        ("downlink", "--eta0", "2"), ("downlink", "--eta0", "nan"),
        ("uplink", "--eta-diffraction", "1.5"),
        ("uplink", "--eta-diffraction", "-0.1"),
    ])
    def test_bad_numeric_flag_exits_2(self, tmp_path, capsys, model, flag, value):
        out = tmp_path / "never.csv"
        # --sigma-wander and --calibrate-target-db exclude each other
        wander = ([] if flag == "--calibrate-target-db"
                  else ["--sigma-wander", "0.3"])
        assert run_cli(["channel-sample", "--model", model, *wander,
                        "--n", "5", flag, value, "--output", str(out)]) == 2
        assert f"config error: {flag} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, field", [
        (["--waist", "1e-300", "--distance", "1e300"], "w0"),
        (["--distance", "1e300"], "distance"),
        (["--rx-radius", "1e300"], "rx_radius"),
        (["--wavelength=1e150"], "wavelength"),
    ])
    def test_budget_out_of_float_range_exits_2(self, tmp_path, capsys, flags,
                                               field):
        out = tmp_path / "never.csv"
        assert run_cli(["channel-sample", "--model", "fixed", "--n", "2",
                        *flags, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        # a spread beam names w0, the wavelength and the distance together
        spread = {"distance": ("1.55e-06", "1e+300"),
                  "wavelength": ("1e+150", "1200000.0")}
        if field in spread:
            wavelength, distance = spread[field]
            assert err == (f"config error: w0=0.2 at wavelength={wavelength} "
                           f"spreads the beam out of the float range at "
                           f"distance={distance}\n")
        else:
            assert f"config error: {field}=" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--beam-radius-rx", "5e-324", "--calibrate-target-db", "20"],
         "beam_radius_at_rx=5e-324 is too small to square"),
        (["--beam-radius-rx", "1e-200", "--sigma-wander", "1e-200"],
         "beam_radius_at_rx=1e-200 is too small to square"),
        # the calibrated sigma would be 5e154, where 4 sigma**2 overflows
        (["--beam-radius-rx", "1e150", "--calibrate-target-db", "100"],
         "target 100.0 dB needs a wander beyond the float range"),
        # the calibrated sigma would be 1.5625e-162, whose square underflows
        (["--eta-diffraction", "1", "--beam-radius-rx", "1e-160",
          "--calibrate-target-db", "1e-300"],
         "target 1e-300 dB needs a wander below the float range"),
        # the default row step puts the last row's time past the float range
        (["--sigma-wander", "0.3", "--fade-coherence", "1e308", "--n", "3"],
         "--fade-coherence 1e+308 puts sample 2 past 2**63 fade intervals "
         "or the float range"),
    ])
    def test_uplink_out_of_float_range_exits_2(self, capsys, flags, message):
        assert run_cli(["channel-sample", "--model", "uplink", "--n", "2",
                        *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags, field", [
        (["--beam-radius-rx", "1e160", "--sigma-wander", "1.5"],
         "beam_radius_at_rx=1e+160"),
        (["--beam-radius-rx", "1e160", "--calibrate-target-db", "20"],
         "beam_radius_at_rx=1e+160"),
        (["--sigma-wander", "1e155"], "sigma_wander=1e+155"),
    ])
    def test_uplink_radius_too_large_to_square_exits_2(self, tmp_path, capsys,
                                                       flags, field):
        out = tmp_path / "never.csv"
        assert run_cli(["channel-sample", "--model", "uplink", "--n", "2",
                        *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {field} is too large to square\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["channel-sample", "--model", "downlink", "--b", "1e308",
         "--n", "1000"],
        ["rates-sweep", "--distance", "1e6", "--b", "1e308", "--samples",
         "1000", "--waist-grid", "0.1", "--rx-grid", "0.1"],
        ["channel-sample", "--model", "uplink", "--beam-radius-rx", "1e-150",
         "--sigma-wander", "1e6", "--n", "3"],
    ])
    def test_overflowing_fade_reads_zero(self, capsys, argv):
        # the limit of the overflow, transmittance 0, with no warning line
        assert run_cli(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        header, *rows = captured.out.splitlines()
        column = 1 if argv[0] == "channel-sample" else -1   # eta, or rate
        assert header.split(",")[column] in ("eta", "mean_rate_ebits")
        assert rows and all(float(row.split(",")[column]) == 0.0
                            for row in rows)

    def test_lossless_row_reads_positive_zero_db(self, tmp_path):
        out = tmp_path / "lossless.csv"
        assert run_cli(["channel-sample", "--model", "downlink", "--eta0", "1",
                        "--b", "0", "--n", "1", "--output", str(out)]) == 0
        assert out.read_text() == "t,eta,loss_db\n0.0,1.0,0.0\n"

    def test_unallocatable_request_exits_3(self, tmp_path, capsys):
        # 10**17 rows need 8e17 bytes, more than any user address space
        out = tmp_path / "never.csv"
        assert run_cli(["channel-sample", "--model", "downlink", "--n",
                        "100000000000000000", "--output", str(out)]) == 3
        assert "runtime failure: out of memory: " in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_calibration_exits_2(self):
        assert run_cli(["channel-sample", "--model", "uplink",
                        "--eta-diffraction", "0.5", "--beam-radius-rx", "1.0",
                        "--calibrate-target-db", "1.0"]) == 2

    def test_uplink_without_wander_exits_2(self, capsys):
        assert run_cli(["channel-sample", "--model", "uplink", "--n", "3"]) == 2
        assert capsys.readouterr().err == (
            "config error: uplink model needs --sigma-wander or "
            "--calibrate-target-db\n")

    def test_byte_identical_reruns(self, tmp_path):
        args = ["channel-sample", "--model", "downlink", "--eta0", "0.25",
                "--b", "0.1", "--n", "500", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(args + ["--output", str(a)])
        run_cli(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_model(self, tmp_path):
        out = tmp_path / "fx.csv"
        run_cli(["channel-sample", "--model", "fixed", "--waist", "0.25",
                 "--rx-radius", "0.25", "--distance", "200e3", "--n", "3",
                 "--output", str(out)])
        rows = out.read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == pytest.approx(0.436, abs=1e-3)
                   for r in rows)


class TestPacketCli:
    def packet_json(self):
        return {"requesting_station_id": 1, "receiving_station_id": 2,
                "transmit_time_ns": 120083074,
                "qubits": [{"qubit_id": 1, "entanglement_group": 9,
                            "encoding": 0}],
                "ack_present": True, "ack_session_id": 4,
                "error_corr_hex": "deadbeef"}

    def test_encode_decode_round_trip(self, tmp_path, capsys):
        src = tmp_path / "packet.json"
        src.write_text(json.dumps(self.packet_json()))
        hexfile = tmp_path / "frame.hex"
        assert run_cli(["packet", "encode", "--input", str(src),
                        "--output", str(hexfile)]) == 0
        assert run_cli(["packet", "decode", "--input", str(hexfile)]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["qubits"][0]["entanglement_group"] == 9
        assert decoded["error_corr_hex"] == "deadbeef"

    def test_decode_corrupt_frame_exits_3(self, tmp_path, capsys):
        src = tmp_path / "packet.json"
        src.write_text(json.dumps(self.packet_json()))
        hexfile = tmp_path / "frame.hex"
        run_cli(["packet", "encode", "--input", str(src), "--output", str(hexfile)])
        data = bytearray(bytes.fromhex(hexfile.read_text().strip()))
        data[-8] ^= 0x55
        bad = tmp_path / "bad.hex"
        bad.write_text(data.hex())
        assert run_cli(["packet", "decode", "--input", str(bad)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CrcMismatch"
        assert isinstance(err["offset"], int)

    def test_decode_unreadable_input_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.hex")
        assert run_cli(["packet", "decode", "--input", missing]) == 2
        assert run_cli(["packet", "decode", "--raw", "--input", missing]) == 2
        latin1 = tmp_path / "latin1.hex"
        latin1.write_bytes(b"5150\xff01")
        assert run_cli(["packet", "decode", "--input", str(latin1)]) == 2
        assert capsys.readouterr().err.count("config error: bad frame input") == 3

    def test_encode_invalid_packet_exits_2(self, tmp_path, capsys):
        src = tmp_path / "packet.json"
        bad = self.packet_json()
        bad["requesting_station_id"] = 2**40
        src.write_text(json.dumps(bad))
        assert run_cli(["packet", "encode", "--input", str(src)]) == 2
        for spec in ([1, 2], "frame", {**self.packet_json(), "error_corr_hex": "zz"},
                     {**self.packet_json(), "requesting_station_id": "one"}):
            src.write_text(json.dumps(spec))
            assert run_cli(["packet", "encode", "--input", str(src)]) == 2
        qubit = self.packet_json()["qubits"][0]
        for field, spec in (
                ("requesting_station_id",
                 {**self.packet_json(), "requesting_station_id": 1.5}),
                ("encoding",
                 {**self.packet_json(), "qubits": [{**qubit, "encoding": 1.0}]}),
                ("ack_present", {**self.packet_json(), "ack_present": "no"})):
            src.write_text(json.dumps(spec))
            capsys.readouterr()
            assert run_cli(["packet", "encode", "--input", str(src)]) == 2
            assert f"config error: {field}=" in capsys.readouterr().err
        missing = tmp_path / "missing.json"
        assert run_cli(["packet", "encode", "--input", str(missing)]) == 2

    @pytest.mark.parametrize("field, value, named", [
        ("qubits", 5, "qubits must be"),
        ("qubits", "ab", "qubits must be"),
        ("qubits", [7], "qubits[0] must be"),
        ("qubits", [{"qubit_id": 1}, {"qubit_id": 2}, None], "qubits[2] must be"),
        ("qubits", {"qubit_id": 1}, "qubits must be"),
        ("error_corr_hex", 5, "error_corr_hex must be"),
    ])
    def test_encode_mistyped_field_is_named(self, tmp_path, capsys, field,
                                            value, named):
        src = tmp_path / "packet.json"
        src.write_text(json.dumps({**self.packet_json(), field: value}))
        assert run_cli(["packet", "encode", "--input", str(src)]) == 2
        assert (f"config error: bad packet description: {named}"
                in capsys.readouterr().err)

    def test_encode_deeply_nested_json_exits_2(self, tmp_path):
        # the JSON decoder gives up with a RecursionError; run in a fresh
        # interpreter so the test's own stack depth does not matter
        src = tmp_path / "nested.json"
        src.write_text("[" * 200000)
        env = {**os.environ, "PYTHONPATH": str(
            Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "qsatnet.cli", "packet", "encode", "-i",
             str(src)], capture_output=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(
            b"config error: bad packet description: maximum recursion depth")
        assert proc.stderr.count(b"\n") == 1

    def test_encode_deterministic(self, tmp_path):
        src = tmp_path / "packet.json"
        src.write_text(json.dumps(self.packet_json()))
        a, b = tmp_path / "a.hex", tmp_path / "b.hex"
        run_cli(["packet", "encode", "--input", str(src), "--output", str(a)])
        run_cli(["packet", "encode", "--input", str(src), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestOutput:
    PACKET = {"requesting_station_id": 1, "receiving_station_id": 2,
              "transmit_time_ns": 5, "qubits": []}

    def inputs(self, tmp_path):
        spec = tmp_path / "packet.json"
        spec.write_text(json.dumps(self.PACKET))
        frame = tmp_path / "frame.hex"
        assert run_cli(["packet", "encode", "--input", str(spec),
                        "--output", str(frame)]) == 0
        return spec, frame

    def argv(self, tmp_path, command):
        """A working argv of each subcommand, without --output."""
        spec, frame = self.inputs(tmp_path)
        return {"run": ["run", EXAMPLE],
                "rates-sweep": ["rates-sweep", "--distance", "1e6", "--samples",
                                "10", "--waist-grid", "0.1", "--rx-grid", "0.2"],
                "channel-sample": ["channel-sample", "--model", "downlink"],
                "packet encode": ["packet", "encode", "--input", str(spec)],
                "packet decode": ["packet", "decode", "--input", str(frame)],
                }[command]

    @pytest.mark.parametrize("command", [
        "run", "rates-sweep", "channel-sample", "packet encode", "packet decode"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        argv = self.argv(tmp_path, command)
        unwritable = str(tmp_path / "missing-dir" / "out")
        assert run_cli(argv + ["--output", unwritable]) == 2
        assert "config error: --output " in capsys.readouterr().err

    @pytest.mark.parametrize("command, call", [
        ("run", "qsatnet.cli.run_scenario"),
        ("rates-sweep", "qsatnet.rates.sweep"),
        ("channel-sample", "qsatnet.channel.sample_downlink"),
        ("packet encode", "qsatnet.packet.encode"),
        ("packet decode", "qsatnet.packet.decode"),
    ])
    def test_unexpected_failure_exits_3(self, tmp_path, capsys, monkeypatch,
                                        command, call):
        # an exception no command expects is reported by main like any other
        def boom(*args, **kwargs):
            raise ZeroDivisionError("boom")

        argv = self.argv(tmp_path, command)
        monkeypatch.setattr(call, boom)
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli(argv + ["--output", str(out)]) == 3
        assert capsys.readouterr().err == "runtime failure: boom\n"
        if command in ("rates-sweep", "channel-sample"):
            assert not out.exists()

    def test_encode_raw_writes_output_file(self, tmp_path, capsys):
        spec, frame = self.inputs(tmp_path)
        raw = tmp_path / "frame.bin"
        capsys.readouterr()
        assert run_cli(["packet", "encode", "--raw", "--input", str(spec),
                        "--output", str(raw)]) == 0
        assert capsys.readouterr().out == ""
        assert raw.read_bytes() == bytes.fromhex(frame.read_text())
        assert run_cli(["packet", "decode", "--raw", "--input", str(raw)]) == 0
        assert json.loads(capsys.readouterr().out)["transmit_time_ns"] == 5

    @staticmethod
    def closed_after_first_line(argv):
        """Run the CLI on argv with its stdout a pipe the reader closes after
        the first line; the first line, the exit code and stderr."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen([sys.executable, "-m", "qsatnet.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            return first, code, proc.stderr.read()

    def test_closed_stdout_exits_3(self):
        # 200000 rows are far more than a pipe buffer holds, so the writer
        # is still writing when the reader closes the pipe
        first, code, err = self.closed_after_first_line(
            ["channel-sample", "--model", "downlink", "--n", "200000"])
        assert first == b"t,eta,loss_db\n"
        assert code == 3
        assert err == b"runtime failure: output closed: [Errno 32] Broken pipe\n"

    def test_closed_stdout_on_run_exits_3(self, tmp_path):
        # 1600 batches write about 840 KB of trace, far more than a pipe
        # buffer holds, so trace writes are still going when the pipe closes
        scenario = tmp_path / "batched.ini"
        scenario.write_text(re.sub(r"^pairs_target = .*$",
                                   "pairs_target = 160000\nbatch_size = 100",
                                   Path(EXAMPLE).read_text(), flags=re.M))
        first, code, err = self.closed_after_first_line(["run", str(scenario)])
        assert json.loads(first)["event"] == "state_changed"
        assert code == 3
        assert err == b"runtime failure: output closed: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [
        ["run", EXAMPLE, "--format", "jsonl"],
        ["rates-sweep", "--distance", "1e6", "--parallel"],
        ["channel-sample", "--model", "uplink", "--sigma-wander", "0.5",
         "--calibrate-target-db", "20"],
        ["packet", "encode", "--seed", "1"],
        ["packet", "encode", "--format", "csv"],
        ["packet", "decode", "--seed", "1"],
        ["packet", "decode", "--format", "jsonl"],
    ])
    def test_unread_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_imports_leave_out_logging_and_futures():
    # concurrent.futures imports logging, which adds to every command's
    # peak memory once numpy is loaded
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsatnet.cli, qsatnet.proto, qsatnet.packet; "
         "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"],
        capture_output=True, env={**os.environ, "PYTHONPATH": src},
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"

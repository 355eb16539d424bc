"""qsatnet benchmark: four CLI workloads, end-to-end metrics and a layer trace.

Run from the repository root:

    python3 bench/run.py --workload batched-run --seed 42 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each is there):

    batched-run    ``qsatnet run`` on the bundled scenario scaled to 1600
                   batches of 100 pairs, trace written to a file
    rates-sweep    ``qsatnet rates-sweep`` 10x10 grid at 1e5 samples, serial
    uplink-sample  ``qsatnet channel-sample --model uplink``, 1e5 rows of CSV
    packet-codec   packet_from_dict -> encode -> decode -> packet_to_dict
                   over a seeded corpus of 256 frames

The program is imported from ``src/`` of the checkout the script sits in;
without it the script exits 2 and prints no result.  One process, one
thread of Python work; BLAS pools are held to one thread.

Ops run back to back, each on its own seed, for ``--seconds`` of wall time;
every op's output is checked outside the timed region, after a
``gc.collect()``.  A set-up imports the program, builds the shared inputs
and runs one warm-up op, always at the default workload seed, so its output
is held to a pinned digest in every run.  ``setup_s`` is the median of
``SETUP_REPEATS`` set-ups, each in a fresh process started with
``--setup-only`` and timed from its start to the end of its warm-up op, so
every sample counts the interpreter's start and every import, and work moved
into import time or into caches filled on first use shows.  The set-ups run
at even steps through the run (not counted in ``--seconds``), so host speed
drift within a run averages out of the median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, plain and then under the layer wrappers of ``tracer.py``, and prints
the per-layer metrics: counts from the first traced op, self times as the
median over traced ops.

The last stdout line is the result object; the lines before it give the
environment and, traced, any predicted layer that read zero calls
(``missing``) and the share of the first traced op covered by self times.
The full record, with the first traced op's spans, is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROGRAM_MODULES = ("engine", "geom", "channel", "rates", "proto", "packet",
                   "scenario", "cli")

# Layers each workload must call at least once in a traced op; a group with
# several names is satisfied by any of them (the scalar and the vectorized
# uplink paths).  A group reading zero calls is reported as missing.
PREDICTED = {
    "batched-run": [
        "engine.run_until", "engine.schedule", "engine.standard_normal",
        "engine.random", "engine.derive_key", "channel.sample_downlink",
        "channel.diffraction_transmittance", "rates.rci_array",
        "geom.satellite_position", "geom.ground_position",
        "geom.link_geometry", "geom.elevation_angle", "geom.select_leo",
        "proto.deposit_raw", "proto.replace_raw_with_distilled",
        "proto.fresh_raw", "proto.consume_distilled",
        "proto.sample_pair_survival", "scenario.load_scenario",
        "scenario.run_scenario", "cli.main", "cli.json_dumps"],
    "rates-sweep": [
        "engine.standard_normal", "engine.derive_key",
        "channel.sample_downlink", "channel.diffraction_transmittance",
        "rates.sweep", "rates.mean_rate", "rates.rci_array", "cli.main"],
    "uplink-sample": [
        "engine.derive_key", ("engine.uniform_at", "engine.uniforms_at"),
        ("channel.sample_uplink", "channel.uplink_interval_samples"),
        "channel.calibrate_uplink_sigma", "channel.db_from_eta", "cli.main"],
    "packet-codec": [
        "packet.encode", "packet.decode", "packet.crc32",
        "packet.packet_from_dict", "packet.packet_to_dict"],
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run one set-up, print 'ready' when its warm-up "
                             "op returns, then the op's check, and exit")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import the program's modules from src/."""
    for name in PROGRAM_MODULES:
        importlib.import_module(f"qsatnet.{name}")
    origin = Path(sys.modules["qsatnet"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"qsatnet imported from {origin}, not from {SRC}")


def source_commit() -> str:
    """HEAD of the checkout's git repository, or "" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qsatnet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Bench:
    def __init__(self, args, workloads_mod):
        self.args = args
        self.wl_mod = workloads_mod
        self.work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.workload = workloads_mod.WORKLOADS[args.workload](ROOT,
                                                               self.work_dir)
        self.pinned = {
            index: digest for index, digest in
            workloads_mod.pinned_digests().get(args.workload, {}).items()
            if index == "warmup" or args.seed == workloads_mod.DEFAULT_SEED}
        self.digest_checked = 0
        self.failures: list = []
        self.setup_s: list = []
        self.setup_ok = True

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def op(self, index, tracer=None, ran=None):
        """Run op ``index`` and call ``ran()``, if given, before checking its
        output; returns (seconds, Outcome)."""
        wl = self.workload
        seed = self.wl_mod.DEFAULT_SEED if index == "warmup" else self.args.seed
        inputs = wl.prepare(self.wl_mod.op_seed(seed, index))
        gc.collect()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = wl.run(inputs)
        except Exception:
            rc = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if ran is not None:
            ran()
        if rc is None:
            outcome = self.wl_mod.Outcome(False, reason=f"raised: {error}")
        else:
            try:
                outcome = wl.check(inputs, rc)
            except Exception:
                outcome = self.wl_mod.Outcome(
                    False, reason=f"check raised: {traceback.format_exc(limit=3)}")
        pinned = self.pinned.get(str(index))
        if outcome.ok and pinned is not None:
            self.digest_checked += 1
            if outcome.digest != pinned:
                outcome.ok = False
                outcome.reason = (f"sha256 {outcome.digest[:16]} differs from "
                                  f"the pinned {pinned[:16]}")
        if not outcome.ok:
            self.failures.append(f"op {index}: {outcome.reason}")
        return elapsed, outcome

    def set_up(self, ran=None) -> None:
        """Import the program, build the shared inputs and run the warm-up
        op; ``ran`` is passed on to ``op``."""
        import_program()
        self.workload.setup()
        _, outcome = self.op("warmup", ran=ran)
        self.setup_ok = self.setup_ok and outcome.ok

    def time_setup(self) -> None:
        """Time one set-up in a fresh process, from its start until its
        warm-up op returns."""
        cmd = [sys.executable, __file__, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", "0",
               "--setup-only"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            report = proc.stdout.read().splitlines()
        try:
            ok = ready == "ready\n" and proc.returncode == 0 and \
                json.loads(report[-1])["ok"]
        except (IndexError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            self.setup_ok = False
            self.failures.append(f"set-up process: exit {proc.returncode}, "
                                 f"{ready.strip()!r} {report[-1:]}")
        self.setup_s.append(elapsed)

    def timed_ops(self, traced: bool):
        """Ops until --seconds of wall time pass; untraced, with the set-up
        processes at even steps in between; traced, every op index runs
        twice, plain and then under the layer wrappers."""
        tracer = None
        if traced:
            from tracer import Tracer
            tracer = Tracer()
        plain, wrapped, per_op, outcomes = [], [], [], []
        seconds = self.args.seconds
        start = time.perf_counter()
        index = 0
        while True:
            active = time.perf_counter() - start
            if index and active >= seconds:
                break
            if not traced and len(self.setup_s) < SETUP_REPEATS and \
                    active >= len(self.setup_s) * seconds / SETUP_REPEATS:
                t0 = time.perf_counter()
                self.time_setup()
                start += time.perf_counter() - t0
                continue
            elapsed, outcome = self.op(index)
            plain.append(elapsed)
            outcomes.append(outcome)
            if tracer is not None:
                tracer.reset()
                tracer.record_spans = index == 0
                elapsed, outcome = self.op(index, tracer)
                tracer.record_spans = False
                wrapped.append(elapsed)
                outcomes.append(outcome)
                per_op.append((tracer.snapshot(), outcome))
            index += 1
        while not traced and len(self.setup_s) < SETUP_REPEATS:
            self.time_setup()
        return plain, wrapped, per_op, outcomes, tracer


def layer_metrics(per_op, plain, wrapped, tracer, workload) -> tuple:
    """Per-layer metrics plus the predicted layers that read zero calls."""
    from tracer import ITEM_KEYS, LAYERS

    first, first_outcome = per_op[0]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, *_ in LAYERS:
        if name == "engine.make_stream":
            continue
        put(f"{name}.calls", first[name]["calls"], "count")
        put(f"{name}.self_s",
            statistics.median(snap[name]["self_s"] for snap, _ in per_op), "s")
        if name in ITEM_KEYS and name != "engine.run_until":
            put(f"{name}.{ITEM_KEYS[name]}", first[name]["items"], "count")
    events = first["engine.run_until"]["items"]
    put("engine.events", events, "count")
    put("engine.us_per_event", statistics.median(
        1e6 * snap["engine.run_until"]["incl_s"] / snap["engine.run_until"]["items"]
        for snap, _ in per_op) if events else 0.0, "us")
    extra = first_outcome.extra
    put("proto.survival_ratio", extra.get("survival_ratio", 0.0), "ratio")
    put("proto.trace_records", extra.get("trace_records", 0), "count")
    put("cli.output_bytes", extra.get("output_bytes", 0), "bytes")
    put("trace.overhead_ratio",
        statistics.median(wrapped) / statistics.median(plain), "ratio")

    missing = list(tracer.missing)
    for group in PREDICTED[workload]:
        names = group if isinstance(group, tuple) else (group,)
        if not any(first[n]["calls"] for n in names):
            missing.append("|".join(names))
    return metrics, missing


def environment(args, ops_per_run) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "commit": source_commit(),
            "source_sha256": source_digest(),
            "workload": args.workload,
            "workload_seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops_per_run": ops_per_run}


def use_checkout() -> bool:
    """Put the checkout's src/ and this directory first on sys.path."""
    if not (SRC / "qsatnet" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'qsatnet'} is missing",
              file=sys.stderr)
        return False
    for path in (str(BENCH_DIR), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout():
        return 2
    import workloads as wl_mod
    if args.workload not in wl_mod.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(args, wl_mod)
    try:
        try:
            bench.set_up(ran=(lambda: print("ready", flush=True))
                         if args.setup_only else None)
        except (ImportError, OSError) as exc:
            print(f"cannot set up {args.workload}: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"ok": bench.setup_ok,
                              "failures": bench.failures}))
            return 0
        inprocess_setup_s = time.perf_counter() - PROCESS_T0
        plain, wrapped, per_op, outcomes, tracer = bench.timed_ops(
            bool(args.trace))
    finally:
        bench.close()

    attempted = len(outcomes)
    passed = [o for o in outcomes if o.ok]
    failed = attempted - len(passed)
    env = environment(args, len(plain))
    env.update(digest_checked_ops=bench.digest_checked,
               setup_s_samples=bench.setup_s,
               inprocess_setup_s=inprocess_setup_s,
               op_s=plain, traced_op_s=wrapped)
    record = {"environment": env, "failures": bench.failures[:20]}
    missing = []
    if args.trace:
        metrics, missing = layer_metrics(per_op, plain, wrapped, tracer,
                                         args.workload)
        t_first = tracer.spans[0][3] if tracer.spans else 0.0
        record["spans"] = [(i, p, n, t0 - t_first, t1 - t0)
                           for i, p, n, t0, t1 in tracer.spans]
        first = per_op[0][0]
        coverage = sum(s["self_s"] for s in first.values()) / wrapped[0]
        record.update(missing=missing, self_time_coverage=coverage)
    else:
        timed = sum(plain)
        metrics = {
            "items_per_s": {"value": sum(o.items for o in passed) / timed,
                            "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(bench.setup_s),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "success_ratio": {"value": len(passed) / attempted, "unit": "ratio"},
        }
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    for line in bench.failures[:5]:
        print(f"failed {line}", file=sys.stderr)
    print(json.dumps({"environment": {
        k: env[k] for k in ("nproc", "python", "numpy", "commit",
                            "source_sha256", "workload_seed", "ops_per_run")}}))
    if args.trace:
        print(json.dumps({"missing": missing,
                          "self_time_coverage": record["self_time_coverage"]}))
    print(json.dumps({"correct": bench.setup_ok and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

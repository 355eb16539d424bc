"""Outside-in layer trace: timing wrappers installed on the program's names.

Each wrapper is placed on the name the callers actually look up at call
time: a module attribute (``qsatnet.geom.select_leo``), a method on its class
(``qsatnet.engine:RngStream.random``), or a name a caller imported into its
own namespace (``qsatnet.proto.rci_array``, ``qsatnet.cli.run_scenario``).
Several targets may feed one metric name.

For every wrapped function the tracer keeps calls, self time, inclusive time
and, where an item counter is given, an item count.  Self time is the time
inside a call minus the time inside the wrapped calls it makes.  While
``record_spans`` is set, every non-aggregate call also leaves a span
(id, parent id, name, start, end) in memory; functions called about 1e5
times per op are aggregate-only.
"""

from __future__ import annotations

import importlib
import time
from types import SimpleNamespace

import numpy as np


def _size(result) -> int:
    return int(np.size(result))


def _arg(i):
    return lambda args, result: len(args[i])


# (metric name, targets "module:attr" or "module:Class.method", item key,
#  item counter(args, result), aggregate-only)
LAYERS = [
    ("engine.run_until", ["qsatnet.engine:Engine.run_until"],
     "events", lambda args, result: int(result), False),
    ("engine.schedule", ["qsatnet.engine:Engine.schedule"], None, None, False),
    ("engine.standard_normal", ["qsatnet.engine:RngStream.standard_normal"],
     "values", lambda args, result: _size(result), False),
    ("engine.random", ["qsatnet.engine:RngStream.random"],
     "values", lambda args, result: _size(result), False),
    ("engine.uniforms_at", ["qsatnet.engine:RngStream.uniforms_at"],
     "values", lambda args, result: _size(result), False),
    ("engine.uniform_at", ["qsatnet.engine:RngStream.uniform_at"],
     None, None, True),
    ("engine.derive_key", ["qsatnet.engine:derive_key"], None, None, False),
    # span only: parent of derive_key for the CLI and sweep streams
    ("engine.make_stream", ["qsatnet.cli:make_stream",
                            "qsatnet.rates:make_stream"], None, None, False),
    ("channel.sample_downlink", ["qsatnet.channel:sample_downlink"],
     "samples", lambda args, result: _size(result), False),
    ("channel.sample_uplink", ["qsatnet.channel:sample_uplink"],
     "samples", lambda args, result: 1, True),
    ("channel.uplink_interval_samples",
     ["qsatnet.channel:uplink_interval_samples"],
     "samples", lambda args, result: _size(result), False),
    ("channel.calibrate_uplink_sigma",
     ["qsatnet.channel:calibrate_uplink_sigma"], None, None, False),
    ("channel.db_from_eta", ["qsatnet.channel:db_from_eta"], None, None, True),
    ("channel.diffraction_transmittance",
     ["qsatnet.channel:diffraction_transmittance"], None, None, False),
    ("rates.sweep", ["qsatnet.rates:sweep"], None, None, False),
    ("rates.mean_rate", ["qsatnet.rates:mean_rate"], None, None, False),
    ("rates.rci_array", ["qsatnet.rates:rci_array", "qsatnet.proto:rci_array"],
     "elements", lambda args, result: _size(result), False),
    ("geom.satellite_position", ["qsatnet.geom:satellite_position"],
     None, None, False),
    ("geom.ground_position", ["qsatnet.geom:ground_position"], None, None, False),
    ("geom.link_geometry", ["qsatnet.geom:link_geometry"], None, None, False),
    ("geom.elevation_angle", ["qsatnet.geom:elevation_angle"], None, None, False),
    ("geom.select_leo", ["qsatnet.geom:select_leo"], None, None, False),
    ("proto.deposit_raw", ["qsatnet.proto:EbitPool.deposit_raw"],
     "pairs", _arg(1), False),
    ("proto.replace_raw_with_distilled",
     ["qsatnet.proto:EbitPool.replace_raw_with_distilled"], None, None, False),
    ("proto.fresh_raw", ["qsatnet.proto:EbitPool.fresh_raw"], None, None, False),
    ("proto.consume_distilled", ["qsatnet.proto:EbitPool.consume_distilled"],
     None, None, False),
    ("proto.sample_pair_survival", ["qsatnet.proto:sample_pair_survival"],
     "pairs", lambda args, result: _size(result), False),
    ("packet.encode", ["qsatnet.packet:encode"],
     "bytes", lambda args, result: len(result), False),
    ("packet.decode", ["qsatnet.packet:decode"], "bytes", _arg(0), False),
    ("packet.crc32", ["qsatnet.packet:crc32"], "bytes", _arg(0), False),
    ("packet.packet_from_dict", ["qsatnet.packet:packet_from_dict"],
     None, None, False),
    ("packet.packet_to_dict", ["qsatnet.packet:packet_to_dict"],
     None, None, False),
    ("scenario.load_scenario", ["qsatnet.cli:load_scenario"], None, None, False),
    ("scenario.run_scenario", ["qsatnet.cli:run_scenario"], None, None, False),
    ("cli.main", ["qsatnet.cli:main"], None, None, False),
    # trace serialization: cli's _jsonl looks up json.dumps through cli's
    # own ``json`` global, which is swapped for a proxy while tracing
    ("cli.json_dumps", ["qsatnet.cli:json.dumps"], None, None, False),
]

ITEM_KEYS = {name: key for name, _, key, _, _ in LAYERS if key}


def _resolve(target: str):
    """(owner object, attribute name) for a "module:attr.path" target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Per-function aggregates over the ops run while installed."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name, *_ in LAYERS}
        self.spans: list = []
        self.record_spans = False
        self.missing: list = []
        self._stack: list = []     # [child time, span id] per open call
        self._next_id = 0
        self._saved: list = []

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]

    def snapshot(self) -> dict:
        """calls, self_s, incl_s and items per function since the last reset."""
        return {name: {"calls": st[0], "self_s": st[1], "incl_s": st[2],
                       "items": st[3]} for name, st in self.stats.items()}

    def _wrap(self, name, fn, count, aggregate):
        stack = self._stack
        st = self.stats[name]
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            if tracer.record_spans and not aggregate:
                frame[1] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur - frame[0]
                st[2] += dur
                if stack:
                    stack[-1][0] += dur
                if frame[1] >= 0:
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    tracer.spans.append((frame[1], parent, name, t0, t1))
            if count is not None:
                st[3] += count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target whose name no longer exists is
        recorded in ``missing`` instead of failing the run."""
        self.missing = []
        for name, targets, _, count, aggregate in LAYERS:
            for target in targets:
                if target == "qsatnet.cli:json.dumps":
                    self._install_json_proxy(name, count, aggregate)
                    continue
                try:
                    owner, attr = _resolve(target)
                    original = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count, aggregate))

    def _install_json_proxy(self, name, count, aggregate) -> None:
        cli = importlib.import_module("qsatnet.cli")
        real = getattr(cli, "json", None)
        if real is None:
            self.missing.append("qsatnet.cli:json.dumps")
            return
        proxy = SimpleNamespace(**{k: getattr(real, k) for k in dir(real)
                                   if not k.startswith("__")})
        proxy.dumps = self._wrap(name, real.dumps, count, aggregate)
        self._saved.append((cli, "json", real))
        cli.json = proxy

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

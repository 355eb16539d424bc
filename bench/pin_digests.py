"""Pin the sha256 of every op's output at the default workload seed.

Run from the repository root, at a commit whose outputs are known good:

    python3 bench/pin_digests.py [--workload NAME ...]

Pins the warm-up op and ops 0 .. PINNED_OPS-1 of ``workloads.py``.  Each op
must first pass its workload's invariant checks.  The digests go to
``bench/digests.json``, keyed by workload and op index ("warmup", "0", ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    if not run.use_checkout():
        return 2
    import workloads as wl_mod
    pinned = wl_mod.pinned_digests()
    for name in args.workload or list(wl_mod.WORKLOADS):
        bench = run.Bench(argparse.Namespace(workload=name,
                                             seed=wl_mod.DEFAULT_SEED), wl_mod)
        bench.pinned = {}
        bench.set_up()
        digests = {}
        try:
            for index in ["warmup", *range(wl_mod.PINNED_OPS)]:
                _, outcome = bench.op(index)
                if not outcome.ok:
                    print(f"{name} op {index}: {outcome.reason}",
                          file=sys.stderr)
                    return 1
                digests[str(index)] = outcome.digest
        finally:
            bench.close()
        pinned[name] = digests
        print(f"{name}: pinned {len(digests)} digests", file=sys.stderr)
    wl_mod.DIGESTS_PATH.write_text(json.dumps(pinned, indent=1,
                                              sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

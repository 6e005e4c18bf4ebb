"""Regenerate ``digests.json``: run every op of every input variant once
and pin its output digest.  Run from the repository root after a change
that is meant to alter simulated outputs::

    python3 simbench/pin_digests.py [workload ...]

An op that fails a check is not pinned; the script stops instead.  Ops
seen under several seeds (zoo_exec and codesign_search run fixed ops in
a seed-dependent order) must produce the same digest every time.
"""

from __future__ import annotations

import json
import sys

from run import PINS_PATH, run_op
from workloads import VARIANTS, WORKLOADS


def pin(names) -> dict:
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        table: dict = {}
        for seed in range(VARIANTS):
            for op in workload.ops(workload.setup(seed)):
                result = run_op(op, table.get(op.key), None)
                if result.problems:
                    raise SystemExit(f"{name} {op.key}: {'; '.join(result.problems)}")
                table[op.key] = result.digest
            print(f"{name} seed {seed}: {len(table)} ops pinned", flush=True)
        pins[name] = dict(sorted(table.items()))
    return pins


if __name__ == "__main__":
    pins = pin(sys.argv[1:] or list(WORKLOADS))
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

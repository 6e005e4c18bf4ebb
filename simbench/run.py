"""Host-time benchmark of the repro performance model.

Measures how fast the simulator runs on this host (host time), not the
modelled chip's time: simulated outputs are deterministic, so they are
checked for identity against digests pinned in ``digests.json`` and
never scored.  The repository holds no hardware reference results, so
the model itself is unvalidated and no accuracy figure is given.

End-to-end times are CPU seconds of this single-threaded process: on a
small shared host, wall time also counts the time the process waited for
a CPU held by another tenant (one zoo_exec pass on a 2-core x86 host:
4.04 s wall for 3.15 s CPU).  Wall times are kept in the result file.

Usage, from the repository root::

    python3 simbench/run.py --workload zoo_exec --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes, then traced passes with every layer entry point wrapped, and
prints the per-layer metrics and the layer ledger.  The last stdout
line is one JSON object ``{correct, attempted, failed, metrics}``; a
fuller result with a run manifest goes to ``simbench/results/``.

Workloads run single-threaded in one process, with BLAS threads pinned
to 1 before numpy loads.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

PINS_PATH = HERE / "digests.json"
RESULTS_DIR = HERE / "results"
SETUP_SAMPLES = 5  # this process plus four fresh ones

# (name, unit) of every end-to-end metric, in report order.
END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("items_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


@dataclasses.dataclass
class OpResult:
    key: str
    wall_s: float
    cpu_s: float
    items: int
    digest: Optional[str]
    problems: List[str]


@dataclasses.dataclass
class PassResult:
    ops: List[OpResult]

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def items(self) -> int:
        return sum(op.items for op in self.ops)


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def run_op(op, pinned: Optional[str], reference: Optional[str]) -> OpResult:
    """Run one op; any exception or check failure becomes a counted problem."""
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        result = op.call()
        wall = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        check = op.check(result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return OpResult(
            op.key, time.perf_counter() - start, time.process_time() - start_cpu,
            0, None, ["raised"],
        )
    problems = list(check.problems)
    value = digest(check.outputs)
    if pinned is not None and value != pinned:
        problems.append("output differs from the pinned digest")
    if reference is not None and value != reference:
        problems.append("output differs from this run's first pass")
    return OpResult(op.key, wall, cpu, check.items, value, problems)


def run_pass(workload, state, pins: Dict[str, str], reference: Dict[str, str]) -> PassResult:
    gc.collect()  # no pass pays for collecting the previous pass's garbage
    return PassResult([
        run_op(op, pins.get(op.key), reference.get(op.key))
        for op in workload.ops(state)
    ])


def measure(workload, state, seconds: float, pins, reference) -> List[PassResult]:
    """Whole passes until another one would overrun ``seconds`` (at least
    one).  ``reference`` collects the first digest of every op key."""
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        result = run_pass(workload, state, pins, reference)
        for op in result.ops:
            if op.digest is not None:
                reference.setdefault(op.key, op.digest)
        passes.append(result)
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up CPU time of a fresh interpreter, imports included."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the model's sources: identifies the code without git."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def manifest(args) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": BLAS_THREADS,
    }


def tally(passes: List[PassResult]):
    ops = [op for p in passes for op in p.ops]
    failures = [
        {"key": op.key, "problems": op.problems} for op in ops if op.problems
    ]
    return len(ops), failures


def end_to_end(passes: List[PassResult], setup_samples: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "pass_cpu_s": statistics.median(p.cpu_s for p in passes),
        "items_per_cpu_s": sum(p.items for p in passes) / sum(p.cpu_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, state, seconds: float, pins):
    """Untraced passes, then traced ones checked against them."""
    from layers import LayerProbe, ledger_table
    from spans import Tracer

    reference: Dict[str, str] = {}
    untraced = measure(workload, state, seconds / 2, pins, reference)
    probe = LayerProbe(Tracer())
    try:
        probe.install()
        passes = measure(workload, state, seconds / 2, pins, reference)
    finally:
        probe.remove()
    metrics = probe.metrics(
        len(passes),
        sum(p.wall_s for p in passes),
        statistics.median(p.wall_s for p in untraced),
    )
    print(ledger_table(workload.name, metrics))
    return untraced + passes, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = time.process_time()
    if args.setup_only:
        print(repr(setup_s))
        return 0
    pins = json.loads(PINS_PATH.read_text()).get(workload.name, {})

    setup_samples = [setup_s]
    if args.trace:
        from layers import PER_LAYER_METRICS

        passes, values = traced(workload, state, args.seconds, pins)
        units = PER_LAYER_METRICS
    else:
        setup_samples += [
            child_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        passes = measure(workload, state, args.seconds, pins, {})
        values = end_to_end(passes, setup_samples)
        units = END_TO_END_METRICS
    attempted, failures = tally(passes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "manifest": manifest(args),
        "metrics": metrics,
        "work_item": workload.item,
        "setup_samples_s": setup_samples,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [p.cpu_s for p in passes],
        "pass_items": [p.items for p in passes],
        "failures": failures,
    }, indent=1) + "\n")
    for failure in failures:
        print(f"FAILED {failure['key']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

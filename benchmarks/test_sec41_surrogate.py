"""Learned performance surrogates with exact verification (section 4.1).

The verified-surrogate counterpart of the ANN tuning benchmark: a
pure-numpy regressor stack trained on seeded exact cost-model traces
ranks the full kernel-variant catalog per shape, the exact model
re-measures only the predicted top-k, and the deployed variant is
always exact-evaluated.  The benchmark pins the three claims that make
the pattern trustworthy:

* accuracy — holdout MAPE of the learned predictor (golden-pinned);
* soundness — the verified top-k search recovers the exhaustive argmin
  kernel time on every section 4.1 query shape;
* speed — one surrogate sweep point costs >=100x less wall time than
  one exact cost-model evaluation (asserted here; the measured ratio
  goes to the text artifact, not the scalar JSON, because wall time is
  machine-dependent).
"""

import time

from conftest import once

from repro.arch import mtia2i_spec
from repro.autotune import exhaustive_tune, measure_variant, surrogate_tune
from repro.kernels.gemm import default_variants
from repro.obs.metrics import MetricsRegistry
from repro.surrogate import train_gemm_surrogate
from repro.tensors.tensor import GemmShape

N_SAMPLES = 6000
SEED = 0
TOP_K = 16

# The section 4.1 tuning query shapes (matching test_sec41_autotune's
# sweep): mid/large ranking FCs, a TBE-adjacent skinny GEMM, a small
# shape, and a large square-ish one.
QUERY_SHAPES = (
    (700, 1700, 800),
    (3000, 600, 2000),
    (512, 26592, 2048),
    (150, 300, 150),
    (4096, 2048, 1024),
)


def _run():
    chip = mtia2i_spec()
    surrogate, reports = train_gemm_surrogate(
        chip, n_samples=N_SAMPLES, seed=SEED
    )
    variants = default_variants()
    registry = MetricsRegistry()

    matches = 0
    rows = []
    for mkn in QUERY_SHAPES:
        shape = GemmShape(*mkn)
        gold = exhaustive_tune(shape, chip, variants=variants)
        verified = surrogate_tune(
            shape, chip, surrogate, variants=variants, top_k=TOP_K,
            registry=registry,
        )
        match = abs(verified.kernel_time_s - gold.kernel_time_s) <= (
            1e-12 * gold.kernel_time_s
        )
        matches += match
        rows.append((mkn, gold, verified, match))

    # Wall-clock per point: exact cost model vs one factorized sweep.
    shapes = [GemmShape(*mkn) for mkn in QUERY_SHAPES]
    started = time.perf_counter()
    for shape in shapes:
        for variant in variants:
            measure_variant(shape, variant, chip)
    exact_s = time.perf_counter() - started
    mkns = [(s.m, s.k, s.n) for s in shapes]
    surrogate.predict_time_grid(mkns, variants)  # warm the variant cache
    fast_s = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        surrogate.predict_time_grid(mkns, variants)
        fast_s = min(fast_s, time.perf_counter() - started)
    points = len(shapes) * len(variants)
    return surrogate, reports, registry, rows, matches, exact_s, fast_s, points


def test_sec41_surrogate(benchmark, record, record_json):
    (surrogate, reports, registry, rows, matches, exact_s, fast_s,
     points) = once(benchmark, _run)

    latency = reports["latency"]
    speedup = exact_s / fast_s
    counters = registry.snapshot()["counters"]

    lines = [
        f"GEMM surrogate: {N_SAMPLES} seeded exact traces, "
        f"{latency.n_train} train / {latency.n_holdout} holdout",
        f"{'target':>8}  {'MAPE':>7}  {'P95 rel':>8}  {'max rel':>8}",
        f"{'latency':>8}  {latency.mape_holdout:7.2%}  "
        f"{latency.p95_rel_error_holdout:8.2%}  "
        f"{latency.max_rel_error_holdout:8.2%}",
    ]
    lines.append("")
    lines.append(f"verified tuning, top-{TOP_K} of {points // len(rows)} "
                 f"variants exact-measured:")
    for mkn, gold, verified, match in rows:
        lines.append(
            f"  {str(mkn):>20}  exact {gold.kernel_time_s * 1e6:8.2f} us  "
            f"verified {verified.kernel_time_s * 1e6:8.2f} us  "
            f"{'match' if match else 'MISS'}"
        )
    lines.append("")
    lines.append(
        f"per-point wall cost over the {points}-point sweep: exact "
        f"{exact_s / points * 1e6:.2f} us, surrogate "
        f"{fast_s / points * 1e9:.1f} ns ({speedup:.0f}x)"
    )

    # Accuracy: the issue's <=10% holdout MAPE bar, with wide margin.
    assert latency.mape_holdout <= 0.10
    assert latency.p95_rel_error_holdout <= 0.10
    # Soundness: every query shape recovers the exhaustive argmin time,
    # and every deployed time came from the exact model (top-k evals).
    assert matches == len(QUERY_SHAPES)
    for _, _, verified, _ in rows:
        assert verified.evaluations == TOP_K
    assert counters["surrogate.kernel.exact_evals"] == TOP_K * len(rows)
    # Speed: >=100x cheaper per evaluation than the exact kernel model.
    assert speedup >= 100.0, f"surrogate sweep only {speedup:.0f}x faster"

    record("sec41_surrogate", "\n".join(lines))
    # Deterministic scalars only — the wall-clock ratio stays in the
    # text artifact and the assertion above.
    record_json("sec41_surrogate", {
        "holdout_mape_latency": latency.mape_holdout,
        "p95_rel_error_latency": latency.p95_rel_error_holdout,
        "verified_argmin_match": matches / len(QUERY_SHAPES),
        "eval_reduction": points / len(rows) / TOP_K,
        "train_rows": float(latency.n_train + latency.n_holdout),
    })

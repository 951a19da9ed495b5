"""nerchain benchmark: seeded closed-loop workloads through the library and CLI.

    python3 bench/run.py --workload train-crf --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports nerchain from ./src. The
benchmark sets up several times and reports the median set-up time, runs
one untimed warm-up operation, then repeats timed operations for --seconds
(longer if an untraced run has fewer than MIN_LATENCY_SAMPLES single-sentence
latencies), checking every operation's outputs. Times but the latency tail
are reported at a reference machine speed (see timing.py); the raw figures
are printed too.

With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric. With --trace 1 operations alternate between traced and
untraced; the JSON holds the per-layer metrics of the traced operations,
per operation, and the tracing overhead is the traced figures minus the
untraced ones. Every run writes
.bench_out/BENCH_<workload>_seed<n>_trace<t>.json with the environment, all
figures and any failures; a traced run also writes its spans beside it.
"""

import os

# Load comes from this one process; one BLAS thread keeps the small matrix
# products here steady and leaves the second core to the rest of the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import nerchain
except ImportError as exc:
    sys.exit(f"bench: cannot import nerchain from {SRC}: {exc}")
if not os.path.abspath(nerchain.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: nerchain was imported from {nerchain.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

from timing import OpResult, calibrated, now  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_LATENCY_SAMPLES = 1000  # so that at least 10 samples lie beyond p99
MAX_RUN_FACTOR = 3  # stop after this many times --seconds even if short of samples


def _median_rate(results, name, raw):
    rates = []
    for r in results:
        if name in r.timings:
            seconds, units = r.timings[name]
            rates.append(units / (seconds * (1.0 if raw else r.scale)))
    return statistics.median(rates) if rates else 0.0


def _percentile_ms(samples, q):
    if len(samples) < 2:
        return 0.0
    return statistics.quantiles(samples, n=100)[q - 1] * 1000.0


def _tail_ms(samples, q):
    """Median over consecutive blocks of at least MIN_LATENCY_SAMPLES samples of
    each block's q-th percentile, so that a burst of interference on the shared
    machine moves one block rather than the result."""
    blocks = max(1, len(samples) // MIN_LATENCY_SAMPLES)
    size = len(samples) // blocks
    return statistics.median(_percentile_ms(samples[i * size:(i + 1) * size], q)
                             for i in range(blocks))


def end_to_end(results, setups, raw=False):
    """setups: (seconds, scale, train timing or None) per set-up."""
    latencies = [s * (1.0 if raw else r.scale) for r in results for s in r.latencies]
    # The tail is taken unscaled: scaling by calibrate() made it move more from
    # run to run (18% against 6% over five train-bilstm runs on a shared
    # 2-vCPU Xeon), as the slowest calls do not track calibrate().
    raw_latencies = [s for r in results for s in r.latencies]
    trained = [timing for _, _, timing in setups if timing]
    if trained:  # the tag workload trains its models during set-up
        train_rate = statistics.median(units / (raw_s if raw else scaled_s)
                                       for raw_s, scaled_s, units in trained)
    else:
        train_rate = _median_rate(results, "train", raw)
    f1s = [r.dev_f1 for r in results if r.dev_f1 == r.dev_f1]
    return {
        "train_sent_per_s": (train_rate, "sent/s"),
        "dev_f1": (statistics.median(f1s) if f1s else 0.0, "f1"),
        "tag_tok_per_s": (_median_rate(results, "tag", raw), "tok/s"),
        "score_tok_per_s": (_median_rate(results, "score", raw), "tok/s"),
        "tag_latency_ms_p50": (_percentile_ms(latencies, 50), "ms"),
        "tag_latency_ms_p99": (_tail_ms(raw_latencies, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(secs * (1.0 if raw else scale)
                                      for secs, scale, _ in setups), "s"),
    }


def per_layer(tracer, traced, plain):
    n = len(traced)
    busy, own, calls, top = tracer.totals({r.index: r.scale for r in traced})
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (busy[name] / n, "s")
        out[f"{name}_self_s"] = (own[name] / n, "s")
        out[f"{name}_calls"] = (calls[name] / n, "count")
    counters = tracer.counters
    out["conll_io.bytes_read"] = (counters["conll_io.bytes_read"] / n, "bytes")
    out["training.checkpoint_bytes"] = (counters["training.checkpoint_bytes"] / n, "bytes")
    clips = calls["training.clip_global_norm"]
    out["training.clip_rate"] = (counters["training.clipped_steps"] / clips if clips else 0.0,
                                 "ratio")
    # share of the timed work that top-level layer spans account for
    out["trace.coverage_pct"] = (100.0 * top / sum(r.busy * r.scale for r in traced), "%")
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(r.busy * r.scale for r in traced)
                 / statistics.median(r.busy * r.scale for r in plain) - 1.0), "%")
    return out


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _untraced(_name):
    return contextlib.nullcontext()


def measure(workload, seed, seconds, trace, tracer, workdir):
    """Set up, warm up, then run operations; returns (setups, warm-up, untraced, traced)."""
    setups = []
    for _ in range(workload.setup_reps):
        ctx, setup_seconds, scale = calibrated(workload.setup, seed, workdir)
        setups.append((setup_seconds, scale, ctx.train_timing))
    workload.prepare(ctx)

    plain, traced = [], []
    index = 0
    while True:
        is_traced = bool(trace) and index % 2 == 1
        result = OpResult(index)
        try:
            with tracer.tracing(index) if is_traced else contextlib.nullcontext():
                workload.op(ctx, result, tracer.span if is_traced else _untraced)
        except Exception as exc:  # an operation that raises counts as failed
            result.failures.append(f"{type(exc).__name__}: {exc}")
        try:
            workload.check(ctx, result)
        except Exception as exc:  # so does one whose outputs cannot be checked
            result.failures.append(f"check: {type(exc).__name__}: {exc}")
        result.outputs.clear()  # so memory does not grow with the number of operations
        if index == 0:  # warm-up: checked and counted, not timed
            warmup = result
            start = now()
        else:
            (traced if is_traced else plain).append(result)
        index += 1
        elapsed = now() - start
        if elapsed > MAX_RUN_FACTOR * seconds:
            break
        samples = sum(len(r.latencies) for r in plain)
        if (elapsed >= seconds and len(plain) >= 2 and len(traced) >= 2 * trace
                and (trace or samples >= MIN_LATENCY_SAMPLES)):
            break
    return setups, warmup, plain, traced


def run(name, seed, seconds, trace):
    tracer = Tracer()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        setups, warmup, plain, traced = measure(WORKLOADS[name], seed, seconds, trace,
                                                tracer, workdir)
    everything = [warmup] + plain + traced
    attempted = sum(r.attempted for r in everything)
    failures = [f for r in everything for f in r.failures]
    failed = min(len(failures), attempted)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "operations": {"untraced": len(plain), "traced": len(traced)},
        "latency_samples": sum(len(r.latencies) for r in plain),
        "attempted": attempted, "failed": failed, "error_rate": failed / max(attempted, 1),
        "failures": failures[:50],
        "end_to_end": end_to_end(plain, setups),
        "raw_end_to_end": end_to_end(plain, setups, raw=True),
        "setup_scales": [scale for _, scale, _ in setups],
        "untraced_operations": [{"scale": r.scale, "timings": r.timings,
                                 "latencies_s": r.latencies} for r in plain],
    }
    result_metrics = report["end_to_end"]
    if trace:
        traced_e2e = end_to_end(traced, setups)
        report["traced_end_to_end"] = traced_e2e
        report["tracing_overhead"] = {
            k: traced_e2e[k][0] - report["end_to_end"][k][0] for k in traced_e2e}
        report["per_layer"] = result_metrics = per_layer(tracer, traced, plain)
        tracer.write(os.path.join(OUT_DIR, f"BENCH_{name}_seed{seed}.spans.jsonl"))
    with open(os.path.join(OUT_DIR, f"BENCH_{name}_seed{seed}_trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return report, result_metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report, result_metrics = run(args.workload, args.seed, args.seconds, args.trace)
    print("environment: " + " ".join(f"{k}={v}" for k, v in report["environment"].items()))
    print(f"operations: {report['operations']}  latency samples: {report['latency_samples']}")
    print(f"attempted: {report['attempted']}  failed: {report['failed']}"
          f"  error_rate: {report['error_rate']:.6g}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    for title, key in (("end-to-end (reference speed)", "end_to_end"),
                       ("end-to-end (raw)", "raw_end_to_end"),
                       ("traced end-to-end (reference speed)", "traced_end_to_end"),
                       ("tracing overhead (traced minus untraced)", "tracing_overhead"),
                       ("per-layer (per traced operation)", "per_layer")):
        if key in report:
            print(f"{title}:")
            for metric, value in report[key].items():
                value, unit = value if isinstance(value, tuple) else (value, "")
                print(f"  {metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

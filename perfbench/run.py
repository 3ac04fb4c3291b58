"""Benchmark of the attnsum summarizer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the package from
`src/` there and refuses to run without it. Inputs are generated from the
seed and written to files; set-up reads them back as the command line does.
With --trace 0 it runs one untimed warm-up round, then the timed loop for S
seconds, repeats the set-up between the loop's rounds, checks every output
and reports the end-to-end metrics. With --trace 1 it runs each operation
of the loop twice, untraced and then with spans around the calls into each
module, for S seconds in all, and reports each layer's share of the traced
time and the tracing overhead. Tables go to standard output; the last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-copy", "decode-abs-5k", "decode-ext-20k", "tune-ext")
# set-ups repeat between the loop's rounds, taking SETUP_SHARE of the time
# the loop has run so far, and at least SETUP_MIN_REPS times in a run
SETUP_SHARE = 0.03
SETUP_MIN_REPS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

# per-layer shares of the traced time: (metric, span, "self" or "total")
SHARES = (
    ("decoding.beam_search.self_pct", "decoding.beam_search", "self"),
    ("model.step_scores.self_pct", "model.step_scores", "self"),
    ("numerics.log_softmax_rows.pct", "numerics.log_softmax_rows", "total"),
    ("numerics.softmax_rows.pct", "numerics.softmax_rows", "total"),
    ("model.scorer_init.pct", "model.scorer_init", "total"),
    ("decoding.finalize.pct", "decoding.finalize", "total"),
    ("corpus.preprocess.pct", "corpus.preprocess", "total"),
    ("corpus.encode.pct", "corpus.encode", "total"),
    ("model.forward.self_pct", "model.forward", "self"),
    ("model.backward.self_pct", "model.backward", "self"),
    ("model.make_batch.pct", "model.make_batch", "total"),
    ("training.train.self_pct", "training.train", "self"),
    ("training.nll.pct", "training.nll", "total"),
    ("training.renormalize.pct", "training.renormalize", "total"),
    ("tuning.mert.self_pct", "tuning.mert", "self"),
    ("tuning.dev_score.self_pct", "tuning.dev_score", "self"),
    ("tuning.tuned_scorer.self_pct", "tuning.tuned_scorer", "self"),
    ("tuning.sequence_features.pct", "tuning.sequence_features", "total"),
    ("rouge.instance_score.pct", "rouge.instance_score", "total"),
)
# per-layer counts per operation: (metric, span whose calls are counted)
CALLS = (
    ("model.step_scores.calls", "model.step_scores"),
    ("model.forward.calls", "model.forward"),
    ("training.batches", "model.backward"),
    ("tuning.sequence_features.calls", "tuning.sequence_features"),
    ("rouge.instance_score.calls", "rouge.instance_score"),
    ("tuning.decodes", "decoding.beam_search"),
)
# per-layer counters per operation: (metric, counter, unit, scale)
COUNTERS = (
    ("model.step_scores.rows", "model.step_scores.rows", "count/op", 1),
    ("model.step_scores.mflop_computed", "model.step_scores.flop",
     "Mflop/op", 1e-6),
    ("model.step_scores.mb_computed", "model.step_scores.bytes", "MB/op",
     1e-6),
    ("decoding.candidates_ranked", "decoding.candidates_ranked", "count/op",
     1),
    ("decoding.survivors", "decoding.survivors", "count/op", 1),
    ("training.tokens", "training.tokens", "count/op", 1),
)


def environment():
    """What the numbers depend on besides the code."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k, "")) for k in ("name", "version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it. Below 2 * TAIL_BEYOND samples that
    percentile would not exceed the median, so the maximum is reported with
    the count of samples beyond it, 0."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * (idx + 1) / n, TAIL_BEYOND


def p90(values):
    """The 90th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def op_indices(wl, seconds):
    """0, 1, 2, ... until `seconds` have passed; always whole rounds, and at
    least one."""
    start = perf_counter()
    i = 0
    while i == 0 or i % wl.round_len or perf_counter() - start < seconds:
        yield i
        i += 1


def timed_op(wl, state, i, tracer):
    """(seconds, result) of operation i. An operation that raises returns
    its exception as the result, and check() counts it as failed."""
    t0 = perf_counter()
    try:
        out = wl.op(state, i, tracer)
    except Exception as exc:  # the loop goes on; the failure is reported
        traceback.print_exc(file=sys.stderr)
        out = exc
    return perf_counter() - t0, out


def rounds(wl, times):
    return [sum(times[i:i + wl.round_len])
            for i in range(0, len(times), wl.round_len)]


def set_up(wl, files, setup_s):
    """One set-up from the prepared files, timed into setup_s."""
    t0 = perf_counter()
    state = wl.setup(files)
    setup_s.append(perf_counter() - t0)
    return state


def measure(wl, seed, seconds, workdir):
    from spans import NullTracer

    files = wl.prepare(seed, workdir)
    setup_s = []
    state = set_up(wl, files, setup_s)
    for i in range(wl.round_len):  # warm-up round, neither timed nor checked
        timed_op(wl, state, i, NullTracer())
    times, results = [], []
    for i in op_indices(wl, seconds):
        t, out = timed_op(wl, state, i, NullTracer())
        times.append(t)
        results.append(out)
        # further set-ups, whose states are dropped at once, spread the
        # set-up samples over the same stretch of the run as the loop's
        while (i + 1) % wl.round_len == 0 \
                and sum(setup_s) < SETUP_SHARE * sum(times):
            set_up(wl, files, setup_s)
    while len(setup_s) < SETUP_MIN_REPS:
        set_up(wl, files, setup_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = wl.check(state, results)
    per_round = rounds(wl, times)
    tail_ms, tail_pct, beyond = tail(per_round)
    done = sum(not isinstance(r, Exception) for r in results)
    named = {
        "items_per_s": (done * wl.items(state) / sum(times), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(per_round), "ms"),
        "op_ms_p90": (1e3 * p90(per_round), "ms"),
        "op_ms_tail": (1e3 * tail_ms, "ms"),
    }
    named.update(wl.summary(state, results, named))
    # The gated metrics. A shared host's speed swings by up to 2x for
    # seconds at a time, between a common busy state and shorter faster
    # spells. The mean and the median of a run follow how much of it the
    # faster spells covered; the 90th percentile of a round's time sits in
    # the busy state in nearly every run.
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_ms_p90": named["op_ms_p90"],
    }
    named.update(metrics)
    lines = [f"{wl.name}: {len(results)} operations in {len(per_round)} "
             f"rounds, {sum(times):.3f} s timed; {len(setup_s)} set-ups, "
             f"{min(setup_s):.4f} to {max(setup_s):.4f} s",
             f"op_ms_tail is p{tail_pct:.1f} of {len(per_round)} rounds, "
             f"{beyond} beyond it"]
    lines += [f"  {k:<28} {v:>18.10g} {u}" for k, (v, u) in named.items()]
    lines += _digest_lines(wl, results)
    return metrics, len(results), failures, lines


def measure_traced(wl, seed, seconds, workdir, spans_path):
    from spans import NullTracer, Tracer, aggregate

    state = wl.setup(wl.prepare(seed, workdir))
    tracer = Tracer()
    plain_times, plain, traced_times, results = [], [], [], []
    # each operation runs untraced, then traced, so that a change in the
    # machine's speed during the run affects both sides alike
    for i in op_indices(wl, seconds):
        t, out = timed_op(wl, state, i, NullTracer())
        plain_times.append(t)
        plain.append(out)
        with tracer.installed():
            t, out = timed_op(wl, state, i, tracer)
        traced_times.append(t)
        results.append(out)
    failures = wl.check(state, results)
    if wl.digests(plain) != wl.digests(results):
        failures.append("traced outputs differ from untraced ones")
    tracer.write(spans_path)

    wall = sum(traced_times)
    n = len(traced_times)
    table = aggregate(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for metric, span, which in SHARES:
        metrics[metric] = (100.0 * table.get(span, {}).get(which, 0.0) / wall,
                           "%")
    for metric, span in CALLS:
        metrics[metric] = (table.get(span, {}).get("calls", 0) / n,
                           "count/op")
    for metric, key, unit, scale in COUNTERS:
        metrics[metric] = (counts[key] * scale / n, unit)
    ranked = counts["decoding.candidates_ranked"]
    metrics["decoding.kept_ratio"] = (
        counts["decoding.survivors"] / ranked if ranked else 0.0, "ratio")
    # the median ratio keeps one disturbed operation from setting it
    metrics["trace_overhead_pct"] = (100.0 * (statistics.median(
        b / a for a, b in zip(plain_times, traced_times)) - 1.0), "%")

    lines = [f"{wl.name} traced: {n} operations, {wall:.3f} s traced vs "
             f"{sum(plain_times):.3f} s untraced, trace_overhead_pct "
             f"{metrics['trace_overhead_pct'][0]:.2f}"]
    labels = sorted(set(tracer.ops), key=tracer.ops.index)
    for label in labels if len(labels) > 1 else [None]:
        lines += _layer_table(aggregate(tracer.spans, tracer.ops, label),
                              label or wl.name)
    lines += [f"  {k:<36} {v:>14.6g} {u}" for k, (v, u) in metrics.items()]
    lines += _digest_lines(wl, results)
    return metrics, n, failures, lines


def _layer_table(table, label):
    wall = sum(row["self"] for row in table.values())
    out = [f"  per layer, {label} (self and total seconds, share of span "
           "time by self seconds):",
           f"    {'span':<28} {'calls':>8} {'self_s':>10} {'total_s':>10}"
           f" {'self%':>7}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
        out.append(f"    {name:<28} {row['calls']:>8} {row['self']:>10.4f} "
                   f"{row['total']:>10.4f} {100 * row['self'] / wall:>7.2f}")
    return out


def _digest_lines(wl, results):
    return [f"  digest {k} {v}" for k, v in wl.digests(results).items()]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "attnsum", "__init__.py")):
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.make(args.workload)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {wl.name}: {wl.why}")
    print("shape " + json.dumps(wl.shape, sort_keys=True))
    out = os.path.join(HERE, "out")
    workdir = os.path.join(out, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            spans_path = os.path.join(
                out, f"spans-{wl.name}-{args.seed}.jsonl")
            metrics, attempted, failures, lines = measure_traced(
                wl, args.seed, args.seconds, workdir, spans_path)
            lines.append(f"spans written to {os.path.relpath(spans_path)}")
        else:
            metrics, attempted, failures, lines = measure(
                wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"attempted {attempted} failed {len(failures)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The cellformer benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run generates its inputs from the seed
(`gen.py`, a child process), sets the workload up several times, measures
operations for S seconds in one closed loop with one caller, checks every
output, and prints one line per metric followed by a JSON summary as the
last line. `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced rounds and reports per-layer metrics and the
tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer, self_time_by_op

# Fixed here, never inherited: the BLAS thread cap (at most nproc; one thread
# is as fast as two at these matrix sizes and is steadier on a shared host).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("pretrain", "tag_batch", "qa_online")  # workloads.WORKLOADS imports numpy

# Workload-specific names of the printed throughput and latency lines.
NAMES = {
    "pretrain": ("train_tokens_per_s", "tokens/s", "train_step_ms"),
    "tag_batch": ("tag_docs_per_s", "docs/s", "tag_batch_ms"),
    "qa_online": ("qa_requests_per_s", "requests/s", "qa_ms"),
}

# Per-layer self times, in ms per operation, by span name.
LAYER_SPANS = {
    "autograd.backward": "autograd.backward_ms",
    "model.encode": "model.encode_ms",
    "model.heads": "model.heads_ms",
    "pretrain.loss": "pretrain.loss_ms",
    "pretrain.corrupt": "pretrain.corrupt_ms",
    "optim.adam": "optim.adam_ms",
    "trainer.step": "trainer.self_ms",
    "documents.encode": "documents.encode_ms",
    "tasks.decode": "tasks.decode_ms",
    "tasks.windows": "tasks.windows_ms",
    "metrics.extract_span": "metrics.extract_span_ms",
    "metrics.anls": "metrics.anls_ms",
    "bench.op": "bench.self_ms",
}
# Set-up time by the set-up's direct child spans, in ms, median over set-ups.
SETUP_SPANS = {
    "dataio.read": "setup.dataio.read_ms",
    "documents.encode": "setup.documents.encode_ms",
    "checkpoint.load": "setup.checkpoint.load_ms",
    "model.init": "setup.model.init_ms",
    "setup.warmup": "setup.warmup_ms",
    "setup": "setup.self_ms",
}


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def install(tracer, patches) -> None:
    for owner, attr, name, count in patches:
        tracer.patch(owner, attr, name, count)


def timed_setup(wl, inputs: Path, tracer, k: int) -> float:
    if tracer is not None:
        tracer.op = f"setup-{k}"
        root = tracer.open("setup")
    t0 = time.perf_counter()
    wl.setup(inputs, tracer)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.op = None
    return seconds


def measure(wl, inputs: Path, seconds: float, tracer):
    """Rounds of operations until `seconds` of them are measured, with the
    SETUP_REPEATS set-ups spread evenly between rounds, so that set-up and
    operations sample the same stretch of a shared host's load. The first
    set-up is followed by one untimed warm-up round, whose outputs are still
    checked: a fresh process runs its first seconds slower while the
    allocator's heap settles, which a long-running caller pays once. A traced
    run alternates untraced and traced rounds."""

    def traced_layers(on: bool) -> None:
        if tracer is not None:
            tracer.unpatch()
            if on:
                install(tracer, wl.patches())

    setup_s = []
    warmup = None
    rounds = []  # (traced, [(seconds, units, ok)])
    measured = 0.0
    next_op = 0
    while True:
        if len(setup_s) < SETUP_REPEATS and measured >= len(setup_s) * seconds / SETUP_REPEATS:
            traced_layers(True)
            setup_s.append(timed_setup(wl, inputs, tracer, len(setup_s)))
        if warmup is None:
            traced_layers(False)
            warmup = wl.round(next_op, None)
            next_op += len(warmup)
        if measured >= seconds and (tracer is None or len(rounds) >= 2):
            break
        traced = tracer is not None and len(rounds) % 2 == 1
        traced_layers(traced)
        t0 = time.perf_counter()
        ops = wl.round(next_op, tracer if traced else None)
        measured += time.perf_counter() - t0
        rounds.append((traced, ops))
        next_op += len(ops)
    traced_layers(True)
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(timed_setup(wl, inputs, tracer, len(setup_s)))
    traced_layers(False)
    return setup_s, warmup, rounds


def check_record(path: Path, key: str, outputs: dict) -> bool:
    """Same workload and seed must give the same outputs on every run in
    this checkout; the first run of a key records its digests."""
    digests = {k: hashlib.sha256(repr(v).encode()).hexdigest() for k, v in outputs.items()}
    records = json.loads(path.read_text()) if path.exists() else {}
    known = records.setdefault(key, {})
    same = all(known.get(k, d) == d for k, d in digests.items())
    known.update({k: d for k, d in digests.items() if k not in known})
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return same


def layer_metrics(wl, tracer, rounds) -> dict:
    by_op = self_time_by_op(tracer.spans)
    traced_ops = [op for op in by_op if isinstance(op, int)]
    n = len(traced_ops)
    out = {metric: 1000 * sum(by_op[op].get(name, 0.0) for op in traced_ops) / n
           for name, metric in LAYER_SPANS.items()}

    setup_ops = [op for op in by_op if isinstance(op, str)]
    inclusive: dict[tuple, float] = {}  # (set-up, child name) -> seconds
    for s in tracer.spans:
        if s.op in setup_ops and s.parent is not None and tracer.spans[s.parent].name == "setup":
            inclusive[s.op, s.name] = inclusive.get((s.op, s.name), 0.0) + s.end - s.start
    for name, metric in SETUP_SPANS.items():
        per_setup = [by_op[op]["setup"] if name == "setup" else inclusive.get((op, name), 0.0)
                     for op in setup_ops]
        out[metric] = 1000 * statistics.median(per_setup)

    def total(key):
        return sum(v for (op, k), v in tracer.counts.items()
                   if k == key and isinstance(op, int))

    out["model.pad_share"] = 1 - total("real_tokens") / total("positions")
    out["model.encode_calls"] = total("encode_calls") / n
    out["tasks.windows_per_request"] = total("windows") / n
    counts = getattr(wl, "counts", None) or {}
    out["pretrain.masked_tokens"] = counts.get("masked_tokens", 0)
    out["pretrain.hidden_cells"] = counts.get("hidden_cells", 0)

    untraced = [s for traced, ops in rounds if not traced for s, _, _ in ops]
    traced = [s for traced, ops in rounds if traced for s, _, _ in ops]
    out["trace.untraced_op_ms"] = 1000 * statistics.fmean(untraced)
    out["trace.traced_op_ms"] = 1000 * statistics.fmean(traced)
    out["trace.overhead_share"] = out["trace.traced_op_ms"] / out["trace.untraced_op_ms"] - 1
    self_sum = sum(out[m] for m in LAYER_SPANS.values())
    out["trace.self_coverage"] = self_sum / out["trace.untraced_op_ms"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cellformer" / "__init__.py").is_file():
        print(f"perfbench: no cellformer sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))

    import cellformer  # after the BLAS cap is set: numpy reads it on import

    if Path(cellformer.__file__).resolve().parent != (src / "cellformer").resolve():
        print(f"perfbench: imported cellformer from {cellformer.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out_dir = root / ".perfbench"
    (out_dir / "work").mkdir(parents=True, exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                   dir=out_dir / "work"))
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("gen.py")),
             "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)],
            check=True, timeout=120,
        )
        wl = WORKLOADS[args.workload](args.seed)
        tracer = Tracer() if args.trace else None
        setup_s, warmup, rounds = measure(wl, inputs, args.seconds, tracer)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    ops = warmup + [op for _, r in rounds for op in r]
    extra_attempted, extra_failed = wl.final_checks()
    same = check_record(out_dir / "records.json",
                        f"{args.workload} seed={args.seed}", wl.outputs())
    attempted = len(ops) + extra_attempted + 1
    failed = sum(not ok for _, _, ok in ops) + extra_failed + (not same)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} clients=1 (closed loop) blas_threads={BLAS_THREADS}")
    shown = {label: (value, unit, "") for label, (value, unit) in wl.report().items()}
    shown["failed_share"] = (failed / attempted, "share",
                             f"({failed} of {attempted} operations and checks failed; "
                             f"outputs match earlier runs: {same})")
    if args.trace:
        trace_path = out_dir / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_path)
        metrics = {k: (v, _layer_unit(k)) for k, v in layer_metrics(wl, tracer, rounds).items()}
        shown.update((k, (v, u, "")) for k, (v, u) in metrics.items())
        shown["spans"] = (len(tracer.spans), "count", f"(written to {trace_path})")
    else:
        untraced = [(s, u) for _, r in rounds for s, u, _ in r]
        times = [s for s, _ in untraced]
        tail, beyond = percentile(times, wl.tail_pct)
        few = "  WARNING: fewer than 10 samples beyond" if beyond < 10 else ""
        rate_name, rate_unit, latency = NAMES[args.workload]
        # Only these are in BENCHMARK.json: the latency percentiles move too
        # much between runs on a shared host to hold a bound (see README).
        metrics = {
            "throughput_per_s": (sum(u for _, u in untraced) / sum(times), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        shown = {
            rate_name: (metrics["throughput_per_s"][0], rate_unit, "[throughput_per_s]"),
            f"{latency}_p50": (1000 * statistics.median(times), "ms", f"(n={len(times)})"),
            f"{latency}_p{wl.tail_pct}": (1000 * tail, "ms",
                                          f"(n={len(times)}, {beyond} beyond){few}"),
            "setup_s": (*metrics["setup_s"], f"(median of {SETUP_REPEATS} set-ups)"),
            "peak_rss_mb": (*metrics["peak_rss_mb"], ""),
            **shown,
        }
    for label, (value, unit, note) in shown.items():
        print(f"  {label} = {value:.6g} {unit}  {note}".rstrip())

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "shown": {k: {"value": v, "unit": u} for k, (v, u, _) in shown.items()}},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _layer_unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_share") or metric.endswith("_coverage"):
        return "share"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

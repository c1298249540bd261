"""Steadiness mode: run the benchmark repeatedly and print the spread of
every metric, to set and check the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --workload qa_online --seeds 1-10
    python3 perfbench/steady.py --workload pretrain --workload tag_batch --seeds 3,5,8

Run from the repository root. Each seed is one run of perfbench/run.py, one
after another. For each metric, those in BENCHMARK.json and the other printed lines
(latency percentiles, failed_share, ...), it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(Q3 - Q1) / median beside the metric's bound: `steady` means the spread is
below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = Path(".perfbench/results") / f"{workload}-seed{seed}-trace{trace}.json"
    shown = json.loads(saved.read_text())["shown"]
    result["metrics"] = {**shown, **result["metrics"]}  # printed lines, e.g. latency percentiles
    return result


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for workload in args.workload:
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)
        print(f"\n{workload}: {len(results)} runs, {args.seconds} s each")
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
                ok &= spread <= bound or name == "setup_s"
            print(f"  {name:<28}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
                  f"{'' if bound is None else f'{bound:>7}'}  {verdict}")
        ok &= all(r["correct"] for r in results)
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

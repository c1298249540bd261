"""The benchmark's use of the package: each perfbench workload generates
its inputs at the smallest seed, sets up and runs one operation that passes
its check. A name the benchmark imports that the package no longer has
fails here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench.{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["pretrain", "tag_batch", "qa_online"])
def test_workload_sets_up_and_runs_one_checked_operation(workload, tmp_path):
    gen, workloads = load("gen"), load("workloads")
    gen.generate(workload, 1, tmp_path)
    bench = workloads.WORKLOADS[workload](1)
    bench.setup(tmp_path, None)
    if workload == "pretrain":
        ops = bench.round(0, None)
        assert len(ops) == workloads.EPISODE_STEPS
        assert all(ok for _, _, ok in ops)
    else:
        assert bench.check(0, bench.op(0))

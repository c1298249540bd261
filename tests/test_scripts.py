"""Every script under scripts/ must import on the running Python
(pyproject allows 3.10 and up) against the package as it is: importing a
script compiles it and resolves every name it imports from cellformer.
diagnose.py is also run, on the artifacts of tiny runs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cellformer
from cellformer.cli import main

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
DIAGNOSE = Path(__file__).resolve().parents[1] / "scripts" / "diagnose.py"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_compiles(path):
    spec = importlib.util.spec_from_file_location(f"scripts.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # __name__ is not "__main__": main() stays idle


TINY_MODEL = ["--num-layers", "1", "--num-heads", "2", "--hidden-d", "16",
              "--ffn-d", "32", "--max-len", "64"]


def _report(run_dir) -> dict:
    return dict(line.split("=", 1) for line in
                (run_dir / "report.txt").read_text().splitlines())


def _diagnose(*args, blas_threads="default") -> str:
    """Run scripts/diagnose.py at the BLAS thread count a run's report
    records, so its products round as the run's did."""
    env = {**os.environ, "PYTHONPATH": str(Path(cellformer.__file__).parents[1])}
    if blas_threads != "default":
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, str(DIAGNOSE), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(args) -> int:
    return main([str(a) for a in args])


def test_diagnose_reads_the_runs_it_diagnoses(tmp_path):
    """Every diagnose.py mode runs on the artifacts of tiny `pretrain`,
    `finetune` and `ablate` runs, and the tagging and QA modes score the
    saved fine-tuned models exactly as their runs did."""
    corpus = tmp_path / "corpus"
    assert _cli(["gen-corpus", "--out", corpus, "--seed", "3", "--num-docs", "30",
                 "--num-form-docs", "10", "--num-qa-docs", "20", "--num-cls-docs", "9",
                 "--min-pairs", "3", "--max-pairs", "5"]) == 0
    common = ["--batch-size", "4", "--seed", "11"]
    assert _cli(["pretrain", "--corpus", corpus / "pretrain_docs.jsonl",
                 "--vocab", corpus / "vocab.txt", "--out", tmp_path / "pre",
                 "--steps", "6", "--eval-every", "0", *common, *TINY_MODEL]) == 0
    init = tmp_path / "pre" / "checkpoint.ckpt"
    for task, data in (("tagging", "form"), ("qa", "qa")):
        assert _cli(["finetune", "--task", task, "--init", init,
                     "--docs", corpus / f"{data}_docs.jsonl",
                     "--labels", corpus / f"{data}_labels.jsonl",
                     "--out", tmp_path / task, "--steps", "8", *common]) == 0
    assert _cli(["ablate", "--corpus", corpus / "pretrain_docs.jsonl",
                 "--vocab", corpus / "vocab.txt", "--out", tmp_path / "ab",
                 "--form-docs", corpus / "form_docs.jsonl",
                 "--form-labels", corpus / "form_labels.jsonl",
                 "--variants", "full,no_pretrain", "--pretrain-steps", "6",
                 "--finetune-steps", "8", "--eval-every", "0", *common,
                 *TINY_MODEL]) == 0

    for ckpt in (tmp_path / "tagging" / "checkpoint.ckpt",
                 tmp_path / "ab" / "full" / "finetune.ckpt"):
        report = _report(ckpt.parent)
        out = _diagnose("tagging", "--ckpt", ckpt, "--corpus-dir", corpus,
                        blas_threads=report["blas_threads"])
        lines = out.splitlines()
        assert lines[0].endswith(f" f1 {report['f1']}"), out
        # entity-level scores, one row per category
        assert [line.split()[0] for line in lines[-3:]] == ["question", "answer", "header"]
    report = _report(tmp_path / "qa")
    out = _diagnose("qa", "--ckpt", tmp_path / "qa" / "checkpoint.ckpt",
                    "--corpus-dir", corpus, blas_threads=report["blas_threads"])
    assert out.startswith(f"anls {report['anls']} over ")
    assert "modes:" in out
    out = _diagnose("mvlm", "--ckpt", init, "--seed", "5")
    assert "mean nll" in out

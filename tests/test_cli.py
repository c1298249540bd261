"""Command-line contracts: determinism of generated files, config precedence
and rejection, exit codes, and the pretrain/finetune surfaces on tiny runs."""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import cellformer
from cellformer import cli, trainer
from cellformer.checkpoint import load_checkpoint
from cellformer.cli import build_parser, main
from cellformer.dataio import read_metrics

TINY_GEN = [
    "--num-docs", "30", "--num-form-docs", "10", "--num-qa-docs", "10",
    "--num-cls-docs", "9", "--min-pairs", "3", "--max-pairs", "5",
]
TINY_MODEL = [
    "--num-layers", "1", "--num-heads", "2", "--hidden-d", "16",
    "--ffn-d", "32", "--max-len", "64",
]


def gen(tmp_path, name="corpus", seed="3"):
    out = tmp_path / name
    code = main(["gen-corpus", "--out", str(out), "--seed", seed] + TINY_GEN)
    assert code == 0
    return out


# SHA-256 of each file of the TINY_GEN corpus at seed 3: a change to the
# generator that moves one byte of the corpus fails here
TINY_GEN_SHA256 = {
    "cls_docs.jsonl": "024dbad41187776221ab57c89f32f3c8710a0fa91a7a388d5a0938aa6cf290be",
    "cls_labels.jsonl": "a7fe137bbfe33d18b1ceef7f13160663258baf6aa1f4b66c047db3cb3eb57ea7",
    "form_docs.jsonl": "8fe90bf22a470b1f8e22adb6a043241c23f56b5817ee2d2d9bea1c38733df6b6",
    "form_labels.jsonl": "b4b99f5d3723fc8e5ab50b56badf12acda8c35a2a9df315ae1bed0ba43b9fce4",
    "pretrain_docs.jsonl": "e6cd102f3e17724755c620fcf7e9f1346f06b27b403deb4254ea9d6690877ff7",
    "qa_docs.jsonl": "4d3d1fa0beae5837b8d61d3b3d837292ef83d5b34bc1bb6056e4fbeea14f3e9c",
    "qa_labels.jsonl": "593b6623212fd9e3fcc8cdcfe1e1b739ecb95b2b1596e85ff6040527e28b4bfc",
    "vocab.txt": "8aea7d0fd6b9e18b0790464b0360c06a2e2b1d5398f779c08274af0e931e87c3",
}


def test_gen_corpus_is_byte_deterministic(tmp_path, capsys):
    a = gen(tmp_path, "a")
    b = gen(tmp_path, "b")
    assert sorted(p.name for p in a.iterdir()) == sorted(TINY_GEN_SHA256)
    for name, digest in TINY_GEN_SHA256.items():
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert hashlib.sha256((a / name).read_bytes()).hexdigest() == digest, name


def test_gen_corpus_counts_match_file_lines(tmp_path, capsys):
    out = gen(tmp_path)
    text = capsys.readouterr().out
    lines = {p.name: len(p.read_text().splitlines()) for p in out.iterdir()}
    assert f"pretraining documents: {lines['pretrain_docs.jsonl']}" in text
    assert f"tagging examples: {lines['form_labels.jsonl']}" in text
    assert f"qa examples: {lines['qa_labels.jsonl']}" in text
    assert f"classification examples: {lines['cls_labels.jsonl']}" in text
    assert "resolved configuration:" in text


def test_gen_corpus_zero_docs_is_config_error(tmp_path, capsys):
    assert main(["gen-corpus", "--out", str(tmp_path / "x"),
                 "--num-docs", "0"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("setting", [
    ["--min-pairs", "5", "--max-pairs", "3"], ["--min-pairs", "0", "--max-pairs", "0"],
    ["--max-pairs", "13"], ["--num-form-docs", "1"], ["--num-qa-docs", "-3"],
    ["--num-cls-docs", "4"],
], ids=["min-above-max", "no-pairs", "more-pairs-than-slots", "one-form-doc",
        "negative-qa-docs", "four-cls-docs"])
def test_bad_synth_setting_is_one_config_error_line_before_any_file(
        tmp_path, capsys, setting):
    out = tmp_path / "x"
    assert main(["gen-corpus", "--out", str(out)] + TINY_GEN + setting) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("num_docs=5\nnot_a_key=1\n")
    assert main(["gen-corpus", "--out", str(tmp_path / "x"),
                 "--config", str(cfg)]) == 1
    assert "not_a_key" in capsys.readouterr().err


def test_malformed_config_line_names_location(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("num_docs=5\njunk line\n")
    assert main(["gen-corpus", "--out", str(tmp_path / "x"),
                 "--config", str(cfg)]) == 1
    assert "bad.cfg:2" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("num_docs=7\nseed=5\n")
    out = tmp_path / "o"
    assert main(["gen-corpus", "--out", str(out), "--config", str(cfg),
                 "--num-docs", "9"] + TINY_GEN[2:]) == 0
    text = capsys.readouterr().out
    assert "num_docs=9" in text  # flag wins
    assert "seed=5" in text  # file beats default
    assert len((out / "pretrain_docs.jsonl").read_text().splitlines()) == 9


def test_config_file_and_flags_are_checked_once_merged(pipeline, tmp_path, capsys):
    _, out, _ = pipeline
    cfg = tmp_path / "c.cfg"
    cfg.write_text("max_pairs=4\n")
    gen_args = ["gen-corpus", "--config", str(cfg)] + TINY_GEN[:8]
    assert main(gen_args + ["--out", str(tmp_path / "g"), "--min-pairs", "3"]) == 0
    assert {"min_pairs=3", "max_pairs=4"} <= set(capsys.readouterr().out.split())
    # out of range once merged: one line, before any file
    assert main(gen_args + ["--out", str(tmp_path / "x"), "--min-pairs", "5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not (tmp_path / "x").exists()

    cfg.write_text("num_heads=3\n")
    assert main([
        "pretrain", "--config", str(cfg), "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "p"),
        "--steps", "2", "--batch-size", "4", "--eval-every", "0", "--hidden-d", "48",
        "--num-layers", "1", "--ffn-d", "32", "--max-len", "64",
    ]) == 0
    assert {"num_heads=3", "hidden_d=48"} <= set(capsys.readouterr().out.split())


def test_missing_data_file_is_exit_2(tmp_path, capsys):
    assert main(["pretrain", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--vocab", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")]) == 2


def test_usage_error_is_exit_1(capsys):
    assert main(["finetune", "--task", "segmentation", "--docs", "x",
                 "--labels", "y", "--init", "none", "--out", "z"]) == 1
    err = capsys.readouterr().err
    assert "tagging" in err and "qa" in err and "classification" in err


def test_grad_check_exit_codes(monkeypatch, capsys):
    import cellformer.cli as cli

    monkeypatch.setattr(cli, "run_grad_check",
                        lambda seed: (True, {"word_emb": (1e-6, 10)}))
    assert main(["grad-check"]) == 0
    assert "PASS" in capsys.readouterr().out
    monkeypatch.setattr(cli, "run_grad_check",
                        lambda seed: (False, {"word_emb": (0.5, 10)}))
    assert main(["grad-check"]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny corpus + pretrain shared by the command tests below."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "corpus"
    assert main(["gen-corpus", "--out", str(out), "--seed", "3"] + TINY_GEN) == 0
    pre = root / "pre"
    code = main([
        "pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(pre),
        "--steps", "8", "--batch-size", "4", "--eval-every", "4",
        "--heldout-every", "6", "--seed", "11",
    ] + TINY_MODEL)
    assert code == 0
    return root, out, pre


def test_pretrain_outputs_and_log_schema(pipeline):
    _, _, pre = pipeline
    records = read_metrics(pre / "metrics.jsonl")
    assert len(records) == 8
    assert all(set(r) == {"step", "lr", "mvlm_loss", "cpc_loss", "cpc_acc"}
               for r in records)
    assert [r["step"] for r in records] == list(range(8))
    ck = load_checkpoint(pre / "checkpoint.ckpt")
    assert ck.step == 8
    assert "cpc_w" in ck.arrays
    evals = read_metrics(pre / "eval.jsonl")
    assert evals and "eval_cpc_acc" in evals[0]


def test_pretrain_cpc_off_log_and_checkpoint(pipeline, tmp_path):
    _, out, _ = pipeline
    pre = tmp_path / "nocpc"
    code = main([
        "pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(pre),
        "--steps", "4", "--batch-size", "4", "--cpc", "off",
        "--eval-every", "0", "--seed", "11",
    ] + TINY_MODEL)
    assert code == 0
    records = read_metrics(pre / "metrics.jsonl")
    assert all(set(r) == {"step", "lr", "mvlm_loss"} for r in records)
    ck = load_checkpoint(pre / "checkpoint.ckpt")
    assert "cpc_w" not in ck.arrays


def test_pretrain_identical_seeds_identical_logs(pipeline, tmp_path):
    _, out, pre = pipeline
    again = tmp_path / "again"
    code = main([
        "pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(again),
        "--steps", "8", "--batch-size", "4", "--eval-every", "4",
        "--heldout-every", "6", "--seed", "11",
    ] + TINY_MODEL)
    assert code == 0
    assert (pre / "metrics.jsonl").read_bytes() == \
        (again / "metrics.jsonl").read_bytes()


def pretrain_args(out, run_dir, *extra):
    """A 6-step pretrain run into `run_dir` that logs an evaluation every
    2 steps."""
    return [
        "pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(run_dir),
        "--steps", "6", "--batch-size", "4", "--eval-every", "2",
        "--heldout-every", "6", "--seed", "11", *extra,
    ] + TINY_MODEL


def files(run_dir, names=("metrics.jsonl", "eval.jsonl", "checkpoint.ckpt")):
    return {name: (run_dir / name).read_bytes() for name in names}


def test_pretrain_rerun_into_one_directory_gives_the_same_files(pipeline, tmp_path):
    _, out, _ = pipeline
    run = tmp_path / "run"
    assert main(pretrain_args(out, run)) == 0
    once = files(run)
    assert main(pretrain_args(out, run)) == 0
    assert files(run) == once
    assert len(read_metrics(run / "metrics.jsonl")) == 6


def test_resume_over_a_longer_run_writes_the_uninterrupted_files(pipeline, tmp_path):
    _, out, _ = pipeline
    run, short = tmp_path / "run", tmp_path / "short"
    assert main(pretrain_args(out, run)) == 0
    uninterrupted = files(run)
    assert main(pretrain_args(out, short, "--stop-after", "3")) == 0
    # the resumed run keeps steps 0-2 of the 6-step run's logs and rewrites
    # the rest
    assert main(pretrain_args(out, run, "--resume",
                              str(short / "checkpoint.ckpt"))) == 0
    assert files(run) == uninterrupted


def test_pretrain_evaluates_the_final_weights_once(pipeline, tmp_path, capsys,
                                                  monkeypatch):
    _, out, _ = pipeline
    calls = []
    evaluate = trainer.Pretrainer.evaluate_heldout

    def counted(self):
        calls.append(1)
        return evaluate(self)

    monkeypatch.setattr(trainer.Pretrainer, "evaluate_heldout", counted)
    run = tmp_path / "run"
    assert main(pretrain_args(out, run)) == 0
    # steps 1, 3 and 5 each evaluate; the final report reuses step 5's
    assert len(calls) == 3
    last = read_metrics(run / "eval.jsonl")[-1]
    assert last["step"] == 5
    printed = capsys.readouterr().out.splitlines()
    for key in ("eval_mvlm_loss", "eval_cpc_acc"):
        assert f"{key}: {last[key]:.4f}" in printed


def test_finetune_rerun_into_one_directory_gives_the_same_files(pipeline, tmp_path):
    _, out, pre = pipeline
    run = tmp_path / "ft"
    args = [
        "finetune", "--task", "tagging",
        "--docs", str(out / "form_docs.jsonl"),
        "--labels", str(out / "form_labels.jsonl"),
        "--init", str(pre / "checkpoint.ckpt"), "--out", str(run),
        "--steps", "4", "--batch-size", "2", "--seed", "11",
    ]
    assert main(args) == 0
    once = files(run, ("metrics.jsonl", "checkpoint.ckpt"))
    assert main(args) == 0
    assert files(run, ("metrics.jsonl", "checkpoint.ckpt")) == once
    assert len(read_metrics(run / "metrics.jsonl")) == 4


def test_resume_with_mismatched_model_config_errors(pipeline, tmp_path, capsys):
    _, out, pre = pipeline
    code = main([
        "pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "r"),
        "--steps", "10", "--resume", str(pre / "checkpoint.ckpt"),
        "--num-layers", "2", "--num-heads", "2", "--hidden-d", "16",
        "--ffn-d", "32", "--max-len", "64",
    ])
    assert code == 1
    assert "model config" in capsys.readouterr().err



@pytest.mark.parametrize("cpc", ["on", "off"])
def test_resume_with_other_heads_is_config_error(pipeline, tmp_path, capsys, cpc):
    _, out, pre = pipeline
    if cpc == "on":  # an MVLM-only checkpoint cannot resume with the CPC head
        pre = tmp_path / "mlm"
        assert main([
            "pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
            "--vocab", str(out / "vocab.txt"), "--out", str(pre),
            "--steps", "8", "--batch-size", "4", "--cpc", "off",
            "--eval-every", "0", "--seed", "11", "--stop-after", "2",
        ] + TINY_MODEL) == 0
    code = main([
        "pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "r"),
        "--steps", "10", "--batch-size", "4", "--cpc", cpc,
        "--resume", str(pre / "checkpoint.ckpt"),
    ] + TINY_MODEL)
    assert code == 1
    assert "heads" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("mismatch", ["model", "vocab", "precision", "heads"])
def test_resume_mismatch_is_config_error_before_any_encoding(
        pipeline, tmp_path, capsys, monkeypatch, mismatch):
    _, out, pre = pipeline
    args = command_args(out, "pretrain", tmp_path / "r")
    args += ["--steps", "10", "--resume", str(pre / "checkpoint.ckpt")]
    if mismatch == "model":
        args += ["--num-layers", "2"]
    elif mismatch == "vocab":  # the same tokens in another order
        tokens = (out / "vocab.txt").read_text().splitlines()
        tokens[5], tokens[6] = tokens[6], tokens[5]
        (tmp_path / "vocab.txt").write_text("\n".join(tokens) + "\n")
        args[args.index("--vocab") + 1] = str(tmp_path / "vocab.txt")
    elif mismatch == "precision":
        args += ["--precision", "float64"]
    else:
        args += ["--cpc", "off"]

    def refuse(*_, **__):
        raise AssertionError("a document was encoded")

    monkeypatch.setattr(trainer, "encode_document", refuse)
    assert main(args) == 1
    message = {"model": "model config", "vocab": "vocabulary"}.get(mismatch, mismatch)
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("extra", [
    ["--stop-after", "11"], ["--stop-after", "-1"],
    ["--stop-after", "5", "--resume", "checkpoint"],
    ["--steps", "6", "--resume", "checkpoint"],
], ids=["past-steps", "negative", "resume-past-stop", "resume-past-steps"])
def test_pretrain_stop_outside_the_run_is_config_error(pipeline, tmp_path, capsys,
                                                       extra):
    _, out, pre = pipeline
    extra = [str(pre / "checkpoint.ckpt") if a == "checkpoint" else a for a in extra]
    args = command_args(out, "pretrain", tmp_path / "r") + ["--steps", "10", *extra]
    assert main(args) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@pytest.mark.parametrize("bad", ["nan-box", "string-page-width"])
def test_malformed_document_is_exit_2(pipeline, tmp_path, capsys, command, bad):
    _, out, _ = pipeline
    name = "pretrain_docs.jsonl" if command == "pretrain" else "form_docs.jsonl"
    lines = (out / name).read_text().splitlines()
    rec = json.loads(lines[3])
    if bad == "nan-box":
        rec["cells"][0]["box"][1] = float("nan")
    else:
        rec["page_width"] = "wide"
    lines[3] = json.dumps(rec)
    docs = tmp_path / name
    docs.write_text("\n".join(lines) + "\n")
    if command == "pretrain":
        args = ["pretrain", "--corpus", str(docs), "--vocab", str(out / "vocab.txt")]
    else:
        args = ["finetune", "--task", "tagging", "--docs", str(docs),
                "--labels", str(out / "form_labels.jsonl"), "--init", "none",
                "--vocab", str(out / "vocab.txt")]
    code = main(args + ["--out", str(tmp_path / "x"), "--steps", "2"] + TINY_MODEL)
    assert code == 2
    assert f"{name}:4: " in capsys.readouterr().err


# every fifth example is held out: lines 1 to 4 of a labels file are
# trained on, line 5 is evaluated
@pytest.mark.parametrize("change,line", [
    ({"question": None}, 3), ({"question": 5}, 3), ({"answers": []}, 3),
    ({"span": [0, 999]}, 3), ({"span": [0, 999]}, 5),
], ids=["null-question", "number-question", "no-answers", "span-past-the-document-train",
        "span-past-the-document-eval"])
def test_malformed_qa_label_is_exit_2(pipeline, tmp_path, capsys, change, line):
    _, out, _ = pipeline
    lines = (out / "qa_labels.jsonl").read_text().splitlines()
    lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), **change})
    labels = tmp_path / "qa_labels.jsonl"
    labels.write_text("\n".join(lines) + "\n")
    code = main(["finetune", "--task", "qa", "--docs", str(out / "qa_docs.jsonl"),
                 "--labels", str(labels), "--init", "none", "--vocab", str(out / "vocab.txt"),
                 "--out", str(tmp_path / "x"), "--steps", "2"] + TINY_MODEL)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"qa_labels.jsonl:{line}: " in err[0]
    assert not (tmp_path / "x").exists()  # rejected before any training


def finetune_on(out, task, labels, run_dir, *extra):
    """A short `finetune` run of `task` on the tiny corpus's documents with
    the labels file `labels`, into `run_dir`."""
    docs = {"classification": "cls_docs.jsonl", "qa": "qa_docs.jsonl"}[task]
    return main(["finetune", "--task", task, "--docs", str(out / docs),
                 "--labels", str(labels), "--init", "none", "--vocab", str(out / "vocab.txt"),
                 "--out", str(run_dir), "--steps", "2", *TINY_MODEL, *extra])


def one_data_error(capsys) -> str:
    """The one line a run wrote to stderr: a data error, no traceback."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: "), err
    return err[0]


@pytest.mark.parametrize("line", [1, 5], ids=["train", "eval"])
def test_finetune_rejects_a_class_label_outside_the_classes(pipeline, tmp_path, capsys,
                                                           line):
    _, out, _ = pipeline
    lines = (out / "cls_labels.jsonl").read_text().splitlines()
    record = json.loads(lines[line - 1])
    lines[line - 1] = json.dumps({**record, "label": 3})
    labels = tmp_path / "cls_labels.jsonl"
    labels.write_text("\n".join(lines) + "\n")
    assert finetune_on(out, "classification", labels, tmp_path / "x") == 2
    err = one_data_error(capsys)
    assert f"{labels}: document '{record['doc_id']}': class label 3 outside [0, 3)" in err
    assert not (tmp_path / "x").exists()  # a rerun cannot truncate an earlier log


def test_qa_with_no_answer_in_any_window_is_one_data_error_line(pipeline, tmp_path,
                                                                 capsys):
    _, out, _ = pipeline
    # a 10-token window leaves one token beside each question, and every
    # answer of the tiny corpus has at least two
    code = finetune_on(out, "qa", out / "qa_labels.jsonl", tmp_path / "x", "--max-len", "10")
    assert code == 2
    assert one_data_error(capsys) == ("data error: no training answer fits a window of "
                                      "max_len 10 beside its question")


@pytest.mark.parametrize("mode", ["word-level", "cell-level"])
def test_removed_layout_mode_spellings_are_config_errors(pipeline, tmp_path, capsys,
                                                         mode):
    _, out, _ = pipeline
    code = main([
        "pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"), "--out", str(tmp_path / "x"),
        "--steps", "2", "--layout-mode", mode,
    ] + TINY_MODEL)
    assert code == 1
    assert "unknown layout mode" in capsys.readouterr().err


def command_args(out, command, run_dir):
    """A short `command` run on the tiny corpus into `run_dir`."""
    if command == "pretrain":
        args = ["pretrain", "--corpus", str(out / "pretrain_docs.jsonl"),
                "--vocab", str(out / "vocab.txt"), "--steps", "2"]
    elif command == "finetune":
        args = ["finetune", "--task", "tagging", "--docs", str(out / "form_docs.jsonl"),
                "--labels", str(out / "form_labels.jsonl"), "--init", "none",
                "--vocab", str(out / "vocab.txt"), "--steps", "2"]
    else:
        args = ["ablate", "--corpus", str(out / "pretrain_docs.jsonl"),
                "--vocab", str(out / "vocab.txt"),
                "--form-docs", str(out / "form_docs.jsonl"),
                "--form-labels", str(out / "form_labels.jsonl"),
                "--variants", "no_pretrain", "--pretrain-steps", "2",
                "--finetune-steps", "2"]
    return args + ["--out", str(run_dir)] + TINY_MODEL


REMOVED_FLAGS = [
    ("pretrain", ["--keep-frac", "0.1"]), ("pretrain", ["--ignore-label", "5"]),
    ("pretrain", ["--coord-vocab", "500"]), ("pretrain", ["--num-tag-labels", "5"]),
    ("pretrain", ["--exact-count", "true"]), ("pretrain", ["--max-answer-len", "99"]),
    ("finetune", ["--stop-after", "2"]), ("finetune", ["--eval-every", "1"]),
    ("finetune", ["--heldout-every", "3"]), ("finetune", ["--max-answer-len", "99"]),
    ("ablate", ["--stop-after", "2"]), ("ablate", ["--max-answer-len", "99"]),
] + [
    # the corruption recipe and the warmup share are constants
    (command, [flag, "0.5"]) for command in ("pretrain", "ablate")
    for flag in ("--mask-rate", "--mask-token-frac", "--random-frac",
                 "--cell-select-rate", "--zero-box-frac", "--warmup-frac")
] + [
    # the model has no dropout, and its layer norms a fixed eps
    (command, flag) for command in ("pretrain", "ablate")
    for flag in (["--dropout", "0.1"], ["--layer-norm-eps", "1e-6"])
]


@pytest.mark.parametrize("command,flag", [
    pytest.param(c, f, id=f[0] if c == "pretrain" else f"{c} {f[0]}")
    for c, f in REMOVED_FLAGS
])
def test_removed_flags_are_rejected(pipeline, tmp_path, capsys, command, flag):
    _, out, _ = pipeline
    code = main(command_args(out, command, tmp_path / "x") + flag)
    assert code == 1
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# every setting each command reads: a config field or, for pretrain,
# --stop-after; the other arguments name files, the task or the variants
MODEL_SETTINGS = {"num_layers", "num_heads", "hidden_d", "ffn_d", "max_len",
                  "num_areas", "num_doc_classes", "layout_mode"}
TRAIN_SETTINGS = {"steps", "batch_size", "lr", "seed", "precision"}
OBJECTIVE_SETTINGS = {"eval_every", "heldout_every"}
SYNTH_SETTINGS = {"seed", "num_docs", "num_form_docs", "num_qa_docs",
                  "num_cls_docs", "min_pairs", "max_pairs"}
SETTINGS = {
    "gen-corpus": SYNTH_SETTINGS,
    "pretrain": MODEL_SETTINGS | TRAIN_SETTINGS | OBJECTIVE_SETTINGS | {"stop_after"},
    "finetune": MODEL_SETTINGS | TRAIN_SETTINGS,
    "ablate": (MODEL_SETTINGS - {"layout_mode"}) | (TRAIN_SETTINGS - {"steps"})
    | OBJECTIVE_SETTINGS,
}
OTHER_ARGUMENTS = {
    "gen-corpus": {"config", "out"},
    "pretrain": {"config", "corpus", "vocab", "out", "cpc", "resume"},
    "finetune": {"config", "task", "docs", "labels", "init", "vocab", "out"},
    "ablate": {"config", "corpus", "vocab", "form_docs", "form_labels", "out",
               "variants", "pretrain_steps", "finetune_steps"},
}


@pytest.mark.parametrize("command,count", [("gen-corpus", 7), ("pretrain", 16),
                                           ("finetune", 13), ("ablate", 13)])
def test_each_command_takes_only_the_settings_it_reads(command, count):
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in commands.choices[command]._actions} - {"help"}
    assert dests == SETTINGS[command] | OTHER_ARGUMENTS[command]
    assert len(SETTINGS[command]) == count


def test_every_setting_is_an_int_float_or_str():
    # the only types the config coercion reads: any other, a bool say,
    # would get the raw string, and "false" is truthy
    coerced = {int, float, str}
    for classes, _ in cli.SETTINGS.values():
        for cls in classes:
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                assert hints[f.name] in coerced, f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("command,setting", [
    ("pretrain", ["--num-heads", "0"]),
    ("pretrain", ["--hidden-d", "0", "--num-heads", "1"]),
    ("pretrain", ["--num-areas", "0"]),
    ("finetune", ["--max-len", "2"]),
], ids=["no-heads", "no-width", "no-areas", "max-len-2"])
def test_out_of_range_model_setting_is_config_error_before_any_work(
        pipeline, tmp_path, capsys, command, setting):
    _, out, _ = pipeline
    assert main(command_args(out, command, tmp_path / "x") + setting) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--pretrain-steps", "--finetune-steps"])
def test_ablate_zero_steps_is_config_error_before_any_work(pipeline, tmp_path, capsys,
                                                          flag):
    _, out, _ = pipeline
    code = main(command_args(out, "ablate", tmp_path / "x")
                + ["--variants", "full", flag, "0"])
    assert code == 1
    assert "steps must be positive" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["finetune", "ablate"])
def test_fewer_than_five_labelled_examples_is_a_data_error_before_any_work(
        pipeline, tmp_path, capsys, command):
    _, out, _ = pipeline
    # every fifth example is held out, so four leave nothing to evaluate
    small = tmp_path / "corpus"
    shutil.copytree(out, small)
    for name in ("form_docs.jsonl", "form_labels.jsonl"):
        lines = (out / name).read_text().splitlines(keepends=True)
        (small / name).write_text("".join(lines[:4]))
    assert main(command_args(small, command, tmp_path / "x")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: "), err
    assert str(small / "form_labels.jsonl") in err[0] and "at least 5" in err[0]
    assert not (tmp_path / "x").exists()


def test_ablate_without_pretraining_does_not_check_pretrain_steps(pipeline, tmp_path):
    _, out, _ = pipeline
    args = command_args(out, "ablate", tmp_path / "x")
    args[args.index("--pretrain-steps") + 1] = "0"
    assert main(args) == 0


@pytest.mark.parametrize("variants", ["no_pretrain", "full"])
def test_ablate_prints_only_the_settings_it_uses(pipeline, tmp_path, capsys, variants):
    _, out, _ = pipeline
    args = command_args(out, "ablate", tmp_path / "x")
    args[args.index("--variants") + 1] = variants
    assert main(args) == 0
    text = capsys.readouterr().out
    shown = {line.split("=")[0].strip() for line in text.splitlines()
             if line.startswith("  ") and "=" in line}
    # each variant sets its own layout and step count
    assert "steps" not in shown and "layout_mode" not in shown
    assert {"lr", "hidden_d"} <= shown and "finetune_steps=2" in text.split()
    pretrains = variants != "no_pretrain"
    assert ("eval_every" in shown) == pretrains
    assert ("pretrain_steps=2" in text.split()) == pretrains


@pytest.mark.parametrize("command", ["pretrain", "ablate"])
@pytest.mark.parametrize("setting", [
    ["--eval-every", "-2"], ["--heldout-every", "-3"], ["--heldout-every", "1"],
], ids=["negative-eval-every", "negative-heldout-every", "every-document-held-out"])
def test_bad_held_out_setting_is_config_error_before_any_work(
        pipeline, tmp_path, capsys, command, setting):
    _, out, _ = pipeline
    args = command_args(out, command, tmp_path / "x")
    if command == "ablate":
        args[args.index("--variants") + 1] = "full"
    assert main(args + setting) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("variants", ["no_pretrain", "full,word_level"])
def test_ablate_exits_with_the_first_failed_variants_error(pipeline, tmp_path, variants):
    _, out, _ = pipeline
    # every input passes the parent's checks; a directory where a variant
    # writes its first log fails that variant's worker alone
    for variant in variants.split(","):
        first = "finetune" if variant == "no_pretrain" else "pretrain"
        (tmp_path / "ab" / variant / f"{first}_metrics.jsonl").mkdir(parents=True)
    args = command_args(out, "ablate", tmp_path / "ab")
    args[args.index("--variants") + 1] = variants
    env = {**os.environ, "PYTHONPATH": str(Path(cellformer.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "cellformer.cli", *args],
                          capture_output=True, text=True, env=env, timeout=600)
    # a file the worker could not write: one line naming it, exit 1
    assert proc.returncode == 1
    first = variants.split(",")[0]
    log = "finetune" if first == "no_pretrain" else "pretrain"
    last = proc.stderr.rstrip().splitlines()[-1]
    assert last.startswith("error: ")
    assert str(tmp_path / "ab" / first / f"{log}_metrics.jsonl") in last
    table = (tmp_path / "ab" / "ablation.txt").read_text().splitlines()
    for line, variant in zip(table[1:], variants.split(","), strict=True):
        assert line.startswith(variant) and "failed: " in line
    assert not (tmp_path / "ab" / "mvlm_loss_series.tsv").exists()


NOT_UTF8 = bytes(range(128, 256)) * 2  # no line of it decodes as UTF-8


@pytest.mark.parametrize("command,flag,code,content", [
    pytest.param("pretrain", "--corpus", 2, None, id="pretrain---corpus-2"),
    pytest.param("finetune", "--labels", 2, None, id="finetune---labels-2"),
    pytest.param("finetune", "--init", 2, None, id="finetune---init-2"),
    pytest.param("finetune", "--out", 1, b"not a directory\n", id="finetune---out-1"),
    pytest.param("pretrain", "--corpus", 2, NOT_UTF8, id="pretrain---corpus-not-utf8"),
    pytest.param("finetune", "--labels", 2, NOT_UTF8, id="finetune---labels-not-utf8"),
    pytest.param("pretrain", "--config", 1, NOT_UTF8, id="pretrain---config-not-utf8"),
])
def test_a_path_that_cannot_be_opened_is_one_line_not_a_traceback(
        pipeline, tmp_path, capsys, command, flag, code, content):
    _, out, _ = pipeline
    run_dir = tmp_path / "run"
    args = command_args(out, command, run_dir)
    if flag not in args:
        args += [flag, ""]
    # an existing file where the output directory goes, an input that is
    # not UTF-8 text, or (no content) a missing input
    bad = run_dir if flag == "--out" else tmp_path / "input"
    if content is not None:
        bad.write_bytes(content)
    args[args.index(flag) + 1] = str(bad)
    assert main(args) == code
    last = capsys.readouterr().err.rstrip().splitlines()[-1]
    prefix = {"--out": "error: ", "--config": "config error: "}.get(flag, "data error: ")
    assert last.startswith(prefix)
    assert str(bad) in last
    if flag != "--out":  # found before any output exists
        assert not run_dir.exists()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def assert_each_key_once(report_path):
    """Each key of a report appears on one line; the seed is `train.seed`
    alone."""
    keys = [line.split("=", 1)[0] for line in report_path.read_text().splitlines()]
    assert len(keys) == len(set(keys)), keys
    assert "seed" not in keys and "train.seed" in keys


def test_finetune_report_and_init_variants(pipeline, tmp_path, capsys,
                                           monkeypatch):
    root, out, pre = pipeline
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    ft1 = tmp_path / "ft_pre"
    code = main([
        "finetune", "--task", "tagging",
        "--docs", str(out / "form_docs.jsonl"),
        "--labels", str(out / "form_labels.jsonl"),
        "--init", str(pre / "checkpoint.ckpt"), "--out", str(ft1),
        "--steps", "6", "--batch-size", "2", "--seed", "11",
    ])
    assert code == 0
    report = (ft1 / "report.txt").read_text()
    for key in ("precision=", "recall=", "f1=", "task=tagging"):
        assert key in report
    assert "blas_threads=default" in report.splitlines()
    assert_each_key_once(ft1 / "report.txt")
    # settings exactly, as the resolved configuration echoes them
    assert {"train.seed=11", "train.lr=0.002"} <= set(report.splitlines())
    # metrics echoed to 4 decimals
    f1_line = [l for l in report.splitlines() if l.startswith("f1=")][0]
    assert len(f1_line.split("=")[1].split(".")[1]) == 4
    # every stream is derived from the seed, so no RNG state is saved
    assert load_checkpoint(ft1 / "checkpoint.ckpt").rng_state is None

    # the first of the BLAS thread variables that is set names the count
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setenv("MKL_NUM_THREADS", "5")
    ft2 = tmp_path / "ft_none"
    code = main([
        "finetune", "--task", "tagging",
        "--docs", str(out / "form_docs.jsonl"),
        "--labels", str(out / "form_labels.jsonl"),
        "--init", "none", "--vocab", str(out / "vocab.txt"),
        "--out", str(ft2), "--steps", "6", "--batch-size", "2",
        "--seed", "11",
    ] + TINY_MODEL)
    assert code == 0
    r1 = (ft1 / "report.txt").read_text()
    r2 = (ft2 / "report.txt").read_text()
    assert "init=none" in r2 and "init=none" not in r1
    assert "blas_threads=2" in r2.splitlines()
    assert r1 != r2


def test_finetune_init_none_requires_vocab(pipeline, tmp_path, capsys):
    _, out, _ = pipeline
    code = main([
        "finetune", "--task", "tagging",
        "--docs", str(out / "form_docs.jsonl"),
        "--labels", str(out / "form_labels.jsonl"),
        "--init", "none", "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "--vocab" in capsys.readouterr().err


def test_finetune_rejects_model_overrides_with_checkpoint(pipeline, tmp_path,
                                                          capsys):
    _, out, pre = pipeline
    code = main([
        "finetune", "--task", "tagging",
        "--docs", str(out / "form_docs.jsonl"),
        "--labels", str(out / "form_labels.jsonl"),
        "--init", str(pre / "checkpoint.ckpt"),
        "--out", str(tmp_path / "x"), "--hidden-d", "32",
    ])
    assert code == 1
    assert "hidden_d" in capsys.readouterr().err


def test_ablate_tiny_matrix(pipeline, tmp_path, monkeypatch):
    _, out, _ = pipeline
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    ab = tmp_path / "ab"
    code = main([
        "ablate", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"),
        "--form-docs", str(out / "form_docs.jsonl"),
        "--form-labels", str(out / "form_labels.jsonl"),
        "--out", str(ab), "--variants", "full,word_level,no_pretrain",
        "--pretrain-steps", "4", "--finetune-steps", "4",
        "--batch-size", "4", "--seed", "11", "--eval-every", "2",
        "--heldout-every", "6",
    ] + TINY_MODEL)
    assert code == 0
    table = (ab / "ablation.txt").read_text().splitlines()
    assert len([l for l in table if not l.startswith(("variant", "#"))]) == 3
    series = (ab / "mvlm_loss_series.tsv").read_text().splitlines()
    assert series[0] == "step\tcell_level\tword_level"
    assert len(series) == 1 + 4  # header + one row per pretrain step
    for variant in ("full", "word_level", "no_pretrain"):
        # each worker runs with the one BLAS thread the harness gives it
        report = (ab / variant / "report.txt").read_text().splitlines()
        assert "blas_threads=1" in report
        # the settings it was fine-tuned with, as a finetune report has them
        assert "train.batch_size=4" in report and "train.steps=4" in report
        layout = "word" if variant == "word_level" else "cell"
        assert f"model.layout_mode={layout}" in report
        assert_each_key_once(ab / variant / "report.txt")
    # each pre-training variant keeps the held-out evaluations it ran
    for variant in ("full", "word_level"):
        evals = read_metrics(ab / variant / "pretrain_eval.jsonl")
        assert [e["step"] for e in evals] == [1, 3]
        assert all(set(e) == {"step", "eval_mvlm_loss", "eval_cpc_acc"} for e in evals)
    assert not (ab / "no_pretrain" / "pretrain_eval.jsonl").exists()


def test_ablate_variant_does_not_depend_on_its_neighbours(pipeline, tmp_path):
    _, out, _ = pipeline
    runs = {}
    for name, variants in (("alone", "full"), ("matrix", "full,word_level,no_pretrain")):
        ab = tmp_path / name
        assert main([
            "ablate", "--corpus", str(out / "pretrain_docs.jsonl"),
            "--vocab", str(out / "vocab.txt"),
            "--form-docs", str(out / "form_docs.jsonl"),
            "--form-labels", str(out / "form_labels.jsonl"),
            "--out", str(ab), "--variants", variants,
            "--pretrain-steps", "4", "--finetune-steps", "4",
            "--batch-size", "4", "--seed", "11", "--eval-every", "2",
            "--heldout-every", "6",
        ] + TINY_MODEL) == 0
        runs[name] = ab / "full"
    for name in ("pretrain_metrics.jsonl", "pretrain_eval.jsonl", "pretrain.ckpt",
                 "finetune_metrics.jsonl", "finetune.ckpt"):
        assert (runs["alone"] / name).read_bytes() == (runs["matrix"] / name).read_bytes(), name
    reports = [
        [l for l in (runs[r] / "report.txt").read_text().splitlines()
         if not l.startswith(("pretrain_seconds", "finetune_seconds"))]
        for r in ("alone", "matrix")
    ]
    assert reports[0] == reports[1]


def test_ablate_unknown_variant_rejected(pipeline, tmp_path, capsys):
    _, out, _ = pipeline
    code = main([
        "ablate", "--corpus", str(out / "pretrain_docs.jsonl"),
        "--vocab", str(out / "vocab.txt"),
        "--form-docs", str(out / "form_docs.jsonl"),
        "--form-labels", str(out / "form_labels.jsonl"),
        "--out", str(tmp_path / "x"), "--variants", "full,bogus",
    ])
    assert code == 1
    assert "bogus" in capsys.readouterr().err

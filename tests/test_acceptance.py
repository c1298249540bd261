"""The acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with -s to watch them stream).

The pipeline runs once per session through the real commands
(gen-corpus -> grad-check -> ablate -> finetune x2) plus the determinism
checks; the criteria assert on the produced artifacts and timings.
"""

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from cellformer import model as M
from cellformer.checkpoint import load_checkpoint, save_checkpoint
from cellformer.cli import main
from cellformer.dataio import read_cell_jsonl, read_metrics
from cellformer.documents import encode_document
from cellformer.gradcheck import REL_TOL, run_grad_check
from cellformer.metrics import anls, anls_single, decode_bies, word_f1
from cellformer.model import ModelConfig
from cellformer.pretrain import area_of, derive_rng, sample_cpc, sample_mvlm
from cellformer.synth import SynthConfig, gen_pretrain_doc
from cellformer.vocab import MASK_ID, Vocab

pytestmark = pytest.mark.acceptance

SEED = 202
NUM_DOCS = 5000
PRETRAIN_STEPS = 4000
FT_STEPS = 600
QA_STEPS = 1500
CLS_STEPS = 300
VARIANTS = ("full", "no_cpc", "word_level", "no_pretrain")


def check(criterion: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def read_report(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


@dataclass
class Pipeline:
    root: Path
    corpus_dir: Path
    docs: list
    vocab: Vocab
    grad_passed: bool
    grad_report: dict
    grad_seconds: float
    reports: dict = field(default_factory=dict)
    ablate_seconds: float = 0.0


@pytest.fixture(scope="session")
def pipe(tmp_path_factory) -> Pipeline:
    root = tmp_path_factory.mktemp("acceptance")
    corpus_dir = root / "corpus"
    assert main(["gen-corpus", "--out", str(corpus_dir),
                 "--seed", str(SEED), "--num-docs", str(NUM_DOCS)]) == 0
    docs = read_cell_jsonl(corpus_dir / "pretrain_docs.jsonl")
    vocab = Vocab.from_lines((corpus_dir / "vocab.txt").read_text())

    t0 = time.time()
    grad_passed, grad_report = run_grad_check(seed=SEED)
    grad_seconds = time.time() - t0

    pipe = Pipeline(root=root, corpus_dir=corpus_dir, docs=docs, vocab=vocab,
                    grad_passed=grad_passed, grad_report=grad_report,
                    grad_seconds=grad_seconds)

    t0 = time.time()
    assert main([
        "ablate", "--corpus", str(corpus_dir / "pretrain_docs.jsonl"),
        "--vocab", str(corpus_dir / "vocab.txt"),
        "--form-docs", str(corpus_dir / "form_docs.jsonl"),
        "--form-labels", str(corpus_dir / "form_labels.jsonl"),
        "--out", str(root / "ablation"),
        "--variants", ",".join(VARIANTS),
        "--pretrain-steps", str(PRETRAIN_STEPS),
        "--finetune-steps", str(FT_STEPS),
        "--seed", str(SEED), "--eval-every", "0",
    ]) == 0
    pipe.ablate_seconds = time.time() - t0
    for variant in VARIANTS:
        pipe.reports[variant] = read_report(root / "ablation" / variant / "report.txt")

    full_ckpt = root / "ablation" / "full" / "pretrain.ckpt"
    assert main([
        "finetune", "--task", "qa",
        "--docs", str(corpus_dir / "qa_docs.jsonl"),
        "--labels", str(corpus_dir / "qa_labels.jsonl"),
        "--init", str(full_ckpt), "--out", str(root / "ft_qa"),
        "--steps", str(QA_STEPS), "--batch-size", "8",
        "--seed", str(SEED),
    ]) == 0
    pipe.reports["qa"] = read_report(root / "ft_qa" / "report.txt")

    assert main([
        "finetune", "--task", "classification",
        "--docs", str(corpus_dir / "cls_docs.jsonl"),
        "--labels", str(corpus_dir / "cls_labels.jsonl"),
        "--init", str(full_ckpt), "--out", str(root / "ft_cls"),
        "--steps", str(CLS_STEPS), "--batch-size", "8",
        "--seed", str(SEED),
    ]) == 0
    pipe.reports["cls"] = read_report(root / "ft_cls" / "report.txt")
    return pipe


def test_criterion_1_gradient_oracle(pipe):
    worst = max(err for err, _ in pipe.grad_report.values())
    ok = pipe.grad_passed and pipe.grad_seconds <= 120.0
    check(1, ok,
          f"grad check max rel err {worst:.2e} (tol {REL_TOL:.0e}) across "
          f"{len(pipe.grad_report)} parameter groups in {pipe.grad_seconds:.0f}s"
          " (budget 120s)")


def test_criterion_2_sampler_statistics(pipe):
    mc = ModelConfig(vocab_size=len(pipe.vocab))
    seqs = [encode_document(d, pipe.vocab, mc.max_len, "cell")
            for d in pipe.docs[:400]]

    token_draws = selected = masked = randomized = kept = 0
    cell_draws = cells_selected = zeroed = 0
    overlap_violations = 0
    trial = 0
    while token_draws < 120_000 or cell_draws < 40_000:
        seq = seqs[trial % len(seqs)]
        rng = derive_rng(SEED, "stats", trial)
        trial += 1
        ids, labels, positions = sample_mvlm(seq, len(pipe.vocab), rng)
        eligible = int(seq.content_mask().sum())
        token_draws += eligible
        selected += len(positions)
        for p in positions:
            if ids[p] == MASK_ID:
                masked += 1
            elif ids[p] == seq.token_ids[p]:
                kept += 1
            else:
                randomized += 1
        boxes, cpc_labels, chosen = sample_cpc(seq, positions, 16, rng)
        masked_cells = {int(seq.cell_index[p]) for p in positions}
        present = len(np.unique(seq.cell_index[seq.cell_index >= 0]))
        cell_draws += present - len(masked_cells)
        cells_selected += len(chosen)
        if masked_cells & set(chosen.tolist()):
            overlap_violations += 1
        for c in chosen:
            if np.all(boxes[seq.cell_index == c] == 0):
                zeroed += 1

    sel_rate = selected / token_draws
    cell_rate = cells_selected / cell_draws
    ok = (
        abs(sel_rate - 0.15) <= 0.005
        and abs(masked / selected - 0.80) <= 0.01
        and abs(randomized / selected - 0.10) <= 0.01
        and abs(kept / selected - 0.10) <= 0.01
        and abs(cell_rate - 0.15) <= 0.01
        and abs(zeroed / cells_selected - 0.90) <= 0.01
        and overlap_violations == 0
    )
    check(2, ok,
          f"mask rate {sel_rate:.4f} (.15±.005), split "
          f"{masked/selected:.3f}/{randomized/selected:.3f}/{kept/selected:.3f} "
          f"(.8/.1/.1±.01) over {token_draws} draws; cell rate {cell_rate:.4f} "
          f"(.15±.01), zeroing {zeroed/cells_selected:.3f} (.9±.01) over "
          f"{cell_draws} cells; overlaps {overlap_violations}")


def test_criterion_3_area_oracle(pipe):
    grid = 4
    t0 = time.time()
    hit = set()
    mismatches = 0
    for cx in range(0, 1001, 7):
        for cy in range(0, 1001, 7):
            got = area_of((cx, cy, cx, cy), 16)
            col = min(cx * grid // 1000, grid - 1)
            row = min(cy * grid // 1000, grid - 1)
            # independent membership check against explicit rectangle bounds
            ok_cell = (col * 250 <= cx < (col + 1) * 250 or cx == 1000) and \
                      (row * 250 <= cy < (row + 1) * 250 or cy == 1000)
            if not ok_cell or got != row * grid + col:
                mismatches += 1
            hit.add(got)
    elapsed = time.time() - t0
    ok = mismatches == 0 and hit == set(range(16)) and elapsed < 30
    check(3, ok, f"stride-7 sweep: {mismatches} mismatches, "
                 f"{len(hit)}/16 areas hit, {elapsed:.1f}s")


def test_criterion_4_same_cell_invariance(pipe):
    mc = ModelConfig(vocab_size=len(pipe.vocab))
    params = M.init_parameters(mc, derive_rng(SEED, "inv"), heads=())
    synth_cfg = SynthConfig(seed=SEED + 1)
    violations = 0
    word_level_violates_in_every_doc = True
    for i in range(100):
        doc = gen_pretrain_doc(synth_cfg, derive_rng(SEED, "inv-doc", i), f"i{i}")
        seq = encode_document(doc, pipe.vocab, mc.max_len, "cell")
        contrib = M.layout_contribution(params, seq.boxes).data
        for c in np.unique(seq.cell_index[seq.cell_index >= 0]):
            rows = contrib[seq.cell_index == c]
            if not np.all(rows == rows[0]):
                violations += 1
        wseq = encode_document(doc, pipe.vocab, mc.max_len, "word")
        wcontrib = M.layout_contribution(params, wseq.boxes).data
        found = False
        for c in np.unique(wseq.cell_index[wseq.cell_index >= 0]):
            rows = wcontrib[wseq.cell_index == c]
            if len(rows) > 1 and not np.all(rows == rows[0]):
                found = True
                break
        word_level_violates_in_every_doc &= found
    ok = violations == 0 and word_level_violates_in_every_doc
    check(4, ok, f"cell mode: {violations} shared-cell violations over 100 "
                 "docs; word mode: differing per-word contributions found in "
                 "every doc")


def test_criterion_5_desk_scale_pretraining(pipe):
    hist = read_metrics(pipe.root / "ablation" / "full" / "pretrain_metrics.jsonl")
    step0 = hist[0]["mvlm_loss"]
    final = float(np.mean([h["mvlm_loss"] for h in hist[-50:]]))
    report = pipe.reports["full"]
    acc = report["eval_cpc_acc"]
    minutes = report["pretrain_seconds"] / 60
    ok = final < 0.6 * step0 and acc >= 0.60 and minutes <= 30
    check(5, ok,
          f"MVLM {step0:.3f} -> {final:.3f} ({final/step0:.1%} of step-0, "
          f"need <60%); held-out CPC acc {acc:.3f} (need >=0.60, chance "
          f"0.0625); {minutes:.1f} min (budget 30)")


def test_criterion_6_cell_vs_word_loss_direction(pipe):
    series = (pipe.root / "ablation" / "mvlm_loss_series.tsv").read_text()
    rows = [line.split("\t") for line in series.splitlines()[1:]]
    assert len(rows) == PRETRAIN_STEPS
    cell = float(np.mean([float(r[1]) for r in rows[-50:]]))
    word = float(np.mean([float(r[2]) for r in rows[-50:]]))
    ok = cell < word
    check(6, ok, f"final-50 MVLM loss: cell-level {cell:.4f} < word-level "
                 f"{word:.4f} (strict)")


def test_criterion_7_ablation_ordering(pipe):
    f_full = pipe.reports["full"]["f1"]
    f_nocpc = pipe.reports["no_cpc"]["f1"]
    f_scratch = pipe.reports["no_pretrain"]["f1"]
    minutes = pipe.ablate_seconds / 60
    ok = (f_full >= f_nocpc >= f_scratch
          and f_full - f_scratch >= 0.05
          and minutes <= 45)
    check(7, ok,
          f"F1 full {f_full:.4f} >= no_cpc {f_nocpc:.4f} >= no_pretrain "
          f"{f_scratch:.4f}; gap {f_full - f_scratch:.4f} (need >=0.05); "
          f"ablation run {minutes:.1f} min (budget 45)")


def test_criterion_8_finetuning_capacity(pipe):
    f1 = pipe.reports["full"]["f1"]
    anls_score = pipe.reports["qa"]["anls"]
    acc = pipe.reports["cls"]["accuracy"]
    ok = f1 >= 0.95 and anls_score >= 0.90 and acc >= 0.95
    check(8, ok, f"tagging F1 {f1:.4f} (>=0.95); QA score {anls_score:.4f} "
                 f"(>=0.90); classification acc {acc:.4f} (>=0.95)")


def test_criterion_9_metric_unit_suites():
    ok = True
    detail = []
    ok &= anls(["match"], [["match"]]) == 1.0
    s = anls_single("abc", ["axc"])
    ok &= abs(s - 0.6667) <= 1e-4
    detail.append(f"abc/axc={s:.4f}")
    ok &= anls_single("abcde", ["vwxge"]) == 0.0  # similarity 0.4 < tau
    p, r, f1 = word_f1(["B-question", "O", "O"], ["B-question", "E-question", "O"])
    ok &= (p, r) == (1.0, 0.5) and abs(f1 - 2 / 3) < 1e-12
    detail.append(f"P={p} R={r} F1={f1:.4f}")
    # the exhaustive <=3-length truth table runs in the unit suite;
    # spot-assert the documented repairs here
    ok &= decode_bies(["I-header", "O"]) == [("header", 0, 0)]
    ok &= decode_bies(["B-question", "I-question", "O"]) == [("question", 0, 1)]
    ok &= decode_bies(["B-question", "E-answer", "S-header"]) == [
        ("question", 0, 0), ("answer", 1, 1), ("header", 2, 2)]
    check(9, bool(ok), "ANLS closed forms, word-F1 hand count, BIES repairs: "
                       + ", ".join(detail))


def test_criterion_10_determinism_and_roundtrip(pipe, tmp_path):
    corpus = str(pipe.corpus_dir / "pretrain_docs.jsonl")
    vocab = str(pipe.corpus_dir / "vocab.txt")
    base = [
        "pretrain", "--corpus", corpus, "--vocab", vocab,
        "--seed", str(SEED + 9), "--eval-every", "0",
    ]

    # two identical 100-step runs -> byte-identical logs
    for name in ("r1", "r2"):
        assert main(base + ["--out", str(tmp_path / name), "--steps", "100"]) == 0
    logs_identical = (
        (tmp_path / "r1" / "metrics.jsonl").read_bytes()
        == (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    )

    # checkpoint round trip
    ck = tmp_path / "r1" / "checkpoint.ckpt"
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, load_checkpoint(ck))
    roundtrip = ck.read_bytes() == resaved.read_bytes()

    # a 150-step run vs a run interrupted at 100 and resumed
    assert main(base + ["--out", str(tmp_path / "full"), "--steps", "150"]) == 0
    assert main(base + ["--out", str(tmp_path / "part"), "--steps", "150",
                        "--stop-after", "100"]) == 0
    assert main(base + ["--out", str(tmp_path / "rest"), "--steps", "150",
                        "--resume", str(tmp_path / "part" / "checkpoint.ckpt")]) == 0
    full_log = read_metrics(tmp_path / "full" / "metrics.jsonl")
    rest_log = read_metrics(tmp_path / "rest" / "metrics.jsonl")
    resume_match = len(rest_log) == 50 and full_log[100:] == rest_log

    ok = logs_identical and roundtrip and resume_match
    check(10, ok,
          f"identical 100-step logs: {logs_identical}; save/load/save "
          f"byte-identical: {roundtrip}; resume matches the subsequent 50 "
          f"losses exactly: {resume_match}")

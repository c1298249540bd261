"""Generate one workload's inputs from a seed with ``cellformer.synth``.

Writes the cell-JSONL (and label JSONL) files the CLI consumes, plus a
vocabulary file (pretrain) or a float32 checkpoint with fresh weights and the
task head (tag_batch, qa_online). The same seed gives byte-identical files.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR
(run from the repository root, with ``src`` on PYTHONPATH)
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from cellformer import model as M
from cellformer.checkpoint import Checkpoint, save_checkpoint
from cellformer.dataio import write_cell_jsonl, write_qa_jsonl, write_tagging_jsonl
from cellformer.pretrain import derive_rng
from cellformer.synth import (
    QUESTION_WORDS, SynthConfig, gen_form_dataset, gen_pretrain_corpus,
    gen_qa_dataset, vocab_words,
)
from cellformer.vocab import build_vocab

PRETRAIN_DOCS = 512
POOL_DOCS = 256  # tag_batch documents / qa_online requests, cycled
TASK_HEADS = {"tag_batch": ("tag",), "qa_online": ("span",)}


def generate(workload: str, seed: int, out: Path) -> None:
    cfg = SynthConfig(seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "pretrain":
        docs = gen_pretrain_corpus(dataclasses.replace(cfg, num_docs=PRETRAIN_DOCS))
        write_cell_jsonl(docs, out / "docs.jsonl")
    elif workload == "tag_batch":
        examples = gen_form_dataset(cfg, POOL_DOCS)
        docs = [ex.doc for ex in examples]
        write_cell_jsonl(docs, out / "docs.jsonl")
        write_tagging_jsonl(examples, out / "labels.jsonl")
    elif workload == "qa_online":
        examples = gen_qa_dataset(cfg, POOL_DOCS)
        docs = [ex.doc for ex in examples]
        write_cell_jsonl(docs, out / "docs.jsonl")
        write_qa_jsonl(examples, out / "labels.jsonl")
    else:
        raise ValueError(f"unknown workload {workload!r}")

    # the same vocabulary recipe as `cellformer gen-corpus`
    words = [w for d in docs for c in d.cells for w in c.text.split()]
    words.extend(vocab_words(cfg))
    words.extend(QUESTION_WORDS)
    vocab = build_vocab(words, cfg.vocab_max_size)
    if workload == "pretrain":
        (out / "vocab.txt").write_text(vocab.to_lines(), encoding="utf-8")
        return

    model_cfg = M.ModelConfig(vocab_size=len(vocab))
    params = M.init_parameters(model_cfg, derive_rng(seed, "perfbench", workload),
                               heads=TASK_HEADS[workload])
    save_checkpoint(out / "model.ckpt", Checkpoint(
        model_config=model_cfg,
        arrays={k: v.data for k, v in params.items()},
        vocab_tokens=list(vocab.id_to_token),
        step=0,
        rng_state=np.random.Generator(np.random.PCG64(seed)).bit_generator.state,
        precision="float32",
    ))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()

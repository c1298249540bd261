"""Post-run diagnostics against saved pipeline artifacts: tagging confusion
by gold category, QA failure modes, and MVLM loss decomposed by token role."""

import argparse
import dataclasses
from collections import Counter, defaultdict

import numpy as np

from cellformer import model as M
from cellformer.autograd import detached
from cellformer.checkpoint import load_checkpoint
from cellformer.dataio import read_cell_jsonl, read_qa_examples, read_tagging_examples
from cellformer.documents import encode_document, stack_batch
from cellformer.metrics import TAG_LABELS
from cellformer.pretrain import PretrainConfig, derive_rng, make_pretrain_example
from cellformer.synth import FIELD_KEYS, SynthConfig, _gen_form
from cellformer.taskdata import split_train_eval
from cellformer.tasks import (
    finetune, predict_word_tags, qa_predict_answer, qa_windows,
)
from cellformer.trainer import TrainConfig
from cellformer.vocab import Vocab
from cellformer.metrics import anls_single


def tagging_confusion(ckpt_path, corpus_dir, steps, lr, seed):
    init = load_checkpoint(ckpt_path)
    vocab = Vocab(init.vocab_tokens)
    examples = read_tagging_examples(f"{corpus_dir}/form_docs.jsonl",
                                     f"{corpus_dir}/form_labels.jsonl")
    train, eval_ = split_train_eval(examples)
    # the ablation's fine-tuning settings, so the report reproduces its F1
    cfg = TrainConfig(steps=steps, lr=lr, seed=seed)
    params, report = finetune("tagging", train, eval_, vocab,
                              init.model_config, cfg, init=init)
    print("report:", report)
    seqs = [encode_document(ex.doc, vocab, init.model_config.max_len,
                            init.model_config.layout_mode) for ex in eval_]
    preds = predict_word_tags(params, init.model_config, seqs, 8)
    confusion = Counter()
    for ex, pred in zip(eval_, preds):
        for p, g in zip(pred, ex.word_labels):
            gc = g.split("-")[-1] if g != "O" else "O"
            pc = p.split("-")[-1] if p != "O" else "O"
            confusion[(gc, pc)] += 1
    cats = ["question", "answer", "header", "O"]
    corner = "gold\\pred"  # no backslash inside an f-string expression (< 3.12)
    print(f"{corner:>10}" + "".join(f"{c:>10}" for c in cats))
    for g in cats:
        row = [confusion.get((g, p), 0) for p in cats]
        print(f"{g:>10}" + "".join(f"{v:>10}" for v in row))
    # exact-tag errors within correct category
    exact = Counter()
    for ex, pred in zip(eval_, preds):
        for p, g in zip(pred, ex.word_labels):
            if p != g and p.split("-")[-1] == g.split("-")[-1]:
                exact[(g, p)] += 1
    print("same-category tag confusions:", exact.most_common(8))


def _qa_answer(params, model_cfg, vocab, ex, max_answer_len):
    windows, _ = qa_windows(ex, vocab, model_cfg)
    return qa_predict_answer(params, model_cfg, vocab, windows, max_answer_len)


def qa_modes(ckpt_path, corpus_dir, steps, lr, seed, n_show=10):
    """QA error modes, plus two controls: the score on training questions
    (memorization gap) and whether the answer moves when the question asks
    for another key of the same document (is the question read at all)."""
    init = load_checkpoint(ckpt_path)
    vocab = Vocab(init.vocab_tokens)
    mc = init.model_config
    examples = read_qa_examples(f"{corpus_dir}/qa_docs.jsonl",
                                f"{corpus_dir}/qa_labels.jsonl")
    train, eval_ = split_train_eval(examples)
    cfg = TrainConfig(steps=steps, batch_size=8, lr=lr, seed=seed)
    params, report = finetune("qa", train, eval_, vocab, mc, cfg, init=init)
    print("report:", report)
    train_scores = [
        anls_single(_qa_answer(params, mc, vocab, ex, cfg.max_answer_len), ex.answers)
        for ex in train[:len(eval_)]
    ]
    print(f"score on {len(train_scores)} training questions: "
          f"{np.mean(train_scores):.4f}")
    key_phrases = {" ".join(phrase) for phrase, _ in FIELD_KEYS}
    shown = 0
    modes = Counter()
    swapped = unmoved = 0
    for ex in eval_:
        pred = _qa_answer(params, mc, vocab, ex, cfg.max_answer_len)
        score = anls_single(pred, ex.answers)
        cell_texts = {c.text for c in ex.doc.cells}
        if score == 1.0:
            modes["exact"] += 1
        elif pred in cell_texts:
            modes["another cell"] += 1
        elif score > 0:
            modes["partial"] += 1
        else:
            modes["miss"] += 1
        if score < 1.0 and shown < n_show:
            print(f"  Q {ex.question!r} gold {ex.answers[0]!r} pred {pred!r}")
            shown += 1
        asked = ex.question[len("what is the "):-len(" ?")]
        others = sorted(t for t in cell_texts if t in key_phrases and t != asked)
        if others:
            alt = dataclasses.replace(ex, question=f"what is the {others[0]} ?")
            swapped += 1
            unmoved += _qa_answer(params, mc, vocab, alt, cfg.max_answer_len) == pred
    print("modes:", dict(modes))
    print(f"answer unchanged when asked for another key of the same document: "
          f"{unmoved} of {swapped}")


def mvlm_by_role(ckpt_path, seed, n_docs=200):
    init = load_checkpoint(ckpt_path)
    vocab = Vocab(init.vocab_tokens)
    params = detached(init.parameters())  # forward only: no graph
    mc = init.model_config
    pre = PretrainConfig()
    synth = SynthConfig(seed=seed + 77)
    by_role = defaultdict(list)
    for i in range(n_docs):
        layout = _gen_form(synth, derive_rng(seed, "diag", i), f"g{i}")
        seq = encode_document(layout.doc, vocab, mc.max_len, mc.layout_mode)
        ex = make_pretrain_example(seq, pre, len(vocab), mc.num_areas,
                                   derive_rng(seed, "dm", i))
        # map serialized cell index -> role
        order = sorted(range(len(layout.doc.cells)),
                       key=lambda ci: (layout.doc.cells[ci].box[1],
                                       layout.doc.cells[ci].box[0], ci))
        role_of_cell = [layout.roles[ci] for ci in order]
        # one document: its rows are its positions 0 .. length - 1
        hidden = M.encode(params, mc, *stack_batch([ex]))
        logits = M.head_mlm(params, hidden).data
        logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True))
                               .sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
        for p in ex.masked_token_positions:
            cell = seq.cell_index[p]
            role = role_of_cell[cell]
            word_pos = 0  # position of token inside its cell
            q = p
            while q > 0 and seq.cell_index[q - 1] == cell:
                q -= 1
                word_pos += 1
            nll = -logp[p, seq.token_ids[p]]
            by_role[(role, min(word_pos, 3))].append(nll)
    for key in sorted(by_role):
        vals = by_role[key]
        print(f"  {key}: mean nll {np.mean(vals):.3f} over {len(vals)}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["tagging", "qa", "mvlm"])
    ap.add_argument("--ckpt", required=True)
    ap.add_argument("--corpus-dir",
                    help="gen-corpus output directory (tagging and qa modes)")
    ap.add_argument("--steps", type=int, default=600,
                    help="fine-tuning steps (the acceptance suite uses 600 "
                         "for tagging, 1500 for qa)")
    ap.add_argument("--lr", type=float, default=TrainConfig().lr)
    ap.add_argument("--seed", type=int, default=202)
    args = ap.parse_args()
    if args.mode != "mvlm" and not args.corpus_dir:
        ap.error(f"{args.mode} mode needs --corpus-dir")
    if args.mode == "tagging":
        tagging_confusion(args.ckpt, args.corpus_dir, args.steps, args.lr, args.seed)
    elif args.mode == "qa":
        qa_modes(args.ckpt, args.corpus_dir, args.steps, args.lr, args.seed)
    else:
        mvlm_by_role(args.ckpt, args.seed)

"""Post-run diagnostics from the models a run saved (README, "Quick start"):
tagging confusion and entity scores by category and QA failure modes of a
fine-tuned checkpoint, and MVLM loss of a pre-trained one by token role."""

import argparse
import dataclasses
from collections import Counter, defaultdict

import numpy as np

from cellformer import model as M
from cellformer.autograd import detached
from cellformer.checkpoint import load_checkpoint
from cellformer.dataio import read_qa_examples, read_tagging_examples
from cellformer.documents import encode_document, stack_batch
from cellformer.metrics import ENTITY_CATEGORIES, anls_single, decode_bies, word_f1
from cellformer.pretrain import derive_rng, make_pretrain_example
from cellformer.synth import FIELD_KEYS, SynthConfig, gen_form_dataset
from cellformer.taskdata import split_train_eval
from cellformer.tasks import predict_word_tags, qa_predict_answer, qa_windows
from cellformer.trainer import TrainConfig
from cellformer.vocab import Vocab

# the role of a form cell, named by the category of its words' tags
ROLE_OF_CATEGORY = {"question": "key", "answer": "value", "header": "header", "O": "other"}


def _category(tag):
    return tag.split("-")[-1]


def tagging_confusion(ckpt_path, corpus_dir):
    ckpt = load_checkpoint(ckpt_path)
    vocab, mc = Vocab(ckpt.vocab_tokens), ckpt.model_config
    _, eval_ = split_train_eval(read_tagging_examples(f"{corpus_dir}/form_docs.jsonl",
                                                      f"{corpus_dir}/form_labels.jsonl"))
    seqs = [encode_document(ex.doc, vocab, mc.max_len, mc.layout_mode) for ex in eval_]
    preds = predict_word_tags(ckpt.parameters(), mc, seqs, TrainConfig().batch_size)
    golds = [ex.word_labels for ex in eval_]
    p, r, f1 = word_f1([t for tags in preds for t in tags],
                       [t for tags in golds for t in tags])
    print(f"word-level precision {p:.4f} recall {r:.4f} f1 {f1:.4f}")

    pairs = [(g, p) for pred, gold in zip(preds, golds) for p, g in zip(pred, gold)]
    confusion = Counter((_category(g), _category(p)) for g, p in pairs)
    cats = [*ENTITY_CATEGORIES, "O"]
    corner = "gold\\pred"  # no backslash inside an f-string expression (< 3.12)
    print(f"{corner:>10}" + "".join(f"{c:>10}" for c in cats))
    for g in cats:
        print(f"{g:>10}" + "".join(f"{confusion[(g, c)]:>10}" for c in cats))
    exact = Counter((g, p) for g, p in pairs if p != g and _category(p) == _category(g))
    print("same-category tag confusions:", exact.most_common(8))

    # entity spans (document, category, first word, last word), matched exactly
    pred_spans = {(i, *s) for i, tags in enumerate(preds) for s in decode_bies(tags)}
    gold_spans = {(i, *s) for i, tags in enumerate(golds) for s in decode_bies(tags)}
    n_pred, n_gold, n_right = (Counter(s[1] for s in spans) for spans in
                               (pred_spans, gold_spans, pred_spans & gold_spans))
    print(f"{'entity':>10}{'gold':>7}{'pred':>7}{'right':>7}"
          f"{'precision':>11}{'recall':>8}{'f1':>8}")
    for cat in ENTITY_CATEGORIES:
        p = n_right[cat] / n_pred[cat] if n_pred[cat] else 0.0
        r = n_right[cat] / n_gold[cat] if n_gold[cat] else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        print(f"{cat:>10}{n_gold[cat]:>7}{n_pred[cat]:>7}{n_right[cat]:>7}"
              f"{p:>11.4f}{r:>8.4f}{f1:>8.4f}")


def _qa_answer(params, model_cfg, vocab, ex):
    windows, _ = qa_windows(ex, vocab, model_cfg)
    return qa_predict_answer(params, model_cfg, vocab, windows, TrainConfig.max_answer_len)


def qa_modes(ckpt_path, corpus_dir, n_show=10):
    """QA error modes, plus two controls: the score on training questions
    (memorization gap) and whether the answer moves when the question asks
    for another key of the same document (is the question read at all)."""
    ckpt = load_checkpoint(ckpt_path)
    params = ckpt.parameters()
    vocab, mc = Vocab(ckpt.vocab_tokens), ckpt.model_config
    train, eval_ = split_train_eval(read_qa_examples(f"{corpus_dir}/qa_docs.jsonl",
                                                     f"{corpus_dir}/qa_labels.jsonl"))
    preds = [_qa_answer(params, mc, vocab, ex) for ex in eval_]
    scores = [anls_single(pred, ex.answers) for pred, ex in zip(preds, eval_)]
    print(f"anls {np.mean(scores):.4f} over {len(eval_)} eval questions")
    train_scores = [anls_single(_qa_answer(params, mc, vocab, ex), ex.answers)
                    for ex in train[:len(eval_)]]
    print(f"score on {len(train_scores)} training questions: "
          f"{np.mean(train_scores):.4f}")
    key_phrases = {" ".join(phrase) for phrase, _ in FIELD_KEYS}
    shown = 0
    modes = Counter()
    swapped = unmoved = 0
    for ex, pred, score in zip(eval_, preds, scores):
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
            unmoved += _qa_answer(params, mc, vocab, alt) == pred
    print("modes:", dict(modes))
    print(f"answer unchanged when asked for another key of the same document: "
          f"{unmoved} of {swapped}")


def mvlm_by_role(ckpt_path, seed, n_docs=200):
    """Mean MVLM loss of the masked tokens of generated forms, by the role of
    the token's cell and the token's position in the cell (3 = 3 or later)."""
    ckpt = load_checkpoint(ckpt_path)
    vocab, mc = Vocab(ckpt.vocab_tokens), ckpt.model_config
    params = detached(ckpt.parameters())  # forward only: no graph
    by_role = defaultdict(list)
    for i, form in enumerate(gen_form_dataset(SynthConfig(seed=seed), n_docs)):
        seq = encode_document(form.doc, vocab, mc.max_len, mc.layout_mode)
        ex = make_pretrain_example(seq, len(vocab), mc.num_areas, derive_rng(seed, "dm", i))
        # one document: its rows are its positions 0 .. length - 1
        hidden = M.encode(params, mc, *stack_batch([ex]))
        logits = M.head_mlm(params, hidden).data
        logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True))
                               .sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
        for p in ex.masked_token_positions:
            role = ROLE_OF_CATEGORY[_category(form.word_labels[seq.word_index[p]])]
            # position of the token in its cell, whose tokens are contiguous
            word_pos = int(p - np.flatnonzero(seq.cell_index == seq.cell_index[p])[0])
            nll = -logp[p, seq.token_ids[p]]
            by_role[(role, min(word_pos, 3))].append(nll)
    for key in sorted(by_role):
        vals = by_role[key]
        print(f"  {key}: mean nll {np.mean(vals):.3f} over {len(vals)}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=["tagging", "qa", "mvlm"])
    ap.add_argument("--ckpt", required=True)
    ap.add_argument("--corpus-dir",
                    help="gen-corpus output directory (tagging and qa modes)")
    ap.add_argument("--seed", type=int, default=202,
                    help="mvlm mode: the seed of the generated forms and their masking")
    args = ap.parse_args()
    if args.mode != "mvlm" and not args.corpus_dir:
        ap.error(f"{args.mode} mode needs --corpus-dir")
    if args.mode == "tagging":
        tagging_confusion(args.ckpt, args.corpus_dir)
    elif args.mode == "qa":
        qa_modes(args.ckpt, args.corpus_dir)
    else:
        mvlm_by_role(args.ckpt, args.seed)

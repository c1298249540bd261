"""Fine-tuning adapters for the three downstream tasks: BIES word tagging,
extractive QA over [CLS] question [SEP] document [SEP] windows, and whole-
document classification.

Each adapter trains the full encoder plus a fresh task head with plain
cross-entropy, then evaluates its own metric (word-level F1 / thresholded
normalized-Levenshtein similarity / accuracy) on a held-out split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import autograd as ag
from . import model as M
from .autograd import PRECISIONS, Tensor
from .checkpoint import Checkpoint
from .dataio import DataError, read_cls_examples, read_qa_examples, read_tagging_examples
from .documents import TokenizedSequence, document_tokens, encode_document, stack_batch
from .metrics import TAG_LABELS, TAG_TO_ID, anls, extract_span, word_f1
from .model import MASK_NEG
from .optim import init_adam
from .pretrain import derive_rng
from .taskdata import QaExample
from .trainer import IndexSampler, TrainConfig, train
from .vocab import CLS_ID, SEP_ID, PAD_ID, Vocab, detokenize, tokenize_words

logger = logging.getLogger(__name__)

_TAG_NAMES = np.array(TAG_LABELS)


def prepare_finetune_params(
    model_cfg: M.ModelConfig,
    task: str,
    init: Optional[Checkpoint],
    seed: int,
    dtype=np.float64,
) -> dict[str, Tensor]:
    """Encoder weights from a checkpoint (or fresh), plus a fresh task head,
    all of `dtype`; pre-training heads are dropped."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {tuple(TASKS)}")
    fresh = M.init_parameters(model_cfg, derive_rng(seed, "init", task),
                              heads=(TASKS[task].head,), dtype=dtype)
    if init is None:
        return fresh
    encoder_names = set(M.parameter_shapes(model_cfg, heads=()))
    # copies at `dtype`: the checkpoint keeps its weights
    return {name: Tensor(init.arrays[name].astype(dtype), requires_grad=True)
            if name in encoder_names else fresh[name]
            for name in sorted(fresh)}


# -- tagging -------------------------------------------------------------------


def _encode_docs(docs, vocab, model_cfg) -> list[TokenizedSequence]:
    return [encode_document(d, vocab, model_cfg.max_len, model_cfg.layout_mode)
            for d in docs]


def first_subwords(seqs: list[TokenizedSequence]) -> np.ndarray:
    """True at each word's first subword among the packed rows of `seqs`
    (each one's first `length` positions, in order): a position whose word
    index is a word's (not -1) and differs from the position before."""
    word_index = np.concatenate([s.word_index[:s.length] for s in seqs])
    first = word_index >= 0
    first[1:] &= word_index[1:] != word_index[:-1]
    return first


def kept_words(seq: TokenizedSequence) -> int:
    """How many of its document's words a window holds: a window holds a
    prefix of them, up to the word of its last token."""
    return int(seq.word_index[seq.length - 2]) + 1


def tagging_items(examples, vocab: Vocab, model_cfg: M.ModelConfig):
    """(encoded document, tag ids of the words its window keeps) per
    tagging example."""
    seqs = _encode_docs([ex.doc for ex in examples], vocab, model_cfg)
    return [(s, np.array([TAG_TO_ID[t] for t in ex.word_labels[:kept_words(s)]],
                         dtype=np.int64))
            for s, ex in zip(seqs, examples)]


def tagging_loss(params, model_cfg: M.ModelConfig, items) -> Tensor:
    """Token cross-entropy at each word's first subword, the rows
    `predict_word_tags` reads; the head runs on those rows alone."""
    seqs = [s for s, _ in items]
    rows = M.encode(params, model_cfg, *stack_batch(seqs))
    tagged = ag.gather_rows(rows, np.nonzero(first_subwords(seqs)))
    return ag.softmax_cross_entropy(M.head_tag(params, tagged),
                                    np.concatenate([tags for _, tags in items]))


def _chunk_logits(params, model_cfg: M.ModelConfig, seqs, batch_size: int, head):
    """(chunk, logits of `head` at the chunk's packed rows) per chunk of
    `batch_size` sequences, with a forward that builds no graph. The rows
    are each sequence's first `length` positions, in order."""
    params = ag.detached(params)
    for lo in range(0, len(seqs), batch_size):
        chunk = seqs[lo:lo + batch_size]
        yield chunk, head(params, M.encode(params, model_cfg, *stack_batch(chunk))).data


def _head_logits(params, model_cfg: M.ModelConfig, seqs, batch_size: int,
                 head) -> list[np.ndarray]:
    """Logits of `head` at every real position, one block of rows per
    sequence, encoded `batch_size` at a time."""
    blocks = []
    for chunk, logits in _chunk_logits(params, model_cfg, seqs, batch_size, head):
        start = 0
        for s in chunk:
            blocks.append(logits[start:start + s.length])
            start += s.length
    return blocks


def predict_word_tags(
    params: dict[str, Tensor],
    model_cfg: M.ModelConfig,
    seqs: list[TokenizedSequence],
    batch_size: int,
) -> list[list[str]]:
    """Per-word predicted tags; words truncated out of the window get O.
    Each chunk of `batch_size` sequences is decoded with one argmax over
    its first-subword rows. A window holds a prefix of its document's
    words, so a document's tags are its run of those rows, then O."""
    out = []
    for chunk, logits in _chunk_logits(params, model_cfg, seqs, batch_size, M.head_tag):
        tags = _TAG_NAMES[np.argmax(logits[first_subwords(chunk)], axis=-1)].tolist()
        start = 0
        for s in chunk:
            kept = kept_words(s)
            out.append(tags[start:start + kept] + ["O"] * (s.n_words - kept))
            start += kept
    return out


def tagging_score(params, examples, vocab: Vocab, model_cfg: M.ModelConfig,
                  batch_size: int) -> dict:
    """Word-level precision, recall and F1 over every word of `examples`."""
    seqs = _encode_docs([ex.doc for ex in examples], vocab, model_cfg)
    preds = predict_word_tags(params, model_cfg, seqs, batch_size)
    precision, recall, f1 = word_f1([t for p in preds for t in p],
                                    [t for ex in examples for t in ex.word_labels])
    return {"precision": precision, "recall": recall, "f1": f1}


# -- extractive QA ---------------------------------------------------------------


@dataclass
class QaWindow:
    token_ids: np.ndarray
    boxes: np.ndarray
    length: int
    doc_mask: np.ndarray  # True at document-content positions
    doc_offset: int  # position of the first document token
    doc_start: int  # index into the document token stream
    window_token_ids: list[int]  # document token ids inside this window


def qa_windows(
    ex: QaExample, vocab: Vocab, model_cfg: M.ModelConfig
) -> tuple[list[QaWindow], list[int]]:
    """Stride-based windows of [CLS] question [SEP] doc-slice [SEP].

    Question tokens carry the empty box. The stride never exceeds half the
    room left beside the question, so every document token lies in some
    window and every span of up to room - stride + 1 tokens lies whole in
    one. Returns the windows and the word index of each document token (for
    span mapping)."""
    L = model_cfg.max_len
    q_ids, _ = tokenize_words(ex.question.split(), vocab)
    doc = document_tokens(ex.doc, vocab, model_cfg.layout_mode)
    doc_ids, doc_boxes = doc.ids.tolist(), doc.boxes
    room = L - 3 - len(q_ids)
    if room < 1:
        raise DataError(f"{ex.doc.doc_id}: question leaves no room for the document")
    stride = max(1, min(L // 4, room // 2))
    starts = [0]
    while starts[-1] + room < len(doc_ids):
        starts.append(starts[-1] + stride)

    offset = 2 + len(q_ids)  # [CLS] q... [SEP] -> first doc position
    windows = []
    for start in starts:
        chunk = doc_ids[start:start + room]
        length = offset + len(chunk) + 1
        ids = np.full(L, PAD_ID, dtype=np.int64)
        ids[:length] = [CLS_ID, *q_ids, SEP_ID, *chunk, SEP_ID]
        boxes = np.zeros((L, 4), dtype=np.int64)
        boxes[offset:length - 1] = doc_boxes[start:start + room]
        doc_mask = np.zeros(L, dtype=bool)
        doc_mask[offset:length - 1] = True
        windows.append(QaWindow(
            token_ids=ids, boxes=boxes, length=length, doc_mask=doc_mask,
            doc_offset=offset, doc_start=start, window_token_ids=chunk,
        ))
    return windows, doc.word_index.tolist()


def qa_items(examples, vocab: Vocab, model_cfg: M.ModelConfig):
    """(window, start, end) per QA example whose gold span lies whole in a
    window: the first such window, and the span's first and last token in
    window coordinates."""
    items = []
    for ex in examples:
        if ex.span is None:
            continue
        windows, doc_words = qa_windows(ex, vocab, model_cfg)
        # word indices rise along the stream: the span's tokens are one run
        first, stop = np.searchsorted(doc_words, (ex.span[0], ex.span[1] + 1)).tolist()
        for win in windows:
            if win.doc_start <= first and stop <= win.doc_start + len(win.window_token_ids):
                offset = win.doc_offset - win.doc_start
                items.append((win, offset + first, offset + stop - 1))
                break
    if not items:
        raise DataError(f"no training answer fits a window of max_len "
                        f"{model_cfg.max_len} beside its question")
    if len(items) < len(examples):
        logger.warning("qa: %d training examples have no window covering "
                       "their span", len(examples) - len(items))
    return items


def qa_loss(params, model_cfg: M.ModelConfig, items) -> Tensor:
    """Mean of the start and end cross-entropies, each softmax taken over
    the window's document positions only."""
    wins = [w for w, _, _ in items]
    token_ids, boxes, mask = stack_batch(wins)
    rows = M.encode(params, model_cfg, token_ids, boxes, mask)
    # the softmax runs over a window's positions, so the span logits go back
    # to the padded layout [B, L, 2], read as [B, 2, L]: start and end rows
    span = ag.scatter_rows(M.head_span(params, rows), np.nonzero(mask), mask.shape + (2,))
    doc_bias = Tensor(np.where(np.stack([w.doc_mask for w in wins]), 0.0, MASK_NEG)
                      .astype(span.data.dtype)[:, None])
    targets = np.array([(s, e) for _, s, e in items])
    return ag.softmax_cross_entropy(span.swapaxes(1, 2) + doc_bias, targets)


def qa_predict_answer(
    params: dict[str, Tensor],
    model_cfg: M.ModelConfig,
    vocab: Vocab,
    windows: list[QaWindow],
    max_answer_len: int,
) -> str:
    """Best-scoring valid span across all windows, detokenized."""
    best_score = -np.inf
    best_text = ""
    blocks = _head_logits(params, model_cfg, windows, 1, M.head_span)
    for win, span_logits in zip(windows, blocks):
        start_logits, end_logits = span_logits[:, 0], span_logits[:, 1]
        try:
            s, e = extract_span(start_logits, end_logits, max_answer_len,
                                valid=win.doc_mask[:win.length])
        except ValueError:
            continue
        score = float(start_logits[s] + end_logits[e])
        if score > best_score:
            best_score = score
            rel = slice(s - win.doc_offset, e - win.doc_offset + 1)
            best_text = detokenize(
                vocab.token(t) for t in win.window_token_ids[rel]
            )
    return best_text


def qa_score(params, examples, vocab: Vocab, model_cfg: M.ModelConfig,
             batch_size: int) -> dict:
    """ANLS of the best answer to each question, asked one at a time."""
    texts = [
        qa_predict_answer(params, model_cfg, vocab, qa_windows(ex, vocab, model_cfg)[0],
                          TrainConfig.max_answer_len)
        for ex in examples
    ]
    return {"anls": anls(texts, [ex.answers for ex in examples])}


# -- classification ---------------------------------------------------------------


def classification_items(examples, vocab: Vocab, model_cfg: M.ModelConfig):
    """(encoded document, class id) per classification example."""
    seqs = _encode_docs([ex.doc for ex in examples], vocab, model_cfg)
    return [(s, ex.label) for s, ex in zip(seqs, examples)]


def classification_loss(params, model_cfg: M.ModelConfig, items) -> Tensor:
    """Cross-entropy of the document class read at [CLS], each document's
    first packed row, the row `classification_score` reads; the head runs
    on those rows alone."""
    token_ids, boxes, mask = stack_batch([s for s, _ in items])
    rows = M.encode(params, model_cfg, token_ids, boxes, mask)
    lengths = mask.sum(axis=1)
    cls_rows = ag.gather_rows(rows, (np.cumsum(lengths) - lengths,))
    return ag.softmax_cross_entropy(M.head_cls(params, cls_rows),
                                    np.array([label for _, label in items]))


def classification_score(params, examples, vocab: Vocab, model_cfg: M.ModelConfig,
                         batch_size: int) -> dict:
    """Share of documents whose class is the top logit at [CLS]."""
    seqs = _encode_docs([ex.doc for ex in examples], vocab, model_cfg)
    blocks = _head_logits(params, model_cfg, seqs, batch_size, M.head_cls)
    top = np.argmax([b[0] for b in blocks], axis=-1)
    return {"accuracy": int((top == [ex.label for ex in examples]).sum()) / len(examples)}


# -- the shared fine-tuning driver -------------------------------------------------


class Task(NamedTuple):
    """A fine-tuning task: its output head and how it reads, trains and scores."""

    head: str
    read: Callable  # (documents path, labels path) -> examples
    items: Callable  # (examples, vocab, model config) -> training items
    loss: Callable  # (params, model config, items) -> scalar loss
    score: Callable  # (params, examples, vocab, model config, batch size) -> report


TASKS = {
    "tagging": Task("tag", read_tagging_examples, tagging_items, tagging_loss,
                    tagging_score),
    "qa": Task("span", read_qa_examples, qa_items, qa_loss, qa_score),
    "classification": Task("cls", read_cls_examples, classification_items,
                           classification_loss, classification_score),
}


def finetune(
    task: str,
    train_examples: list,
    eval_examples: list,
    vocab: Vocab,
    model_cfg: M.ModelConfig,
    train_cfg: TrainConfig,
    init: Optional[Checkpoint] = None,
    metrics_log=None,
) -> tuple[dict[str, Tensor], dict]:
    """Train the task head + encoder on the task loss; report the task
    metric on the eval split. Deterministic given the seed."""
    if not train_examples or not eval_examples:
        raise ValueError("empty training or evaluation dataset")
    params = prepare_finetune_params(model_cfg, task, init, train_cfg.seed,
                                     PRECISIONS[train_cfg.precision])
    spec = TASKS[task]
    items = spec.items(train_examples, vocab, model_cfg)
    sampler = IndexSampler(len(items), train_cfg.seed)

    def step_loss(step):
        batch = [items[i] for i, _ in sampler.batch(step, train_cfg.batch_size)]
        loss = spec.loss(params, model_cfg, batch)
        return loss, {"loss": loss.item()}

    for _ in train(params, init_adam(params), train_cfg, step_loss,
                   range(train_cfg.steps), metrics_log):
        pass

    return params, spec.score(params, eval_examples, vocab, model_cfg, train_cfg.batch_size)

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
from typing import Callable, NamedTuple, Optional, Sequence

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
from .pretrain import IGNORE_LABEL, derive_rng, labeled_rows
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


def first_subwords(word_index: np.ndarray) -> np.ndarray:
    """True at each word's first subword: a position whose word index is
    a word's (not -1) and differs from the position before. A word's pieces
    are adjacent, so this holds over a batch's packed rows as well."""
    first = word_index >= 0
    first[1:] &= word_index[1:] != word_index[:-1]
    return first


def tagging_token_labels(seq: TokenizedSequence, word_labels: Sequence[str]) -> np.ndarray:
    """Tag id at each word's first subword, ignore sentinel elsewhere; the
    reader has checked that `word_labels` holds one tag per word."""
    labels = np.full(len(seq.token_ids), IGNORE_LABEL, dtype=np.int64)
    first = first_subwords(seq.word_index)
    labels[first] = [TAG_TO_ID[word_labels[w]] for w in seq.word_index[first].tolist()]
    return labels


def tagging_items(examples, vocab: Vocab, model_cfg: M.ModelConfig):
    """(encoded document, token labels) per tagging example."""
    seqs = _encode_docs([ex.doc for ex in examples], vocab, model_cfg)
    return [(s, tagging_token_labels(s, ex.word_labels))
            for s, ex in zip(seqs, examples)]


def tagging_loss(params, model_cfg: M.ModelConfig, items) -> Tensor:
    """Token cross-entropy at each word's first subword; the head runs on
    those rows alone."""
    token_ids, boxes, mask = stack_batch([s for s, _ in items])
    rows = M.encode(params, model_cfg, token_ids, boxes, mask)
    tagged, targets = labeled_rows(rows, np.stack([labels for _, labels in items])[mask])
    return ag.softmax_cross_entropy(M.head_tag(params, tagged), targets)


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
        first = first_subwords(np.concatenate([s.word_index[:s.length] for s in chunk]))
        tags = _TAG_NAMES[np.argmax(logits[first], axis=-1)].tolist()
        start = 0
        for s in chunk:
            kept = int(s.word_index[s.length - 2]) + 1  # the word of the last token
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


def qa_token_span(doc_words: list[int], span: tuple[int, int]) -> tuple[int, int]:
    """Word span -> inclusive token span in the document stream."""
    ws, we = span
    starts = [i for i, w in enumerate(doc_words) if w == ws]
    ends = [i for i, w in enumerate(doc_words) if w == we]
    if not starts or not ends:
        raise DataError(f"span {span} outside the document's {max(doc_words, default=-1) + 1} words")
    return starts[0], ends[-1]


def qa_training_window(
    ex: QaExample, vocab: Vocab, model_cfg: M.ModelConfig
) -> Optional[tuple[QaWindow, int, int]]:
    """First window containing the whole gold span, with its start/end
    positions in window coordinates; None when no window fits it."""
    if ex.span is None:
        return None
    windows, doc_words = qa_windows(ex, vocab, model_cfg)
    ts, te = qa_token_span(doc_words, ex.span)
    for win in windows:
        lo = win.doc_start
        hi = win.doc_start + len(win.window_token_ids)
        if lo <= ts and te < hi:
            return win, win.doc_offset + ts - lo, win.doc_offset + te - lo
    return None


def qa_items(examples, vocab: Vocab, model_cfg: M.ModelConfig):
    """(window, start, end) per QA example whose gold span fits a window;
    see `qa_training_window`."""
    items = []
    for ex in examples:
        built = qa_training_window(ex, vocab, model_cfg)
        if built is not None:
            items.append(built)
    if len(items) < len(examples):
        logger.warning("qa: %d training examples have no window covering "
                       "their span", len(examples) - len(items))
    if not items:
        raise ValueError("no trainable QA examples")
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
    """Cross-entropy of the document class read at [CLS]; the head runs on
    the [CLS] rows alone."""
    token_ids, boxes, mask = stack_batch([s for s, _ in items])
    rows = M.encode(params, model_cfg, token_ids, boxes, mask)
    labels = np.full(mask.shape, IGNORE_LABEL)
    labels[:, 0] = [label for _, label in items]
    cls_rows, targets = labeled_rows(rows, labels[mask])
    return ag.softmax_cross_entropy(M.head_cls(params, cls_rows), targets)


def classification_score(params, examples, vocab: Vocab, model_cfg: M.ModelConfig,
                         batch_size: int) -> dict:
    """Share of documents whose class is the top logit at [CLS]."""
    seqs = _encode_docs([ex.doc for ex in examples], vocab, model_cfg)
    blocks = _head_logits(params, model_cfg, seqs, batch_size, M.head_cls)
    logits = np.stack([b[0] for b in blocks])
    gold = np.array([ex.label for ex in examples])
    correct = int((np.argmax(logits, axis=-1) == gold).sum())
    return {"accuracy": correct / len(examples)}


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
    if not train_examples:
        raise ValueError("empty training dataset")
    if task == "classification":
        for ex in [*train_examples, *eval_examples]:
            if not 0 <= ex.label < model_cfg.num_doc_classes:
                raise DataError(f"{ex.doc.doc_id}: class label {ex.label} outside "
                                f"[0, {model_cfg.num_doc_classes})")
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

    report = evaluate(task, params, eval_examples, vocab, model_cfg, train_cfg)
    return params, report


def evaluate(
    task: str,
    params: dict[str, Tensor],
    eval_examples: list,
    vocab: Vocab,
    model_cfg: M.ModelConfig,
    train_cfg: TrainConfig,
) -> dict:
    """The task's metric over a labeled example list."""
    if not eval_examples:
        raise ValueError("empty evaluation dataset")
    return TASKS[task].score(params, eval_examples, vocab, model_cfg,
                             train_cfg.batch_size)

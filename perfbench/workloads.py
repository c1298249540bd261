"""The benchmark's three workloads over the cellformer package.

Each workload reads the files `gen.py` wrote, sets itself up the way a caller
of the package would, and then runs operations one at a time (closed loop,
one caller): a training step for `pretrain`, a batch of 16 documents for
`tag_batch`, a single request for `qa_online`. Every operation's output is
checked; a failed check marks the operation failed.

In a traced round the workload's layer boundaries are patched by name in the
module that calls them (`patches()`); the program code itself is unchanged.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from cellformer import autograd as ag
from cellformer import checkpoint, dataio, documents, metrics, tasks, trainer
from cellformer import model as M
from cellformer.optim import init_adam
from cellformer.pretrain import PretrainConfig
from cellformer.trainer import PRECISIONS, Pretrainer, TrainConfig
from cellformer.vocab import Vocab, detokenize, tokenize_to_ids

EPISODE_STEPS = 16  # one pretrain round: a full schedule of this many steps
WARMUP_STEPS = 1
TAG_BATCH = 16  # the training batch size
QA_WARMUP_REQUESTS = 8
ROUND_SECONDS = 2.0  # length of one tag_batch / qa_online round
ALONE_SAMPLE = 16  # tag_batch documents re-run alone after the timed window
MAX_ANSWER_LEN = TrainConfig().max_answer_len
TAG_SET = frozenset(metrics.TAG_LABELS)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _encode_counts(args, kwargs, result):
    mask = np.asarray(args[4] if len(args) > 4 else kwargs["attn_mask"], dtype=bool)
    return {"real_tokens": int(mask.sum()), "positions": mask.size, "encode_calls": 1}


def _corruption_counts(args, kwargs, result):
    return {"masked_tokens": len(result.masked_token_positions),
            "hidden_cells": len(result.selected_cell_indices)}


def _window_counts(args, kwargs, result):
    return {"windows": len(result[0])}


class Pretrain:
    """`Pretrainer.run` at the default model, train and objective configs,
    MVLM+CPC on. Each round restores the initial weights and runs the same
    EPISODE_STEPS-step schedule, so every round must repeat the first
    bit for bit."""

    name = "pretrain"
    root = "trainer.step"
    tail_pct = 90

    def __init__(self, seed: int):
        self.reference = None  # the first round's per-step records
        self.step_tokens = None
        self.counts = None  # exact corruption counts of the first traced round
        self.count_mismatch = 0

    def patches(self):
        return [
            (dataio, "read_cell_jsonl", "dataio.read", None),
            (trainer, "encode_document", "documents.encode", None),
            (M, "init_parameters", "model.init", None),
            (trainer, "make_pretrain_example", "pretrain.corrupt", _corruption_counts),
            (M, "encode", "model.encode", _encode_counts),
            (M, "head_mlm", "model.heads", None),
            (M, "head_cpc", "model.heads", None),
            (trainer, "pretrain_loss", "pretrain.loss", None),
            (trainer, "backward", "autograd.backward", None),
            (trainer, "adam_step", "optim.adam", None),
        ]

    def setup(self, inputs: Path, tracer) -> None:
        docs = dataio.read_cell_jsonl(inputs / "docs.jsonl")
        vocab = Vocab.from_lines((inputs / "vocab.txt").read_text(encoding="utf-8"))
        self.trainer = Pretrainer(
            docs, vocab, M.ModelConfig(vocab_size=len(vocab)),
            TrainConfig(steps=EPISODE_STEPS), PretrainConfig(), use_cpc=True,
        )
        self.initial = {k: v.data.copy() for k, v in self.trainer.params.items()}
        with _span(tracer, "setup.warmup"):
            self.trainer.run(stop_after=WARMUP_STEPS)
        self._restore()

    def _restore(self) -> None:
        for name, p in self.trainer.params.items():
            p.data = self.initial[name].copy()
            p.grad = None
        self.trainer.adam = init_adam(self.trainer.params)

    def round(self, first_op: int, tracer) -> list[tuple[float, int, bool]]:
        self._restore()
        if self.step_tokens is None:
            tr = self.trainer
            self.step_tokens = [
                sum(tr.train_seqs[i].length
                    for i, _ in tr.sampler.batch(step, tr.train_cfg.batch_size))
                for step in range(EPISODE_STEPS)
            ]
        clock = _StepClock(tracer, first_op, self.root)
        clock.start()
        history = self.trainer.run(metrics_log=clock)
        clock.finish()

        if self.reference is None:
            self.reference = history
        ops = []
        for step, (record, seconds) in enumerate(zip(history, np.diff(clock.marks))):
            ok = (math.isfinite(record["mvlm_loss"]) and math.isfinite(record["cpc_loss"])
                  and step < len(self.reference) and record == self.reference[step])
            ops.append((float(seconds), self.step_tokens[step], ok))
        if len(history) != EPISODE_STEPS:
            ops.append((0.0, 0, False))
        if tracer is not None:
            ops_run = range(first_op, first_op + len(history))
            counts = {key: sum(v for (op, k), v in tracer.counts.items()
                               if k == key and op in ops_run)
                      for key in ("masked_tokens", "hidden_cells")}
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                self.count_mismatch += 1
        return ops

    def final_checks(self) -> tuple[int, int]:
        return 0, self.count_mismatch

    def outputs(self) -> dict:
        out = {"history": self.reference}
        if self.counts is not None:
            out["counts"] = self.counts
        return out

    def report(self) -> dict:
        return {"train_loss_end": (self.reference[-1]["mvlm_loss"], "nats")}


class _StepClock:
    """Metrics-log stand-in: `Pretrainer.run` writes one record per step,
    right after the optimizer update, so the write times mark the step
    boundaries. Traced, it also opens one root span per step."""

    def __init__(self, tracer, first_op: int, root: str):
        self.tracer = tracer
        self.op = first_op
        self.root = root
        self.marks: list[float] = []

    def _open(self):
        self.tracer.op = self.op
        self.span = self.tracer.open(self.root)

    def start(self) -> None:
        if self.tracer is not None:
            self._open()
        self.marks.append(time.perf_counter())

    def write(self, record: dict) -> None:
        self.marks.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.close(self.span)
            self.op += 1
            self._open()

    def finish(self) -> None:
        if self.tracer is not None:
            self.tracer.discard(self.span)  # opened after the last step
            self.tracer.op = None


class _RequestLoop:
    """Shared closed loop of tag_batch and qa_online: one operation at a
    time for ROUND_SECONDS, each checked as it completes."""

    root = "bench.op"

    def round(self, first_op: int, tracer) -> list[tuple[float, int, bool]]:
        ops = []
        end = time.perf_counter() + ROUND_SECONDS
        i = first_op
        while True:
            if tracer is not None:
                tracer.op = i
                span = tracer.open(self.root)
            t0 = time.perf_counter()
            out = self.op(i)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
            ops.append((t1 - t0, self.units_per_op, self.check(i, out)))
            i += 1
            if t1 >= end:
                break
        if tracer is not None:
            tracer.op = None
        return ops

    def _load_model(self, inputs: Path) -> None:
        ckpt = checkpoint.load_checkpoint(inputs / "model.ckpt")
        ag.set_dtype(PRECISIONS[ckpt.precision])
        self.vocab = Vocab(ckpt.vocab_tokens)
        self.cfg = ckpt.model_config
        self.params = ckpt.parameters()

    def report(self) -> dict:
        return {}


class TagBatch(_RequestLoop):
    """Batches of 16 raw form documents: `documents.encode_document` per
    document, then `tasks.predict_word_tags`, weights loaded once."""

    name = "tag_batch"
    tail_pct = 90
    units_per_op = TAG_BATCH

    def __init__(self, seed: int):
        self.seed = seed
        self.first: dict[int, list] = {}  # batch index -> tags of its first run

    def patches(self):
        return [
            (dataio, "read_tagging_examples", "dataio.read", None),
            (checkpoint, "load_checkpoint", "checkpoint.load", None),
            (documents, "encode_document", "documents.encode", None),
            (tasks, "predict_word_tags", "tasks.decode", None),
            (M, "encode", "model.encode", _encode_counts),
            (M, "head_tag", "model.heads", None),
        ]

    def setup(self, inputs: Path, tracer) -> None:
        examples = dataio.read_tagging_examples(inputs / "docs.jsonl",
                                                inputs / "labels.jsonl")
        self._load_model(inputs)
        self.batches = [examples[lo:lo + TAG_BATCH]
                        for lo in range(0, len(examples), TAG_BATCH)]
        with _span(tracer, "setup.warmup"):
            self._tag(self.batches[0])

    def _tag(self, batch) -> list[list[str]]:
        seqs = [documents.encode_document(ex.doc, self.vocab, self.cfg.max_len,
                                          self.cfg.layout_mode)
                for ex in batch]
        return tasks.predict_word_tags(self.params, self.cfg, seqs, TAG_BATCH)

    def op(self, i: int):
        return self._tag(self.batches[i % len(self.batches)])

    def check(self, i: int, tags) -> bool:
        k = i % len(self.batches)
        if k in self.first:
            return tags == self.first[k]
        self.first[k] = tags
        batch = self.batches[k]
        return len(tags) == len(batch) and all(
            len(t) == len(ex.word_labels) and TAG_SET.issuperset(t)
            for t, ex in zip(tags, batch)
        )

    def final_checks(self) -> tuple[int, int]:
        """Re-run a seeded sample of documents alone; their tags must match
        the tags they got inside their batch."""
        done = sorted(self.first)
        pool = [(k, j) for k in done for j in range(len(self.batches[k]))]
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(pool), size=min(ALONE_SAMPLE, len(pool)), replace=False)
        failed = 0
        for p in sorted(picks.tolist()):
            k, j = pool[p]
            alone = self._tag([self.batches[k][j]])[0]
            failed += alone != self.first[k][j]
        return len(picks), failed

    def outputs(self) -> dict:
        if len(self.first) < len(self.batches):
            return {}
        return {"tags": [self.first[k] for k in range(len(self.batches))]}


class QaOnline(_RequestLoop):
    """One QA request at a time: `tasks.qa_windows`, then
    `tasks.qa_predict_answer`, then `metrics.anls_single`."""

    name = "qa_online"
    tail_pct = 99
    units_per_op = 1

    def __init__(self, seed: int):
        self.first: dict[int, tuple] = {}  # example index -> first answer

    def patches(self):
        return [
            (dataio, "read_qa_examples", "dataio.read", None),
            (checkpoint, "load_checkpoint", "checkpoint.load", None),
            (tasks, "qa_windows", "tasks.windows", _window_counts),
            (tasks, "qa_predict_answer", "tasks.decode", None),
            (M, "encode", "model.encode", _encode_counts),
            (M, "head_span", "model.heads", None),
            (tasks, "extract_span", "metrics.extract_span", None),
            (metrics, "anls_single", "metrics.anls", None),
        ]

    def setup(self, inputs: Path, tracer) -> None:
        self.examples = dataio.read_qa_examples(inputs / "docs.jsonl",
                                                inputs / "labels.jsonl")
        self._load_model(inputs)
        with _span(tracer, "setup.warmup"):
            for i in range(QA_WARMUP_REQUESTS):
                self.op(i)

    def op(self, i: int):
        ex = self.examples[i % len(self.examples)]
        windows, _ = tasks.qa_windows(ex, self.vocab, self.cfg)
        text = tasks.qa_predict_answer(self.params, self.cfg, self.vocab, windows,
                                       MAX_ANSWER_LEN)
        return text, metrics.anls_single(text, ex.answers)

    def check(self, i: int, out) -> bool:
        """Repeats must match the first answer; first answers are validated
        after the timed window, keeping that work out of it."""
        return out == self.first.setdefault(i % len(self.examples), out)

    def _is_document_run(self, ex, text: str) -> bool:
        """`text` is a contiguous run of at most MAX_ANSWER_LEN document
        tokens, in serialized reading order."""
        cells = documents.serialize_cells(documents.normalize_document(ex.doc))
        pieces = [self.vocab.token(t) for c in cells for w in c.words
                  for t in tokenize_to_ids(w, self.vocab)]
        return bool(text) and any(
            detokenize(pieces[lo:lo + n]) == text
            for lo in range(len(pieces))
            for n in range(1, min(MAX_ANSWER_LEN, len(pieces) - lo) + 1)
        )

    def final_checks(self) -> tuple[int, int]:
        failed = sum(not (0.0 <= score <= 1.0 and self._is_document_run(self.examples[k], text))
                     for k, (text, score) in self.first.items())
        return 0, failed

    def outputs(self) -> dict:
        if len(self.first) < len(self.examples):
            return {}
        return {"answers": [self.first[k] for k in range(len(self.examples))]}


WORKLOADS = {w.name: w for w in (Pretrain, TagBatch, QaOnline)}

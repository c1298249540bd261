"""Training loop machinery: learning-rate schedule, stateless batch
ordering, and the joint MVLM+CPC pre-training driver.

Everything is derived from (seed, step), never from consumed global RNG
state, so a run resumed from a checkpoint replays the exact batch and
corruption sequence of an uninterrupted run.
"""

from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import autograd as ag
from . import model as M
from .autograd import PRECISIONS, Tensor, backward, zero_grads
from .checkpoint import Checkpoint
from .documents import RawDocument, encode_document, stack_batch
from .optim import adam_step, init_adam
from .pretrain import (
    PretrainConfig, PretrainExample, derive_rng, labeled_rows, make_pretrain_example,
    pretrain_loss,
)
from .vocab import Vocab

logger = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """What both trainers read: the step count, batch size and learning-rate
    schedule, the seed of every derived stream and the float precision.
    `max_answer_len`, the widest QA span decoded (in document tokens), is a
    constant, not a setting."""

    steps: int = 3000
    batch_size: int = 16
    # desk-scale peak rate, picked by held-out MVLM loss after 4000 steps:
    # 3e-4 plateaus near 3.5 nats, 2e-3 and 5e-3 both reach about 0.95
    lr: float = 2e-3
    warmup_frac: float = 0.05
    seed: int = 7
    precision: str = "float32"
    max_answer_len: ClassVar[int] = 6

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(PRECISIONS)}")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup over warmup_frac of the run, then linear decay to 0."""
    warmup = max(1, int(round(cfg.warmup_frac * cfg.steps)))
    if step < warmup:
        return cfg.lr * (step + 1) / warmup
    return cfg.lr * max(0, cfg.steps - step) / max(1, cfg.steps - warmup)


class IndexSampler:
    """Deterministic shuffled epochs addressed by global step, stateless
    apart from a permutation cache."""

    def __init__(self, n: int, seed: int):
        if n <= 0:
            raise ValueError("empty dataset")
        self.n = n
        self.seed = seed
        self._perms: dict[int, np.ndarray] = {}

    def _perm(self, epoch: int) -> np.ndarray:
        if epoch not in self._perms:
            self._perms[epoch] = derive_rng(self.seed, "order", epoch).permutation(self.n)
            if len(self._perms) > 8:  # keep the cache from growing with long runs
                for key in sorted(self._perms)[:-4]:
                    del self._perms[key]
        return self._perms[epoch]

    def batch(self, step: int, batch_size: int) -> list[tuple[int, int]]:
        """(example index, epoch) pairs for one step."""
        out = []
        for j in range(batch_size):
            g = step * batch_size + j
            epoch, pos = divmod(g, self.n)
            out.append((int(self._perm(epoch)[pos]), epoch))
        return out


def pretrain_batch_loss(
    params: dict[str, Tensor],
    model_cfg: M.ModelConfig,
    examples: Sequence[PretrainExample],
    use_cpc: bool,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Tensor, dict]:
    """Joint MVLM (+ CPC) loss and its metrics over a batch of corrupted
    examples; `rng` draws the dropout masks of a training forward."""
    token_ids, boxes, mask = stack_batch(examples)
    rows = M.encode(params, model_cfg, token_ids, boxes, mask, rng=rng)
    # each head runs on the rows that carry its labels alone
    masked, mvlm_labels = labeled_rows(
        rows, np.stack([e.mvlm_labels for e in examples])[mask])
    mlm_logits = M.head_mlm(params, masked)
    if use_cpc:
        cells, cpc_labels = labeled_rows(
            rows, np.stack([e.cpc_labels for e in examples])[mask])
        cpc_logits = M.head_cpc(params, cells)
    else:
        cpc_logits, cpc_labels = None, None
    return pretrain_loss(mlm_logits, cpc_logits, mvlm_labels, cpc_labels)


class Pretrainer:
    """Joint masked-token + cell-position pre-training over an encoded
    corpus."""

    def __init__(
        self,
        docs: list[RawDocument],
        vocab: Vocab,
        model_cfg: M.ModelConfig,
        train_cfg: TrainConfig,
        pre_cfg: PretrainConfig,
        use_cpc: bool = True,
        resume: Optional[Checkpoint] = None,
    ):
        heads = M.PRETRAIN_HEADS if use_cpc else ("mlm",)
        if resume is not None:  # checked before any document is encoded
            if resume.model_config != model_cfg:
                raise ValueError(f"checkpoint model config {resume.model_config} "
                                 f"does not match the requested {model_cfg}")
            if resume.vocab_tokens != vocab.id_to_token:
                raise ValueError("checkpoint vocabulary differs from the training one")
            if resume.precision != train_cfg.precision:
                raise ValueError(f"cannot resume a {resume.precision} checkpoint at "
                                 f"{train_cfg.precision}; precision must match exactly")
            found = M.heads_present(resume.arrays)
            if found != heads:
                raise ValueError(f"cannot resume a checkpoint with heads {found} with "
                                 f"cpc {'on' if use_cpc else 'off'}, which trains {heads}")
        self.vocab = vocab
        self.model_cfg = model_cfg
        self.train_cfg = train_cfg
        self.pre_cfg = pre_cfg
        self.use_cpc = use_cpc

        logger.info("encoding %d documents (%s-level layout)", len(docs),
                    model_cfg.layout_mode)
        encoded = [
            encode_document(d, vocab, model_cfg.max_len, model_cfg.layout_mode)
            for d in docs
        ]
        k = pre_cfg.heldout_every
        self.heldout = [s for i, s in enumerate(encoded) if k and i % k == k - 1]
        self.train_seqs = [s for i, s in enumerate(encoded) if not (k and i % k == k - 1)]

        self.sampler = IndexSampler(len(self.train_seqs), train_cfg.seed)
        if resume is None:
            init_rng = derive_rng(train_cfg.seed, "init")
            self.params = M.init_parameters(model_cfg, init_rng, heads=heads,
                                            dtype=PRECISIONS[train_cfg.precision])
            self.adam = init_adam(self.params)
            self.start_step = 0
            self.rng = derive_rng(train_cfg.seed, "trainer")
        else:
            # copies: resuming leaves the checkpoint as it is
            self.params = resume.parameters()
            self.adam = (init_adam(self.params) if resume.adam is None
                         else copy.deepcopy(resume.adam))
            self.start_step = resume.step
            self.rng = np.random.Generator(np.random.PCG64())
            self.rng.bit_generator.state = resume.rng_state

    def _batch_examples(self, step: int):
        picks = self.sampler.batch(step, self.train_cfg.batch_size)
        examples = []
        for idx, epoch in picks:
            seq = self.train_seqs[idx]
            rng = derive_rng(self.train_cfg.seed, seq.doc_id, epoch)
            examples.append(
                make_pretrain_example(seq, self.pre_cfg, len(self.vocab),
                                      self.model_cfg.num_areas, rng)
            )
        return examples

    def evaluate_heldout(self) -> dict:
        """Deterministic corruption (epoch -1) over the held-out documents."""
        if not self.heldout:
            return {}
        params = ag.detached(self.params)
        losses, correct, labeled = [], 0, 0
        bs = self.train_cfg.batch_size
        for lo in range(0, len(self.heldout), bs):
            chunk = self.heldout[lo:lo + bs]
            examples = [
                make_pretrain_example(
                    s, self.pre_cfg, len(self.vocab), self.model_cfg.num_areas,
                    derive_rng(self.train_cfg.seed, s.doc_id, -1),
                )
                for s in chunk
            ]
            _, metrics = pretrain_batch_loss(params, self.model_cfg, examples,
                                             self.use_cpc)
            losses.append(metrics["mvlm_loss"] * len(chunk))
            if self.use_cpc:
                correct += metrics["cpc_correct"]
                labeled += metrics["cpc_labeled"]
        out = {"eval_mvlm_loss": sum(losses) / len(self.heldout)}
        if self.use_cpc:
            out["eval_cpc_acc"] = correct / labeled if labeled else 0.0
        return out

    def run(self, metrics_log=None, eval_log=None, stop_after=None) -> list[dict]:
        """Train from start_step to cfg.steps; returns the per-step records.
        Each call starts again at start_step, on the weights and optimizer
        state the trainer holds now.

        `stop_after` simulates an interrupted run: the schedule still spans
        cfg.steps but the loop stops early (checkpoint and resume later)."""
        history = []
        t0 = time.time()
        last = self.train_cfg.steps if stop_after is None \
            else min(stop_after, self.train_cfg.steps)
        for step in range(self.start_step, last):
            examples = self._batch_examples(step)
            lr = lr_at(step, self.train_cfg)
            loss, metrics = pretrain_batch_loss(
                self.params, self.model_cfg, examples, self.use_cpc,
                rng=derive_rng(self.train_cfg.seed, "dropout", step),
            )
            zero_grads(self.params)
            backward(loss)
            del loss  # the spent graph goes before the next step builds its own
            adam_step(self.params, self.adam, lr)

            record = {"step": step, "lr": lr, "mvlm_loss": metrics["mvlm_loss"]}
            if self.use_cpc:
                record["cpc_loss"] = metrics["cpc_loss"]
                record["cpc_acc"] = metrics["cpc_acc"]
            history.append(record)
            if metrics_log is not None:
                metrics_log.write(record)

            if self.pre_cfg.eval_every and (step + 1) % self.pre_cfg.eval_every == 0:
                ev = self.evaluate_heldout()
                ev["step"] = step
                if eval_log is not None:
                    eval_log.write(ev)
                logger.info(
                    "step %d/%d loss=%.4f %s (%.1fs)", step + 1,
                    self.train_cfg.steps, metrics["mvlm_loss"],
                    " ".join(f"{k}={v:.4f}" for k, v in ev.items() if k != "step"),
                    time.time() - t0,
                )
        return history

    def to_checkpoint(self, step: Optional[int] = None) -> Checkpoint:
        """A snapshot over copies: training on leaves it as it is."""
        return Checkpoint(
            model_config=self.model_cfg,
            arrays={k: v.data.copy() for k, v in self.params.items()},
            vocab_tokens=list(self.vocab.id_to_token),
            step=self.train_cfg.steps if step is None else step,
            rng_state=self.rng.bit_generator.state,
            adam=copy.deepcopy(self.adam),
            precision=self.train_cfg.precision,
        )

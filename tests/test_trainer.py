"""Training loop: schedule shape, batch ordering, loss movement,
determinism, and checkpoint resume."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from cellformer import model as M
from cellformer import trainer as trainer_module
from cellformer.checkpoint import load_checkpoint, save_checkpoint
from cellformer.documents import stack_batch
from cellformer.gradcheck import REL_TOL, finite_difference_errors
from cellformer.model import ModelConfig
from cellformer.pretrain import PretrainConfig, derive_rng, pretrain_loss
from cellformer.synth import SynthConfig, gen_pretrain_doc, vocab_words
from cellformer.trainer import (
    IndexSampler, Pretrainer, TrainConfig, lr_at, pretrain_batch_loss,
)
from cellformer.vocab import Vocab, build_vocab


def tiny_setup(n_docs=24):
    synth = SynthConfig(seed=13, min_pairs=3, max_pairs=5)
    docs = [gen_pretrain_doc(synth, derive_rng(13, "tr", i), f"tr{i:03d}")
            for i in range(n_docs)]
    vocab = build_vocab(
        [w for d in docs for c in d.cells for w in c.text.split()]
        + vocab_words(synth), 512,
    )
    model_cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                            hidden_d=16, ffn_d=32, max_len=64)
    return docs, vocab, model_cfg


def test_lr_schedule_warmup_then_linear_decay():
    cfg = TrainConfig(steps=100, lr=1.0)  # warms up over 5% of the steps
    values = [lr_at(s, cfg) for s in range(100)]
    assert values[0] == pytest.approx(0.2)
    assert values[4] == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(values[4:], values[5:]))
    assert values[-1] == pytest.approx(1.0 / 95)
    assert lr_at(100, cfg) == 0.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(precision="bf16")


def test_index_sampler_covers_each_epoch():
    sampler = IndexSampler(10, seed=1)
    picks = [sampler.batch(s, 5) for s in range(4)]
    first_epoch = [i for batch in picks[:2] for i, e in batch]
    assert sorted(first_epoch) == list(range(10))
    assert all(e == 0 for batch in picks[:2] for _, e in batch)
    assert all(e == 1 for batch in picks[2:] for _, e in batch)
    # different epochs shuffle differently (overwhelmingly likely)
    second_epoch = [i for batch in picks[2:] for i, e in batch]
    assert first_epoch != second_epoch


def test_pretrainer_loss_decreases_and_is_deterministic():
    docs, vocab, model_cfg = tiny_setup()
    train_cfg = TrainConfig(steps=30, batch_size=4, lr=3e-3, seed=5,
                            precision="float64")
    pre_cfg = PretrainConfig(eval_every=0, heldout_every=6)
    runs = []
    for _ in range(2):
        trainer = Pretrainer(docs, vocab, model_cfg, train_cfg, pre_cfg)
        runs.append(trainer.run())
    assert runs[0] == runs[1]  # bit-identical histories
    first = runs[0][0]["mvlm_loss"]
    last = np.mean([r["mvlm_loss"] for r in runs[0][-5:]])
    assert last < first
    assert {"step", "lr", "mvlm_loss", "cpc_loss", "cpc_acc"} == set(runs[0][0])


def test_masked_row_loss_equals_the_full_vocabulary_projection():
    docs, vocab, model_cfg = tiny_setup(8)
    train_cfg = TrainConfig(steps=4, batch_size=4, seed=5, precision="float64")
    trainer = Pretrainer(docs, vocab, model_cfg, train_cfg,
                         PretrainConfig(eval_every=0, heldout_every=0))
    examples = trainer._batch_examples(0)
    params = trainer.params
    loss, metrics = pretrain_batch_loss(params, model_cfg, examples, True)

    token_ids, boxes, mask = stack_batch(examples)
    rows = M.encode(params, model_cfg, token_ids, boxes, mask)
    full, full_metrics = pretrain_loss(
        M.head_mlm(params, rows), M.head_cpc(params, rows),
        np.stack([e.mvlm_labels for e in examples])[mask],
        np.stack([e.cpc_labels for e in examples])[mask],
    )
    assert abs(loss.item() - full.item()) <= 1e-12 * abs(full.item())
    assert metrics["mvlm_loss"] > 0
    # the CPC head runs on the labelled cells' rows alone
    assert metrics["cpc_labeled"] > 0
    for key in ("cpc_correct", "cpc_labeled", "cpc_acc"):
        assert metrics[key] == full_metrics[key]


def test_pretrain_loss_gradient_matches_fd_over_in_prefix_padding():
    docs, _, _ = tiny_setup(6)
    # a vocabulary of the documents' own words keeps the probes few
    vocab = build_vocab([w for d in docs for c in d.cells for w in c.text.split()], 256)
    model_cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                            hidden_d=4, ffn_d=8, max_len=64)
    train_cfg = TrainConfig(steps=1, batch_size=3, seed=5, precision="float64")
    trainer = Pretrainer(docs, vocab, model_cfg, train_cfg,
                         PretrainConfig(eval_every=0, heldout_every=0))
    examples = trainer._batch_examples(0)
    _, _, mask = stack_batch(examples)
    # the batch holds documents of unequal length, so a shorter one has pad
    # positions inside the prefix the encoder attends over
    prefix = mask[:, :np.flatnonzero(mask.any(axis=0))[-1] + 1]
    assert not prefix.all()
    _, metrics = pretrain_batch_loss(trainer.params, model_cfg, examples, True)
    assert metrics["cpc_labeled"] > 0

    errors = finite_difference_errors(
        lambda p: pretrain_batch_loss(p, model_cfg, examples, True)[0], trainer.params)
    assert all(err <= REL_TOL for err, _ in errors.values()), errors


def test_cpc_off_removes_component_and_head(tmp_path):
    docs, vocab, model_cfg = tiny_setup(12)
    train_cfg = TrainConfig(steps=5, batch_size=4, seed=5, precision="float64")
    trainer = Pretrainer(docs, vocab, model_cfg, train_cfg,
                         PretrainConfig(eval_every=0), use_cpc=False)
    history = trainer.run()
    assert all(set(r) == {"step", "lr", "mvlm_loss"} for r in history)
    ck = trainer.to_checkpoint()
    assert "cpc_w" not in ck.arrays and "cpc_b" not in ck.arrays
    path = tmp_path / "nocpc.ckpt"
    save_checkpoint(path, ck)
    assert "cpc_w" not in load_checkpoint(path).arrays


def test_resume_matches_uninterrupted_run(tmp_path):
    docs, vocab, model_cfg = tiny_setup(12)
    pre_cfg = PretrainConfig(eval_every=0)

    full_cfg = TrainConfig(steps=30, batch_size=4, lr=3e-3, seed=9,
                           precision="float64")
    full = Pretrainer(docs, vocab, model_cfg, full_cfg, pre_cfg).run()

    # same config, interrupted at step 20
    short = Pretrainer(docs, vocab, model_cfg, full_cfg, pre_cfg)
    short_hist = short.run(stop_after=20)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, short.to_checkpoint(step=20))

    resumed = Pretrainer(docs, vocab, model_cfg, full_cfg, pre_cfg,
                         resume=load_checkpoint(path))
    resumed_hist = resumed.run()

    # schedule depends only on (step, cfg), so the tail replays exactly
    assert short_hist == full[:20]
    assert resumed_hist == full[20:]


def test_resume_requires_matching_precision(tmp_path):
    docs, vocab, model_cfg = tiny_setup(12)
    cfg64 = TrainConfig(steps=3, batch_size=4, seed=9, precision="float64")
    t = Pretrainer(docs, vocab, model_cfg, cfg64, PretrainConfig(eval_every=0))
    t.run()
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, t.to_checkpoint(step=3))
    cfg32 = TrainConfig(steps=6, batch_size=4, seed=9, precision="float32")
    with pytest.raises(ValueError, match="precision"):
        Pretrainer(docs, vocab, model_cfg, cfg32, PretrainConfig(eval_every=0),
                   resume=load_checkpoint(path))


def test_heldout_eval_reports_cpc_accuracy():
    docs, vocab, model_cfg = tiny_setup(24)
    train_cfg = TrainConfig(steps=3, batch_size=4, seed=5, precision="float64")
    trainer = Pretrainer(docs, vocab, model_cfg, train_cfg,
                         PretrainConfig(eval_every=0, heldout_every=4))
    trainer.run()
    ev = trainer.evaluate_heldout()
    assert set(ev) == {"eval_mvlm_loss", "eval_cpc_acc"}
    assert 0.0 <= ev["eval_cpc_acc"] <= 1.0
    assert ev["eval_mvlm_loss"] > 0.0


def test_heldout_eval_without_graph_matches_graph_forward(graph_free_vs_graph):
    docs, vocab, model_cfg = tiny_setup(24)
    train_cfg = TrainConfig(steps=3, batch_size=4, seed=5, precision="float64")
    trainer = Pretrainer(docs, vocab, model_cfg, train_cfg,
                         PretrainConfig(eval_every=0, heldout_every=3))
    trainer.run()
    for p in trainer.params.values():
        p.grad = None
    ev = graph_free_vs_graph(trainer.evaluate_heldout)
    assert set(ev) == {"eval_mvlm_loss", "eval_cpc_acc"}
    assert all(p.grad is None and p.requires_grad
               for p in trainer.params.values())


def test_run_drops_each_steps_graph_before_the_next_forward(monkeypatch):
    docs, vocab, model_cfg = tiny_setup(24)
    train_cfg = TrainConfig(steps=4, batch_size=4, seed=5)
    trainer = Pretrainer(docs, vocab, model_cfg, train_cfg,
                         PretrainConfig(eval_every=2, heldout_every=6))
    losses = []
    real = trainer_module.pretrain_batch_loss

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in losses), "a spent graph is still alive"
        loss, metrics = real(*args, **kwargs)
        losses.append(weakref.ref(loss))
        return loss, metrics

    monkeypatch.setattr(trainer_module, "pretrain_batch_loss", spy)
    gc.disable()  # freed by reference counting alone, not by a later collection
    try:
        trainer.run()
    finally:
        gc.enable()
    assert len(losses) == 4 + 2 and all(ref() is None for ref in losses)


def test_resume_leaves_the_checkpoint_unchanged():
    docs, vocab, model_cfg = tiny_setup(12)
    cfg = TrainConfig(steps=6, batch_size=4, seed=9, precision="float64")
    pre_cfg = PretrainConfig(eval_every=0)
    short = Pretrainer(docs, vocab, model_cfg, cfg, pre_cfg)
    short.run(stop_after=3)
    ck = short.to_checkpoint(step=3)
    arrays = {k: v.copy() for k, v in ck.arrays.items()}
    first = {k: v.copy() for k, v in ck.adam.first_moment.items()}
    second = {k: v.copy() for k, v in ck.adam.second_moment.items()}

    resumed = Pretrainer(docs, vocab, model_cfg, cfg, pre_cfg, resume=ck)
    assert len(resumed.run()) == 3
    assert ck.adam.step_count == 3
    for saved, now in ((arrays, ck.arrays), (first, ck.adam.first_moment),
                       (second, ck.adam.second_moment)):
        assert saved.keys() == now.keys()
        assert all(np.array_equal(saved[k], now[k]) for k in saved)
    # the trainer that made the checkpoint still holds the step-3 weights
    assert all(np.array_equal(arrays[k], p.data) for k, p in short.params.items())


def test_checkpoint_is_a_snapshot_that_training_on_leaves_alone(tmp_path):
    docs, vocab, model_cfg = tiny_setup(12)
    cfg = TrainConfig(steps=6, batch_size=4, seed=9, precision="float64")
    pre_cfg = PretrainConfig(eval_every=0)
    t = Pretrainer(docs, vocab, model_cfg, cfg, pre_cfg)
    t.run(stop_after=3)
    ck = t.to_checkpoint(step=3)
    save_checkpoint(tmp_path / "before.ckpt", ck)
    t.run()  # trains on from the step-3 weights
    save_checkpoint(tmp_path / "after.ckpt", ck)
    assert (tmp_path / "after.ckpt").read_bytes() == \
        (tmp_path / "before.ckpt").read_bytes()
    assert ck.adam.step_count == 3
    assert t.adam.step_count == 9
    # every stream is derived from the seed, so no RNG state is saved
    assert ck.rng_state is None and ck.precision == "float64"


@pytest.mark.parametrize("saved_cpc", [True, False], ids=["cpc_to_off", "mlm_to_on"])
def test_resume_requires_matching_heads(saved_cpc):
    docs, vocab, model_cfg = tiny_setup(12)
    cfg = TrainConfig(steps=6, batch_size=4, seed=9, precision="float64")
    pre_cfg = PretrainConfig(eval_every=0)
    t = Pretrainer(docs, vocab, model_cfg, cfg, pre_cfg, use_cpc=saved_cpc)
    t.run(stop_after=3)
    with pytest.raises(ValueError, match="heads"):
        Pretrainer(docs, vocab, model_cfg, cfg, pre_cfg,
                   use_cpc=not saved_cpc, resume=t.to_checkpoint(step=3))


@pytest.mark.parametrize("mismatch", ["model", "vocab"])
def test_resume_requires_matching_model_config_and_vocabulary(mismatch):
    docs, vocab, model_cfg = tiny_setup(12)
    cfg = TrainConfig(steps=6, batch_size=4, seed=9, precision="float64")
    t = Pretrainer(docs, vocab, model_cfg, cfg, PretrainConfig(eval_every=0))
    t.run(stop_after=3)
    if mismatch == "model":
        model_cfg = dataclasses.replace(model_cfg, num_layers=2)
    else:  # the same tokens in another order
        tokens = list(vocab.id_to_token)
        tokens[5], tokens[6] = tokens[6], tokens[5]
        vocab = Vocab(tokens)
    with pytest.raises(ValueError, match="model config" if mismatch == "model"
                       else "vocabulary"):
        Pretrainer(docs, vocab, model_cfg, cfg, PretrainConfig(eval_every=0),
                   resume=t.to_checkpoint(step=3))

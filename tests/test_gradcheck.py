"""The finite-difference harness itself: it must pass on the real model and
fail when a backward rule is deliberately corrupted."""

import time
from collections import Counter

import numpy as np

import cellformer.autograd
from cellformer import autograd as ag
from cellformer import gradcheck, tasks, trainer
from cellformer.autograd import Tensor
from cellformer.gradcheck import REL_TOL, finite_difference_errors, run_grad_check


def test_run_grad_check_passes_within_budget(monkeypatch):
    # the analytic pass of each check (the one on trainable parameters)
    # must run through the loss function the trainers themselves call
    analytic = Counter()

    def counting(name, loss_fn):
        def wrapped(params, *args, **kwargs):
            analytic[name] += all(p.requires_grad for p in params.values())
            return loss_fn(params, *args, **kwargs)
        return wrapped

    assert gradcheck.pretrain_batch_loss is trainer.pretrain_batch_loss
    monkeypatch.setattr(gradcheck, "pretrain_batch_loss",
                        counting("pretrain", trainer.pretrain_batch_loss))
    for task, spec in tasks.TASKS.items():
        monkeypatch.setitem(tasks.TASKS, task,
                            spec._replace(loss=counting(task, spec.loss)))

    t0 = time.time()
    passed, report = run_grad_check(seed=0)
    elapsed = time.time() - t0
    assert analytic == {"pretrain": 1, "tagging": 1, "qa": 1, "classification": 1}
    assert passed, {k: v for k, v in report.items() if v[0] > REL_TOL}
    assert elapsed < 120.0
    # every parameter group named by any loss appears exactly once
    assert len(report) == len(set(report))
    assert "word_emb" in report and "layer1.f2_w" in report
    assert all(n > 0 for _, n in report.values())


def test_corrupted_backward_rule_is_caught(monkeypatch):
    true_gelu = cellformer.autograd.gelu

    def corrupted(x):
        out = true_gelu(x)
        orig = out._backward
        out._backward = lambda g: tuple(
            None if p is None else p * 1.01 for p in orig(g)
        )
        return out

    monkeypatch.setattr(cellformer.autograd, "gelu", corrupted)
    passed, report = run_grad_check(seed=0)
    assert not passed
    # caught for the right reason: the error flows back through every FFN
    # activation into the groups upstream of it, while groups past the last
    # activation never see the corrupted rule and keep exact gradients
    for group in ("layer0.f1_w", "layer0.v_w", "layer1.f1_w", "word_emb"):
        assert report[group][0] > REL_TOL, group
    for group in ("layer1.f2_w", "layer1.f2_b", "layer1.ln2_g", "layer1.ln2_b",
                  "mlm_bias", "cpc_w", "tag_w", "span_w", "cls_w"):
        assert report[group][0] <= REL_TOL, group


def test_phantom_gradient_is_caught(weighted_sum):
    ag.set_dtype(np.float64)
    w = Tensor(np.ones(3), requires_grad=True)
    dead = Tensor(np.ones(3), requires_grad=True)

    def loss_fn(p):
        # `dead` never enters the loss; fake a gradient for it afterwards
        return weighted_sum(p["w"], p["w"])

    report = finite_difference_errors(loss_fn, {"w": w, "dead": dead}, seed=0)
    assert report["w"][0] <= REL_TOL
    assert report["dead"][0] <= REL_TOL  # zero analytic, zero fd: consistent

    class LyingTensor(Tensor):
        pass

    lying = Tensor(np.ones(3), requires_grad=True)

    def lying_loss(p):
        out = weighted_sum(p["w"], p["w"])
        p["lying"].grad = np.ones(3)  # claims a gradient it cannot have
        return out

    report = finite_difference_errors(lying_loss, {"w": w, "lying": lying}, seed=0)
    assert report["lying"][0] > REL_TOL

"""Central finite-difference verification of every backward rule, composed
through the real model: the loss functions the trainers run (the joint
pre-training loss and each fine-tuning loss) on a tiny two-layer
configuration.

The differencing path never touches backward(); it only re-runs the forward
closure with perturbed parameters, so it stays an independent oracle.
"""

from __future__ import annotations

import logging
from functools import partial

import numpy as np

from . import autograd as ag
from . import model as M
from .autograd import Tensor, backward, zero_grads
from .documents import encode_document
from .pretrain import derive_rng, make_pretrain_example
from .synth import SynthConfig, gen_cls_dataset, gen_form_dataset, gen_qa_dataset, vocab_words
from .tasks import TASKS
from .trainer import pretrain_batch_loss
from .vocab import build_vocab

logger = logging.getLogger(__name__)

REL_TOL = 1e-4
FD_STEP = 1e-5
FD_FLOOR = 1e-8  # elements with |fd| below this are excluded from rel error
NOISE_MARGIN = 64  # headroom over one-ulp rounding per loss evaluation
ZERO_SAMPLE = 8  # random probes into parameters whose grad is entirely zero


def finite_difference_errors(
    loss_fn, params: dict[str, Tensor], seed: int = 0
) -> dict[str, tuple[float, int]]:
    """Max relative error and probe count per parameter group.

    `loss_fn(params)` builds the scalar loss from the dict it is handed: the
    analytic pass hands it `params` and fills their `.grad`; the probes hand
    it graph-free stand-ins that share their arrays, so no `requires_grad`
    flag of the caller's tensors ever changes, and every probed element is
    put back even when `loss_fn` raises.

    Probes every element with a nonzero analytic gradient; parameters whose
    analytic gradient is identically zero get a random sample of probes to
    catch missing backward rules. A nonzero analytic gradient where the
    finite difference vanishes counts as a full error.

    Differencing two nearly equal losses floors the measurable |fd| at about
    eps*|loss|/(2h); below NOISE_MARGIN times that, an element's difference
    is rounding noise, so such elements are held to the absolute noise bound
    instead of the relative tolerance (a corrupted rule still fails at the
    plentiful larger-|fd| elements).
    """
    zero_grads(params)
    loss = loss_fn(params)
    backward(loss)
    analytic = {
        name: (np.zeros(p.shape) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }
    noise_abs = (
        NOISE_MARGIN * np.finfo(np.float64).eps
        * max(1.0, abs(loss.item())) / (2 * FD_STEP)
    )
    rel_floor = max(FD_FLOOR, noise_abs / REL_TOL)

    # the probes only read loss values, so they run on detached stand-ins:
    # the forward builds no graph, which makes each probe about a quarter
    # cheaper, and the stand-ins share the arrays perturbed below
    probe_params = ag.detached(params)
    report: dict[str, tuple[float, int]] = {}
    for name in sorted(params):
        p = params[name]
        g = analytic[name].reshape(-1)
        flat = p.data.reshape(-1)
        nz = np.nonzero(g)[0]
        if len(nz) == 0:
            rng = derive_rng(seed, "fd-zero-probe", name)
            nz = rng.choice(len(flat), size=min(ZERO_SAMPLE, len(flat)),
                            replace=False)
        worst = 0.0
        for i in nz:
            old = flat[i]
            try:
                flat[i] = old + FD_STEP
                f_plus = loss_fn(probe_params).item()
                flat[i] = old - FD_STEP
                f_minus = loss_fn(probe_params).item()
            finally:
                flat[i] = old  # a failing loss leaves no perturbed weight
            fd = (f_plus - f_minus) / (2 * FD_STEP)
            if abs(fd) > rel_floor:
                worst = max(worst, abs(g[i] - fd) / abs(fd))
            elif abs(fd) > FD_FLOOR:
                if abs(g[i] - fd) > noise_abs:
                    worst = max(worst, 1.0)  # beyond rounding noise
            elif abs(g[i]) > 1e-6:
                worst = max(worst, 1.0)  # phantom gradient
        report[name] = (worst, len(nz))
    return report


def _tiny_setup(seed: int):
    synth_cfg = SynthConfig(seed=seed, num_docs=2, min_pairs=3, max_pairs=4)
    # the corpus vocabulary size keeps every generator word whole, so a
    # question fits beside its answer span in a max_len window
    vocab = build_vocab(vocab_words(synth_cfg), synth_cfg.vocab_max_size)
    model_cfg = M.ModelConfig(
        vocab_size=len(vocab), num_layers=2, num_heads=2, hidden_d=16,
        ffn_d=32, max_len=24,
    )
    return synth_cfg, vocab, model_cfg


def _check_loss(name, loss_fn, params, report, seed):
    errors = finite_difference_errors(loss_fn, params, seed=seed)
    for group, (err, n) in errors.items():
        prev = report.get(group, (0.0, 0))
        report[group] = (max(prev[0], err), prev[1] + n)
    logger.info("grad-check %s: max rel err %.2e",
                name, max(e for e, _ in errors.values()))


def run_grad_check(seed: int = 0) -> tuple[bool, dict[str, tuple[float, int]]]:
    """FD-check the trainers' own losses on the tiny model: the joint
    pre-training loss and the three fine-tuning losses, each from fresh
    float64 parameters; returns (passed, per-group report)."""
    synth_cfg, vocab, model_cfg = _tiny_setup(seed)
    report: dict[str, tuple[float, int]] = {}

    tag_data = gen_form_dataset(synth_cfg, 2)
    seqs = [encode_document(ex.doc, vocab, model_cfg.max_len) for ex in tag_data]
    examples = [
        make_pretrain_example(s, len(vocab), model_cfg.num_areas, derive_rng(seed, s.doc_id, 0))
        for s in seqs
    ]
    params = M.init_parameters(model_cfg, derive_rng(seed, "p0"), heads=("mlm", "cpc"))

    def pretrain_fn(params):
        return pretrain_batch_loss(params, model_cfg, examples, True)[0]

    _check_loss("mvlm+cpc", pretrain_fn, params, report, seed)

    task_data = {
        "tagging": tag_data,
        "qa": gen_qa_dataset(synth_cfg, 2),
        "classification": gen_cls_dataset(synth_cfg, 3),
    }
    for k, (task, spec) in enumerate(TASKS.items(), start=1):
        items = spec.items(task_data[task], vocab, model_cfg)
        params = M.init_parameters(model_cfg, derive_rng(seed, f"p{k}"),
                                   heads=(spec.head,))
        _check_loss(task, partial(spec.loss, model_cfg=model_cfg, items=items),
                    params, report, seed)

    passed = all(err <= REL_TOL for err, _ in report.values())
    return passed, report

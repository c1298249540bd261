"""Task adapters: label mapping, QA windows, and small capacity/control
checks of the fine-tuning driver."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from cellformer import autograd as ag
from cellformer import model as M
from cellformer.autograd import Tensor, backward
from cellformer.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cellformer.dataio import DataError
from cellformer.documents import encode_document, stack_batch
from cellformer.model import MASK_NEG, ModelConfig
from cellformer.pretrain import IGNORE_LABEL, PretrainConfig, derive_rng, make_pretrain_example
from cellformer.metrics import TAG_TO_ID
from cellformer.synth import SynthConfig, gen_cls_dataset, gen_form_dataset, gen_qa_dataset, vocab_words
from cellformer.taskdata import split_train_eval
from cellformer.tasks import (
    TASKS, _head_logits, classification_items, classification_loss, evaluate, finetune,
    predict_word_tags, prepare_finetune_params, qa_items, qa_loss, qa_predict_answer,
    qa_token_span, qa_training_window, qa_windows, tagging_items, tagging_loss,
    tagging_token_labels,
)
from cellformer.trainer import Pretrainer, TrainConfig, pretrain_batch_loss
from cellformer.vocab import CLS_ID, SEP_ID, build_vocab, tokenize_to_ids

SYNTH = SynthConfig(seed=21, min_pairs=3, max_pairs=5)
TASK_DATA = {"tagging": gen_form_dataset, "qa": gen_qa_dataset,
             "classification": gen_cls_dataset}


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(vocab_words(SYNTH), 512)


@pytest.fixture(scope="module")
def small(vocab):
    """A 24-token window, short enough for documents to need several."""
    return ModelConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                       hidden_d=16, ffn_d=32, max_len=24)


@pytest.fixture(scope="module")
def model_cfg(vocab):
    return ModelConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                       hidden_d=16, ffn_d=32, max_len=64)


def test_split_train_eval_is_every_fifth():
    train, eval_ = split_train_eval(list(range(10)))
    assert eval_ == [4, 9]
    assert train == [0, 1, 2, 3, 5, 6, 7, 8]


def test_tagging_labels_only_on_first_subwords(vocab, model_cfg):
    ex = gen_form_dataset(SYNTH, 2)[0]
    seq = encode_document(ex.doc, vocab, model_cfg.max_len)
    labels = tagging_token_labels(seq, ex.word_labels)
    first_positions = {}
    for pos, w in enumerate(seq.word_index.tolist()):
        if w >= 0 and w not in first_positions:
            first_positions[w] = pos
    for pos, lab in enumerate(labels.tolist()):
        if pos in first_positions.values():
            w = seq.word_index[pos]
            assert lab == TAG_TO_ID[ex.word_labels[w]]
        else:
            assert lab == IGNORE_LABEL


# -- losses on the encoder's packed rows ---------------------------------------


def _padded(params, model_cfg, seqs):
    """The encoder's rows scattered back to [B, L, d], zero at pad."""
    token_ids, boxes, mask = stack_batch(seqs)
    rows = M.encode(params, model_cfg, token_ids, boxes, mask)
    return ag.scatter_rows(rows, np.nonzero(mask), mask.shape + (model_cfg.hidden_d,))


def test_tagging_loss_equals_the_padded_formulation(vocab, model_cfg):
    params = prepare_finetune_params(model_cfg, "tagging", None, seed=3)
    items = tagging_items(gen_form_dataset(SYNTH, 4), vocab, model_cfg)
    hidden = _padded(params, model_cfg, [s for s, _ in items])
    padded = ag.softmax_cross_entropy(M.head_tag(params, hidden),
                                      np.stack([labels for _, labels in items]))
    loss = tagging_loss(params, model_cfg, items)
    assert abs(loss.item() - padded.item()) <= 1e-12 * abs(padded.item())


def test_qa_loss_equals_the_padded_formulation(vocab, model_cfg):
    params = prepare_finetune_params(model_cfg, "qa", None, seed=3)
    items = qa_items(gen_qa_dataset(SYNTH, 4), vocab, model_cfg)
    hidden = _padded(params, model_cfg, [w for w, _, _ in items])
    span = M.head_span(params, hidden).data
    doc_bias = np.where(np.stack([w.doc_mask for w, _, _ in items]), 0.0, MASK_NEG)
    start, end = (
        ag.softmax_cross_entropy(Tensor(span[..., k] + doc_bias),
                                 np.array([it[1 + k] for it in items])).item()
        for k in (0, 1)
    )
    padded = 0.5 * (start + end)
    loss = qa_loss(params, model_cfg, items)
    assert abs(loss.item() - padded) <= 1e-12 * abs(padded)


def test_classification_logits_read_only_the_cls_row(vocab, model_cfg, monkeypatch):
    params = prepare_finetune_params(model_cfg, "classification", None, seed=3)
    items = classification_items(gen_cls_dataset(SYNTH, 4), vocab, model_cfg)
    seqs = [s for s, _ in items]

    def run():
        logits = [b[0] for b in _head_logits(params, model_cfg, seqs, 4, M.head_cls)]
        return classification_loss(params, model_cfg, items).item(), np.stack(logits)

    real_encode = M.encode

    def shuffled(*args, **kwargs):
        # every row but each document's first ([CLS]) goes to another place
        rows = real_encode(*args, **kwargs).data
        mask = args[4]
        cls_rows = np.r_[0, np.cumsum(mask.sum(axis=1))[:-1]]
        others = np.setdiff1d(np.arange(len(rows)), cls_rows)
        moved = rows.copy()
        moved[others] = rows[np.random.default_rng(0).permutation(others)]
        assert not np.array_equal(moved, rows)
        return Tensor(moved)

    loss, logits = run()
    monkeypatch.setattr(M, "encode", shuffled)
    shuffled_loss, shuffled_logits = run()
    assert shuffled_loss == loss
    assert np.array_equal(shuffled_logits, logits)


def test_qa_windows_layout(vocab, model_cfg):
    ex = gen_qa_dataset(SYNTH, 2)[0]
    windows, doc_words = qa_windows(ex, vocab, model_cfg)
    assert windows
    win = windows[0]
    assert win.token_ids[0] == CLS_ID
    q_len = win.doc_offset - 2
    assert win.token_ids[1 + q_len] == SEP_ID
    assert win.token_ids[win.length - 1] == SEP_ID
    # question region carries the empty box
    assert np.all(win.boxes[1:1 + q_len] == 0)
    # document region boxes are real
    assert win.boxes[win.doc_mask].max() > 0
    ts, te = qa_token_span(doc_words, ex.span)
    assert 0 <= ts <= te < len(doc_words)


def test_qa_multiple_windows_cover_long_documents(vocab, small):
    big = SynthConfig(seed=21, min_pairs=9, max_pairs=10)
    ex = gen_qa_dataset(big, 2)[0]
    windows, doc_words = qa_windows(ex, vocab, small)
    assert len(windows) > 1
    covered = set()
    for w in windows:
        covered.update(range(w.doc_start, w.doc_start + len(w.window_token_ids)))
    assert covered == set(range(len(doc_words)))


@pytest.mark.parametrize("room", [1, 2, 3, 5, 6, 7, 11])
def test_qa_windows_cover_when_question_leaves_little_room(vocab, small, room):
    # room below max_len // 4 used to leave gaps between windows
    ex = gen_qa_dataset(SYNTH, 2)[0]
    filler = ["what", "is", "the"] * 7
    n_q = small.max_len - 3 - room  # every filler word is one token
    ex = dataclasses.replace(ex, question=" ".join(filler[:n_q - 1] + ["?"]))
    windows, doc_words = qa_windows(ex, vocab, small)
    assert windows[0].doc_offset == 2 + n_q
    assert max(len(w.window_token_ids) for w in windows) == room

    covered = set()
    for w in windows:
        covered.update(range(w.doc_start, w.doc_start + len(w.window_token_ids)))
    assert covered == set(range(len(doc_words)))
    # overlapping windows: any span up to half the room lies whole in one
    width = (room + 1) // 2
    for lo in range(len(doc_words) - width + 1):
        assert any(w.doc_start <= lo and lo + width
                   <= w.doc_start + len(w.window_token_ids) for w in windows), lo


def test_qa_training_window_fits_span_when_question_leaves_little_room(vocab, small):
    room = 5  # below max_len // 4 = 6; every gold answer is <= 3 tokens
    n_q = small.max_len - 3 - room
    for ex in gen_qa_dataset(SYNTH, 6):
        q = dataclasses.replace(ex, question=" ".join(["what"] * (n_q - 1) + ["?"]))
        built = qa_training_window(q, vocab, small)
        assert built is not None, ex.doc.doc_id
        win, start, end = built
        assert win.doc_mask[start] and win.doc_mask[end]
        answer_ids = [i for w in ex.answers[0].split()
                      for i in tokenize_to_ids(w, vocab)]
        assert win.token_ids[start:end + 1].tolist() == answer_ids


def test_qa_training_window_contains_span(vocab, model_cfg):
    for ex in gen_qa_dataset(SYNTH, 6):
        built = qa_training_window(ex, vocab, model_cfg)
        assert built is not None
        win, start, end = built
        assert win.doc_mask[start] and win.doc_mask[end]
        ids = win.token_ids[start:end + 1]
        answer_ids = []
        for w in ex.answers[0].split():
            answer_ids.extend(tokenize_to_ids(w, vocab))
        assert ids.tolist() == answer_ids


def test_prepare_params_heads(model_cfg):
    p = prepare_finetune_params(model_cfg, "tagging", None, seed=0)
    assert "tag_w" in p and "mlm_bias" not in p and "cpc_w" not in p
    with pytest.raises(ValueError, match="unknown task"):
        prepare_finetune_params(model_cfg, "nope", None, seed=0)


def test_finetune_memorizes_single_tagging_example(vocab, model_cfg):
    ex = gen_form_dataset(SYNTH, 2)[0]
    cfg = TrainConfig(steps=150, batch_size=1, lr=3e-3, seed=1, precision="float64")
    params, report = finetune("tagging", [ex], [ex], vocab, model_cfg, cfg)
    assert report["f1"] == 1.0


def test_finetune_random_labels_near_chance(vocab, model_cfg):
    rng = np.random.default_rng(0)
    data = gen_cls_dataset(SYNTH, 60)
    for ex in data:
        ex.label = int(rng.integers(3))
    train, eval_ = split_train_eval(data)
    cfg = TrainConfig(steps=40, batch_size=4, lr=1e-3, seed=2, precision="float64")
    _, report = finetune("classification", train, eval_, vocab, model_cfg, cfg)
    assert report["accuracy"] <= 0.7  # no signal: far from ceiling


def test_finetune_rejects_bad_task_and_empty_data(vocab, model_cfg):
    cfg = TrainConfig(steps=1, batch_size=1)
    with pytest.raises(ValueError, match="unknown task"):
        finetune("segmentation", [1], [1], vocab, model_cfg, cfg)
    with pytest.raises(ValueError, match="empty"):
        finetune("tagging", [], [], vocab, model_cfg, cfg)


@pytest.mark.parametrize("split", ["train", "eval"])
def test_finetune_rejects_a_class_label_outside_the_classes(vocab, model_cfg, split):
    train, eval_ = split_train_eval(gen_cls_dataset(SYNTH, 10))
    bad = (train if split == "train" else eval_)[-1]
    bad.label = model_cfg.num_doc_classes
    cfg = TrainConfig(steps=1, batch_size=1)
    with pytest.raises(DataError, match=f"{bad.doc.doc_id}: class label 3 outside"):
        finetune("classification", train, eval_, vocab, model_cfg, cfg)


def test_finetune_leaves_its_init_checkpoint_unchanged(vocab, model_cfg, tmp_path):
    docs = [ex.doc for ex in gen_form_dataset(SYNTH, 8)]
    trainer = Pretrainer(docs, vocab, model_cfg,
                         TrainConfig(steps=2, batch_size=4),
                         PretrainConfig(eval_every=0, heldout_every=0))
    trainer.run()
    ck = trainer.to_checkpoint()  # float32 arrays shared with the trainer
    path = tmp_path / "pre.ckpt"
    save_checkpoint(path, ck)
    before = {k: v.copy() for k, v in ck.arrays.items()}
    cfg = TrainConfig(steps=4, batch_size=2, seed=4)  # float32 too

    def two_finetunes(init_of):
        out = []
        for task in ("tagging", "classification"):
            train, eval_ = split_train_eval(TASK_DATA[task](SYNTH, 10))
            out.append(finetune(task, train, eval_, vocab, model_cfg, cfg,
                                init=init_of()))
        return out

    shared = two_finetunes(lambda: ck)
    for name, arr in before.items():
        assert np.array_equal(ck.arrays[name], arr), name
        assert np.array_equal(trainer.params[name].data, arr), name
    loaded = two_finetunes(lambda: load_checkpoint(path))
    for (p1, r1), (p2, r2) in zip(shared, loaded):
        assert r1 == r2
        assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)


def test_predictions_do_not_depend_on_what_ran_before(vocab, model_cfg, tmp_path):
    """A float32 checkpoint predicts in float32, with the same bits before
    and after a float64 run in the same process."""
    train, eval_ = split_train_eval(gen_form_dataset(SYNTH, 10))
    params, _ = finetune("tagging", train, eval_, vocab, model_cfg,
                         TrainConfig(steps=1, batch_size=2))
    path = tmp_path / "tag.ckpt"
    save_checkpoint(path, Checkpoint(
        model_config=model_cfg, arrays={k: v.data for k, v in params.items()},
        vocab_tokens=list(vocab.id_to_token), step=1, rng_state={},
        precision="float32"))
    seqs = [s for s, _ in tagging_items(eval_, vocab, model_cfg)]

    def tag_logits():
        params = load_checkpoint(path).parameters()
        assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
        return _head_logits(params, model_cfg, seqs, 4, M.head_tag)

    before = tag_logits()
    trained, _ = finetune("tagging", train, eval_, vocab, model_cfg,
                          TrainConfig(steps=1, batch_size=2, precision="float64"),
                          init=load_checkpoint(path))
    assert {p.data.dtype for p in trained.values()} == {np.dtype(np.float64)}
    after = tag_logits()
    assert all(a.dtype == np.float32 and np.array_equal(a, b)
               for a, b in zip(before, after, strict=True))


@pytest.mark.parametrize("task", ["pretrain", *TASKS])
def test_a_float32_loss_makes_no_float64_array(task, vocab, model_cfg, monkeypatch):
    """Every op output of a float32 training loss with dropout (the encoder
    rows among them), the loss and every parameter's gradient are float32:
    no constant on the path upcasts it."""
    made = []
    op_result = Tensor._result

    def recording(data, parents, back):
        out = op_result(data, parents, back)
        made.append(out.data.dtype)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(recording))
    mc = dataclasses.replace(model_cfg, dropout=0.1)
    rng = derive_rng(0, "dropout")
    if task == "pretrain":
        seqs = [encode_document(ex.doc, vocab, mc.max_len)
                for ex in gen_form_dataset(SYNTH, 4)]
        examples = [make_pretrain_example(s, PretrainConfig(), len(vocab), mc.num_areas,
                                          derive_rng(0, s.doc_id))
                    for s in seqs]
        params = M.init_parameters(mc, derive_rng(0, "init"), dtype=np.float32)
        loss, _ = pretrain_batch_loss(params, mc, examples, True, rng)
    else:
        params = prepare_finetune_params(mc, task, None, 0, np.float32)
        spec = TASKS[task]
        loss = spec.loss(params, mc, spec.items(TASK_DATA[task](SYNTH, 4), vocab, mc),
                         rng=rng)
    backward(loss)
    float32 = {np.dtype(np.float32)}
    assert set(made) == float32 and loss.data.dtype == np.float32
    assert {p.grad.dtype for p in params.values() if p.grad is not None} == float32


@pytest.mark.parametrize("task", TASKS)
def test_finetune_with_dropout_is_seeded(task, vocab, model_cfg):
    train, eval_ = split_train_eval(TASK_DATA[task](SYNTH, 10))
    cfg = TrainConfig(steps=4, batch_size=2, seed=3, precision="float64")
    dropped = dataclasses.replace(model_cfg, dropout=0.1)
    (a, report_a), (b, report_b), (plain, _) = [
        finetune(task, train, eval_, vocab, mc, cfg)
        for mc in (dropped, dropped, model_cfg)
    ]
    assert report_a == report_b
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, plain[k].data) for k in a)


@pytest.mark.parametrize("task", TASKS)
def test_finetune_drops_each_steps_graph_before_the_next_forward(
        task, vocab, model_cfg, monkeypatch):
    train, eval_ = split_train_eval(TASK_DATA[task](SYNTH, 10))
    losses = []
    real = TASKS[task].loss

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in losses), "a spent graph is still alive"
        loss = real(*args, **kwargs)
        losses.append(weakref.ref(loss))
        return loss

    monkeypatch.setitem(TASKS, task, TASKS[task]._replace(loss=spy))
    gc.disable()  # freed by reference counting alone, not by a later collection
    try:
        finetune(task, train, eval_, vocab, model_cfg,
                 TrainConfig(steps=3, batch_size=2, seed=3))
    finally:
        gc.enable()
    assert len(losses) == 3 and all(ref() is None for ref in losses)


# -- forward-only paths build no autograd graph --------------------------------


def test_predict_word_tags_without_graph_matches_graph_forward(
        vocab, model_cfg, graph_free_vs_graph):
    params = prepare_finetune_params(model_cfg, "tagging", None, seed=3)
    seqs = [encode_document(ex.doc, vocab, model_cfg.max_len)
            for ex in gen_form_dataset(SYNTH, 5)]
    tags = graph_free_vs_graph(
        lambda: predict_word_tags(params, model_cfg, seqs, batch_size=2))
    assert [len(t) for t in tags] == [s.n_words for s in seqs]
    assert all(p.grad is None and p.requires_grad for p in params.values())


def test_batched_tagging_gives_each_document_its_tags_alone(vocab, model_cfg):
    params = prepare_finetune_params(model_cfg, "tagging", None, seed=3)
    seqs = [encode_document(ex.doc, vocab, model_cfg.max_len)
            for ex in gen_form_dataset(SYNTH, 6)]
    assert len({s.length for s in seqs}) > 1
    batched = predict_word_tags(params, model_cfg, seqs, batch_size=len(seqs))
    alone = [predict_word_tags(params, model_cfg, [s], batch_size=1)[0] for s in seqs]
    assert len({tag for tags in alone for tag in tags}) > 1
    assert batched == alone


def test_qa_predict_answer_without_graph_matches_graph_forward(
        vocab, small, graph_free_vs_graph):
    params = prepare_finetune_params(small, "qa", None, seed=3)
    big = SynthConfig(seed=21, min_pairs=9, max_pairs=10)
    windows, _ = qa_windows(gen_qa_dataset(big, 2)[0], vocab, small)
    assert len(windows) > 1
    graph_free_vs_graph(
        lambda: qa_predict_answer(params, small, vocab, windows, 6))
    assert all(p.grad is None and p.requires_grad for p in params.values())


@pytest.mark.parametrize("task", TASKS)
def test_evaluate_without_graph_matches_graph_forward(
        task, vocab, model_cfg, graph_free_vs_graph):
    params = prepare_finetune_params(model_cfg, task, None, seed=3)
    cfg = TrainConfig(steps=1, batch_size=2, precision="float64")
    report = graph_free_vs_graph(
        lambda: evaluate(task, params, TASK_DATA[task](SYNTH, 5), vocab,
                         model_cfg, cfg))
    assert report
    assert all(p.grad is None and p.requires_grad for p in params.values())

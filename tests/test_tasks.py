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
from cellformer.checkpoint import load_checkpoint, save_checkpoint, snapshot
from cellformer.dataio import DataError
from cellformer.documents import encode_document, stack_batch
from cellformer.model import MASK_NEG, ModelConfig
from cellformer.pretrain import PretrainConfig, derive_rng, make_pretrain_example
from cellformer.metrics import TAG_LABELS, TAG_TO_ID
from cellformer.synth import SynthConfig, gen_cls_dataset, gen_form_dataset, gen_qa_dataset, vocab_words
from cellformer.taskdata import QaExample, TaggingExample, split_train_eval
from cellformer.tasks import (
    TASKS, _head_logits, classification_items, classification_loss, finetune,
    predict_word_tags, prepare_finetune_params, qa_items, qa_loss, qa_predict_answer,
    qa_windows, tagging_items, tagging_loss,
)
from cellformer.trainer import Pretrainer, TrainConfig, pretrain_batch_loss
from cellformer.vocab import CLS_ID, PAD_ID, SEP_ID, build_vocab, tokenize_to_ids

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


def test_tagging_items_hold_the_tags_of_the_kept_words(edge_docs, edge_vocab,
                                                       reference_tokens):
    examples = []
    for doc in edge_docs:
        n_words = sum(len(c.text.split()) for c in doc.cells)
        examples.append(TaggingExample(doc, [TAG_LABELS[(3 * w + 1) % len(TAG_LABELS)]
                                             for w in range(n_words)]))
    cut = 0
    for max_len in [*range(3, 16), 64]:
        cfg = ModelConfig(vocab_size=len(edge_vocab), num_layers=1, num_heads=2,
                          hidden_d=16, ffn_d=32, max_len=max_len)
        items = tagging_items(examples, edge_vocab, cfg)
        for (seq, tags), ex in zip(items, examples, strict=True):
            _, rows = reference_tokens(ex.doc, edge_vocab, "cell")
            window, rest = rows[:max_len - 2], rows[max_len - 2:]
            # a word cut by the window keeps its tag: its first piece is in it
            cut += bool(rest) and rest[0][2] == window[-1][2]
            kept = window[-1][2] + 1
            assert tags.dtype == np.int64
            assert tags.tolist() == [TAG_TO_ID[t] for t in ex.word_labels[:kept]]
    assert cut


# -- losses on the encoder's packed rows ---------------------------------------


def _padded(params, model_cfg, seqs):
    """The encoder's rows scattered back to [B, L, d], zero at pad."""
    token_ids, boxes, mask = stack_batch(seqs)
    rows = M.encode(params, model_cfg, token_ids, boxes, mask)
    return ag.scatter_rows(rows, np.nonzero(mask), mask.shape + (model_cfg.hidden_d,))


def test_tagging_loss_equals_the_padded_formulation(vocab, model_cfg):
    params = prepare_finetune_params(model_cfg, "tagging", None, seed=3)
    items = tagging_items(gen_form_dataset(SYNTH, 4), vocab, model_cfg)
    seqs = [s for s, _ in items]
    # the tags at each word's first subword, the ignore label elsewhere
    labels = np.full((len(seqs), model_cfg.max_len), -100)
    for row, (seq, tags) in zip(labels, items):
        firsts = [seq.word_index.tolist().index(w) for w in range(len(tags))]
        row[firsts] = tags
    hidden = _padded(params, model_cfg, seqs)
    padded = ag.softmax_cross_entropy(M.head_tag(params, hidden), labels, -100)
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
    assert {*ex.span} <= set(doc_words)


@pytest.mark.parametrize("mode", ["cell", "word"])
def test_qa_windows_match_a_plain_reference(edge_docs, edge_vocab, reference_tokens, mode):
    cfg = ModelConfig(vocab_size=len(edge_vocab), num_layers=1, num_heads=2, hidden_d=16,
                      ffn_d=32, max_len=16, layout_mode=mode)
    question = "what is the total ?"
    q_ids = [t for w in question.split() for t in tokenize_to_ids(w, edge_vocab)]
    for doc in edge_docs:
        _, rows = reference_tokens(doc, edge_vocab, mode)
        windows, words = qa_windows(QaExample(doc, question, ["x"], None), edge_vocab, cfg)
        assert words == [r[2] for r in rows]
        assert len(windows) > 1
        for win in windows:
            doc_rows = rows[win.doc_start:win.doc_start + len(win.window_token_ids)]
            ids = [r[0] for r in doc_rows]
            assert win.window_token_ids == ids
            assert win.token_ids.tolist() == ([CLS_ID, *q_ids, SEP_ID, *ids, SEP_ID]
                                              + [PAD_ID] * (cfg.max_len - win.length))
            assert win.boxes[win.doc_mask].tolist() == [list(r[3]) for r in doc_rows]
            assert not win.boxes[~win.doc_mask].any()
        assert windows[-1].doc_start + len(windows[-1].window_token_ids) == len(rows)


def test_qa_question_case_does_not_change_its_windows(vocab, model_cfg):
    ex = gen_qa_dataset(SYNTH, 2)[0]
    upper = QaExample(ex.doc, "WHAT IS THE VOLUME ?", ex.answers, ex.span)
    lower = QaExample(ex.doc, "what is the volume ?", ex.answers, ex.span)
    (up_windows, up_words), (windows, words) = (qa_windows(e, vocab, model_cfg)
                                                for e in (upper, lower))
    assert windows[0].doc_offset == 2 + 5  # one piece per word
    assert up_words == words and len(up_windows) == len(windows)
    for a, b in zip(up_windows, windows):
        assert np.array_equal(a.token_ids, b.token_ids)
        assert np.array_equal(a.boxes, b.boxes)
        assert (a.length, a.doc_offset, a.doc_start) == (b.length, b.doc_offset, b.doc_start)


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
    examples = gen_qa_dataset(SYNTH, 6)
    questions = [dataclasses.replace(ex, question=" ".join(["what"] * (n_q - 1) + ["?"]))
                 for ex in examples]
    items = qa_items(questions, vocab, small)
    assert len(items) == len(examples)
    for ex, (win, start, end) in zip(examples, items):
        assert win.doc_mask[start] and win.doc_mask[end]
        answer_ids = [i for w in ex.answers[0].split()
                      for i in tokenize_to_ids(w, vocab)]
        assert win.token_ids[start:end + 1].tolist() == answer_ids


def test_qa_training_window_contains_span(vocab, model_cfg):
    examples = gen_qa_dataset(SYNTH, 6)
    items = qa_items(examples, vocab, model_cfg)
    assert len(items) == len(examples)
    for ex, (win, start, end) in zip(examples, items):
        assert win.doc_mask[start] and win.doc_mask[end]
        ids = win.token_ids[start:end + 1]
        answer_ids = []
        for w in ex.answers[0].split():
            answer_ids.extend(tokenize_to_ids(w, vocab))
        assert ids.tolist() == answer_ids


def test_qa_items_reject_a_set_where_no_answer_fits_a_window(vocab, small):
    # one token of room beside the question holds no answer of two words
    examples = [dataclasses.replace(ex, question=" ".join(["what"] * (small.max_len - 5) + ["?"]))
                for ex in gen_qa_dataset(SYNTH, 10) if ex.span[1] > ex.span[0]]
    assert examples and qa_windows(examples[0], vocab, small)[0][0].doc_offset == small.max_len - 2
    with pytest.raises(DataError, match="no training answer fits a window of max_len 24"):
        qa_items(examples, vocab, small)


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
    with pytest.raises(ValueError, match="empty"):
        finetune("tagging", gen_form_dataset(SYNTH, 2), [], vocab, model_cfg, cfg)


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
    save_checkpoint(path, snapshot(model_cfg, params, vocab.id_to_token, 1))
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
    """Every op output of a float32 training loss (the encoder rows among
    them), the loss and every parameter's gradient are float32: no
    constant on the path upcasts it."""
    made = []
    op_result = Tensor._result

    def recording(data, parents, back):
        out = op_result(data, parents, back)
        made.append(out.data.dtype)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(recording))
    if task == "pretrain":
        seqs = [encode_document(ex.doc, vocab, model_cfg.max_len)
                for ex in gen_form_dataset(SYNTH, 4)]
        examples = [make_pretrain_example(s, len(vocab), model_cfg.num_areas,
                                          derive_rng(0, s.doc_id))
                    for s in seqs]
        params = M.init_parameters(model_cfg, derive_rng(0, "init"), dtype=np.float32)
        loss, _ = pretrain_batch_loss(params, model_cfg, examples, True)
    else:
        params = prepare_finetune_params(model_cfg, task, None, 0, np.float32)
        spec = TASKS[task]
        loss = spec.loss(params, model_cfg,
                         spec.items(TASK_DATA[task](SYNTH, 4), vocab, model_cfg))
    backward(loss)
    float32 = {np.dtype(np.float32)}
    assert set(made) == float32 and loss.data.dtype == np.float32
    assert {p.grad.dtype for p in params.values() if p.grad is not None} == float32


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


def test_batch_decode_matches_per_document_decode(vocab):
    # a 16-token window truncates every form, and 7 documents make 4 chunks
    cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                      hidden_d=16, ffn_d=32, max_len=16)
    params = prepare_finetune_params(cfg, "tagging", None, seed=3)
    seqs = [encode_document(ex.doc, vocab, cfg.max_len) for ex in gen_form_dataset(SYNTH, 7)]
    got = predict_word_tags(params, cfg, seqs, batch_size=2)
    want = []
    for s, logits in zip(seqs, _head_logits(params, cfg, seqs, 2, M.head_tag)):
        tags = ["O"] * s.n_words
        seen = set()
        for pos, w in enumerate(s.word_index[:s.length].tolist()):
            if w >= 0 and w not in seen:
                seen.add(w)
                tags[w] = TAG_LABELS[int(np.argmax(logits[pos]))]
        assert len(seen) < s.n_words  # words cut off by the window stay O
        want.append(tags)
    assert got == want
    assert len({t for tags in got for t in tags[:3]}) > 1


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
    report = graph_free_vs_graph(
        lambda: TASKS[task].score(params, TASK_DATA[task](SYNTH, 5), vocab,
                                  model_cfg, batch_size=2))
    assert report
    assert all(p.grad is None and p.requires_grad for p in params.values())

"""Masking and cell-selection samplers, the page-grid area function against
a brute-force oracle, and the combined loss."""

import numpy as np
import pytest

from cellformer.autograd import Tensor
from cellformer.documents import TokenizedSequence, encode_document
from cellformer.pretrain import (
    IGNORE_LABEL, PretrainConfig, area_of, derive_rng, make_pretrain_example,
    pretrain_loss, sample_cpc, sample_mvlm,
)
from cellformer.synth import SynthConfig, gen_pretrain_doc, vocab_words
from cellformer.vocab import CLS_ID, MASK_ID, PAD_ID, SEP_ID, build_vocab


def brute_force_area(cx, cy, n_areas):
    """Independent rectangle-membership scan of the grid."""
    grid = int(round(n_areas ** 0.5))
    step = 1000 / grid
    for row in range(grid):
        for col in range(grid):
            x_lo, x_hi = col * step, (col + 1) * step
            y_lo, y_hi = row * step, (row + 1) * step
            in_x = (x_lo <= cx < x_hi) or (col == grid - 1 and cx == 1000)
            in_y = (y_lo <= cy < y_hi) or (row == grid - 1 and cy == 1000)
            if in_x and in_y:
                return row * grid + col
    raise AssertionError(f"no area for ({cx},{cy})")


def test_area_of_examples():
    assert area_of((0, 0, 250, 250), 16) == 0
    assert area_of((999, 999, 999, 999), 16) == 15
    assert area_of((480, 230, 540, 250), 16) == 2


def test_area_of_matches_brute_force_on_stride7_sweep():
    hit = set()
    for cx in range(0, 1001, 7):
        for cy in range(0, 1001, 7):
            got = area_of((cx, cy, cx, cy), 16)
            assert got == brute_force_area(cx, cy, 16)
            hit.add(got)
    assert hit == set(range(16))


def test_area_of_validates_inputs():
    with pytest.raises(ValueError):
        area_of((0, 0, 1001, 10), 16)
    with pytest.raises(ValueError):
        area_of((0, 0, 10, 10), 15)


# -- fixtures ----------------------------------------------------------------


def make_seq(n_cells=12, tokens_per_cell=3, length=None) -> TokenizedSequence:
    """Hand-built sequence: cells on a diagonal so every cell has a distinct
    area-bearing box."""
    total = n_cells * tokens_per_cell + 2
    L = length or total
    ids = np.full(L, PAD_ID, dtype=np.int64)
    cell_index = np.full(L, -1, dtype=np.int64)
    word_index = np.full(L, -1, dtype=np.int64)
    boxes = np.zeros((L, 4), dtype=np.int64)
    cell_boxes = np.zeros((n_cells, 4), dtype=np.int64)
    ids[0] = CLS_ID
    pos = 1
    for c in range(n_cells):
        x = (c * 80) % 900
        y = (c * 73) % 900
        cell_boxes[c] = (x, y, x + 60, y + 30)
        for t in range(tokens_per_cell):
            ids[pos] = 5 + (c * tokens_per_cell + t) % 40
            cell_index[pos] = c
            word_index[pos] = c * tokens_per_cell + t
            boxes[pos] = cell_boxes[c]
            pos += 1
    ids[pos] = SEP_ID
    return TokenizedSequence(
        doc_id="hand", token_ids=ids,
        cell_index=cell_index, word_index=word_index, boxes=boxes,
        length=pos + 1, cell_boxes=cell_boxes, n_words=n_cells * tokens_per_cell,
    )


VOCAB_SIZE = 64


# -- MVLM sampling -------------------------------------------------------------


def test_mvlm_statistics():
    cfg = PretrainConfig()
    seq = make_seq(n_cells=40, tokens_per_cell=5)
    n_eligible = int(seq.content_mask().sum())
    trials = max(1, 120_000 // n_eligible)
    selected = masked = randomized = kept = 0
    for t in range(trials):
        rng = derive_rng(42, "mvlm", t)
        ids, labels, positions = sample_mvlm(seq, cfg, VOCAB_SIZE, rng)
        selected += len(positions)
        for p in positions:
            if ids[p] == MASK_ID:
                masked += 1
            elif ids[p] == seq.token_ids[p]:
                kept += 1
            else:
                randomized += 1
    rate = selected / (trials * n_eligible)
    assert abs(rate - 0.15) < 0.005
    assert abs(masked / selected - 0.80) < 0.01
    # a uniform random draw collides with the original ~1/(V-5) of the time
    assert abs(randomized / selected - 0.10) < 0.012
    assert abs(kept / selected - 0.10) < 0.012


def test_mvlm_leaves_boxes_untouched_and_specials_unselected():
    cfg = PretrainConfig()
    seq = make_seq()
    before = seq.boxes.copy()
    for t in range(50):
        ids, labels, positions = sample_mvlm(seq, cfg, VOCAB_SIZE,
                                             derive_rng(1, t))
        assert np.array_equal(seq.boxes, before)
        assert all(seq.cell_index[p] >= 0 for p in positions)
        special = seq.cell_index < 0
        assert np.all(labels[special] == IGNORE_LABEL)
        assert np.array_equal(ids[special], seq.token_ids[special])


def test_mvlm_labels_exactly_at_selected_positions():
    cfg = PretrainConfig()
    seq = make_seq()
    ids, labels, positions = sample_mvlm(seq, cfg, VOCAB_SIZE, derive_rng(2, 0))
    labeled = set(np.nonzero(labels != IGNORE_LABEL)[0].tolist())
    assert labeled == set(positions.tolist())
    for p in positions:
        assert labels[p] == seq.token_ids[p]


def test_mvlm_forces_at_least_one_selection():
    cfg = PretrainConfig(mask_rate=1e-9)
    seq = make_seq(n_cells=1, tokens_per_cell=2)
    for t in range(20):
        _, _, positions = sample_mvlm(seq, cfg, VOCAB_SIZE, derive_rng(3, t))
        assert len(positions) >= 1


# -- CPC sampling ------------------------------------------------------------------


def test_cpc_never_selects_masked_cells():
    cfg = PretrainConfig()
    seq = make_seq(n_cells=20)
    for t in range(200):
        rng = derive_rng(5, t)
        _, _, positions = sample_mvlm(seq, cfg, VOCAB_SIZE, rng)
        _, labels, cells = sample_cpc(seq, positions, cfg, 16, rng)
        masked_cells = {int(seq.cell_index[p]) for p in positions}
        assert masked_cells.isdisjoint(cells.tolist())
        for c in cells:
            rows = seq.cell_index == c
            assert np.all(labels[rows] == area_of(seq.cell_boxes[c], 16))


def test_cpc_statistics():
    cfg = PretrainConfig()
    seq = make_seq(n_cells=50, tokens_per_cell=2)
    eligible = selected = zeroed = 0
    no_mask = np.empty(0, dtype=np.int64)
    trials = 1200
    for t in range(trials):
        rng = derive_rng(6, t)
        boxes, labels, cells = sample_cpc(seq, no_mask, cfg, 16, rng)
        eligible += 50
        selected += len(cells)
        for c in cells:
            rows = seq.cell_index == c
            if np.all(boxes[rows] == 0):
                zeroed += 1
    assert abs(selected / eligible - 0.15) < 0.01
    assert abs(zeroed / selected - 0.90) < 0.012


def test_cpc_labels_from_original_box_not_zeroed():
    cfg = PretrainConfig(cell_select_rate=1.0, zero_box_frac=1.0)
    seq = make_seq(n_cells=6)
    boxes, labels, cells = sample_cpc(seq, np.empty(0, dtype=np.int64), cfg, 16,
                                      derive_rng(7, 0))
    assert len(cells) == 6
    for c in cells:
        rows = seq.cell_index == c
        assert np.all(boxes[rows] == 0)
        true_area = area_of(seq.cell_boxes[c], 16)
        assert np.all(labels[rows] == true_area)
    # at least one cell lives outside area 0, so its label differs from the
    # zeroed box's area
    assert any(area_of(seq.cell_boxes[c], 16) != 0 for c in cells)


# -- composed example ---------------------------------------------------------------


def synth_sequences(n=10):
    cfg = SynthConfig(seed=11)
    vocab = build_vocab(vocab_words(cfg), 512)
    seqs = []
    for i in range(n):
        doc = gen_pretrain_doc(cfg, derive_rng(11, "docs", i), f"d{i}")
        seqs.append(encode_document(doc, vocab, 128, "cell"))
    return seqs, vocab


def test_example_disjointness_and_label_conservation():
    cfg = PretrainConfig()
    seqs, vocab = synth_sequences(10)
    for t, seq in enumerate(seqs * 5):
        ex = make_pretrain_example(seq, cfg, len(vocab), 16, derive_rng(8, t))
        mvlm_positions = set(ex.masked_token_positions.tolist())
        cpc_positions = set(
            np.nonzero(ex.cpc_labels != IGNORE_LABEL)[0].tolist()
        )
        assert mvlm_positions.isdisjoint(cpc_positions)
        labeled = set(np.nonzero(ex.mvlm_labels != IGNORE_LABEL)[0].tolist())
        assert labeled == mvlm_positions
        special = seq.cell_index < 0
        assert np.all(ex.mvlm_labels[special] == IGNORE_LABEL)
        assert np.all(ex.cpc_labels[special] == IGNORE_LABEL)
        # per-cell label uniformity
        for c in ex.selected_cell_indices:
            rows = seq.cell_index == c
            values = set(ex.cpc_labels[rows].tolist())
            assert len(values) == 1


def test_example_seeded_determinism():
    cfg = PretrainConfig()
    seqs, vocab = synth_sequences(3)
    for seq in seqs:
        a = make_pretrain_example(seq, cfg, len(vocab), 16, derive_rng(9, seq.doc_id))
        b = make_pretrain_example(seq, cfg, len(vocab), 16, derive_rng(9, seq.doc_id))
        for field in ("token_ids", "boxes", "mvlm_labels", "cpc_labels",
                      "masked_token_positions", "selected_cell_indices"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


# -- loss ---------------------------------------------------------------------------


def test_loss_without_cpc_labels_is_mvlm_alone():
    rng = np.random.default_rng(12)
    mlm_logits = Tensor(rng.normal(size=(2, 6, 30)))
    cpc_logits = Tensor(rng.normal(size=(2, 6, 16)))
    labels = np.full((2, 6), IGNORE_LABEL)
    labels[0, 1] = 7
    empty = np.full((2, 6), IGNORE_LABEL)
    loss, metrics = pretrain_loss(mlm_logits, cpc_logits, labels, empty)
    assert loss.item() == pytest.approx(metrics["mvlm_loss"])
    assert metrics["cpc_loss"] == 0.0
    assert metrics["cpc_labeled"] == 0


def test_loss_uniform_cpc_logits_is_ln16():
    mlm_logits = Tensor(np.zeros((1, 4, 30)))
    cpc_logits = Tensor(np.zeros((1, 4, 16)))
    mvlm = np.full((1, 4), IGNORE_LABEL)
    cpc = np.full((1, 4), IGNORE_LABEL)
    cpc[0, 2] = 5
    _, metrics = pretrain_loss(mlm_logits, cpc_logits, mvlm, cpc)
    assert metrics["cpc_loss"] == pytest.approx(np.log(16), abs=1e-12)


def test_loss_both_empty_is_zero():
    loss, metrics = pretrain_loss(
        Tensor(np.zeros((1, 4, 30))), Tensor(np.zeros((1, 4, 16))),
        np.full((1, 4), IGNORE_LABEL), np.full((1, 4), IGNORE_LABEL),
    )
    assert loss.item() == 0.0


def test_loss_is_the_plain_sum():
    mlm_logits = Tensor(np.zeros((1, 2, 30)))
    cpc_logits = Tensor(np.zeros((1, 2, 16)))
    mvlm = np.array([[0, IGNORE_LABEL]])
    cpc = np.array([[IGNORE_LABEL, 3]])
    loss, metrics = pretrain_loss(mlm_logits, cpc_logits, mvlm, cpc)
    assert loss.item() == pytest.approx(np.log(30) + np.log(16))
    assert loss.item() == metrics["mvlm_loss"] + metrics["cpc_loss"]


@pytest.mark.parametrize("bad", [{"eval_every": -2}, {"heldout_every": -3},
                                 {"heldout_every": 1}])
def test_config_rejects_negative_intervals_and_holding_out_every_document(bad):
    with pytest.raises(ValueError):
        PretrainConfig(**bad)
    PretrainConfig(eval_every=0, heldout_every=0)
    PretrainConfig(heldout_every=2)


def test_config_fraction_validation():
    with pytest.raises(ValueError):
        PretrainConfig(mask_token_frac=0.95)  # + random_frac 0.1 > 1
    with pytest.raises(ValueError):
        PretrainConfig(mask_token_frac=-0.1)
    with pytest.raises(ValueError):
        PretrainConfig(zero_box_frac=1.5)
    with pytest.raises(ValueError):
        PretrainConfig(zero_box_frac=-0.5)
    PretrainConfig(mask_token_frac=0.7)  # keeps the remaining 0.2
    PretrainConfig(mask_token_frac=0.9, random_frac=0.1, zero_box_frac=1.0)

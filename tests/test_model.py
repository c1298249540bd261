"""Encoder and head contracts: embedding composition, one packed row per
real token, pad masking, permutation equivariance, and parameter
accounting."""

import numpy as np
import pytest

from cellformer import autograd as ag
from cellformer import model as M
from cellformer.autograd import Tensor
from cellformer.pretrain import derive_rng


def small_config(**kw):
    base = dict(vocab_size=32, num_layers=2, num_heads=2, hidden_d=16,
                ffn_d=32, max_len=12, num_doc_classes=3)
    base.update(kw)
    return M.ModelConfig(**base)


@pytest.fixture
def cfg():
    return small_config()


@pytest.fixture
def params(cfg):
    return M.init_parameters(cfg, derive_rng(0, "test"), heads=M.ALL_HEADS)


def rand_inputs(cfg, rng, batch=2, length=None):
    L = length or cfg.max_len
    ids = rng.integers(5, cfg.vocab_size, size=(batch, L))
    boxes = rng.integers(0, 900, size=(batch, L, 4))
    boxes[..., 2] = boxes[..., 0] + rng.integers(0, 100, size=(batch, L))
    boxes[..., 3] = boxes[..., 1] + rng.integers(0, 100, size=(batch, L))
    attn = np.ones((batch, L), dtype=bool)
    return ids, boxes, attn


# -- input embedding ----------------------------------------------------------


def test_layout_contribution_same_box_identical(params):
    boxes = np.array([[10, 20, 30, 40], [10, 20, 30, 40], [5, 5, 9, 9]])
    contrib = M.layout_contribution(params, boxes).data
    assert np.array_equal(contrib[0], contrib[1])
    assert not np.array_equal(contrib[0], contrib[2])


def test_layout_contribution_empty_box_formula(params):
    contrib = M.layout_contribution(params, np.zeros((1, 4), dtype=int)).data[0]
    expected = 2 * params["x_emb"].data[0] + 2 * params["y_emb"].data[0]
    assert np.allclose(contrib, expected)


def test_same_cell_tokens_differ_only_by_word_and_pos(cfg, params):
    # two tokens share a box; their pre-norm embedding difference must equal
    # the word+1D-position difference alone
    ids = np.array([[7, 9]])
    boxes = np.tile(np.array([[100, 200, 300, 400]]), (1, 2, 1))
    words = params["word_emb"].data
    pos = params["pos1d_emb"].data
    summed = (
        ag.embedding_gather(params["word_emb"], ids).data
        + ag.embedding_gather(params["pos1d_emb"], np.arange(2)).data
        + M.layout_contribution(params, boxes).data
    )
    diff = summed[0, 0] - summed[0, 1]
    expected = (words[7] + pos[0]) - (words[9] + pos[1])
    assert np.allclose(diff, expected)


def test_zeroed_2d_tables_make_boxes_irrelevant(cfg, params):
    params["x_emb"].data[:] = 0.0
    params["y_emb"].data[:] = 0.0
    rng = np.random.default_rng(1)
    ids, boxes, _ = rand_inputs(cfg, rng)
    other_boxes = rng.integers(0, 1000, size=boxes.shape)
    positions = np.indices(ids.shape)[1]
    a = M.input_embedding(params, cfg, ids, positions, boxes).data
    b = M.input_embedding(params, cfg, ids, positions, other_boxes).data
    assert np.array_equal(a, b)


def test_coordinate_out_of_range_is_contract_error(cfg, params):
    boxes = np.array([[0, 0, 1001, 0]])
    with pytest.raises(IndexError):
        M.layout_contribution(params, boxes)


# -- encoder ---------------------------------------------------------------------


def test_encode_output_shape(cfg, params):
    ids, boxes, attn = rand_inputs(cfg, np.random.default_rng(2))
    attn[0, 7:] = False
    attn[1, 3] = False  # a pad inside the prefix is no row either
    out = M.encode(params, cfg, ids, boxes, attn)
    assert out.shape == (attn.sum(), cfg.hidden_d)


def test_changing_pad_id_leaves_non_pad_rows_bit_identical(cfg, params):
    rng = np.random.default_rng(3)
    ids, boxes, attn = rand_inputs(cfg, rng)
    attn[0, 8:] = False
    attn[1, 5:] = False
    ids2 = ids.copy()
    ids2[~attn] = (ids2[~attn] + 1) % cfg.vocab_size
    a = M.encode(params, cfg, ids, boxes, attn).data
    b = M.encode(params, cfg, ids2, boxes, attn).data
    assert np.array_equal(a, b)


def test_appending_pads_keeps_non_pad_logits(cfg, params):
    rng = np.random.default_rng(4)
    ids, boxes, attn = rand_inputs(cfg, rng, batch=1, length=8)
    big_ids = np.zeros((1, cfg.max_len), dtype=np.int64)
    big_ids[:, :8] = ids
    big_boxes = np.zeros((1, cfg.max_len, 4), dtype=np.int64)
    big_boxes[:, :8] = boxes
    big_attn = np.zeros((1, cfg.max_len), dtype=bool)
    big_attn[:, :8] = True
    short = M.encode(params, cfg, ids, boxes, attn).data
    long = M.encode(params, cfg, big_ids, big_boxes, big_attn).data
    assert short.shape == (8, cfg.hidden_d)
    assert np.array_equal(short, long)


def test_each_documents_rows_match_its_encode_alone(cfg, params):
    rng = np.random.default_rng(5)
    ids, boxes, attn = rand_inputs(cfg, rng)
    attn[0, 7:] = False
    attn[1, 5:] = False
    out = M.encode(params, cfg, ids, boxes, attn).data
    # row-major order of the real positions: document 0's 7, then 1's 5
    blocks = np.split(out, [7])
    for row, block in enumerate(blocks):
        alone = M.encode(params, cfg, ids[row:row + 1], boxes[row:row + 1],
                         attn[row:row + 1]).data
        assert block.shape == alone.shape
        assert np.allclose(block, alone, rtol=1e-10, atol=1e-12)


def test_permutation_equivariance_with_zeroed_positions(cfg, params):
    params["pos1d_emb"].data[:] = 0.0
    params["x_emb"].data[:] = 0.0
    params["y_emb"].data[:] = 0.0
    rng = np.random.default_rng(5)
    ids, boxes, attn = rand_inputs(cfg, rng, batch=1)
    perm = rng.permutation(cfg.max_len)
    out = M.encode(params, cfg, ids, boxes, attn).data
    out_perm = M.encode(params, cfg, ids[:, perm], boxes[:, perm], attn).data
    assert np.allclose(out[perm], out_perm, rtol=1e-9, atol=1e-11)


# -- heads -----------------------------------------------------------------------


def test_all_zero_hidden_gives_bias(cfg, params):
    hidden = Tensor(np.zeros((5, cfg.hidden_d)))
    assert np.allclose(M.head_cpc(params, hidden).data, params["cpc_b"].data)
    assert np.allclose(M.head_tag(params, hidden).data, params["tag_b"].data)
    assert np.allclose(M.head_cls(params, hidden).data, params["cls_b"].data)
    assert np.allclose(M.head_mlm(params, hidden).data, params["mlm_bias"].data)


def test_head_span_shapes(cfg, params):
    hidden = Tensor(np.zeros((5, cfg.hidden_d)))
    out = M.head_span(params, hidden)
    assert out.shape == (5, 2)


# -- parameter accounting -----------------------------------------------------------


def test_parameter_count_matches_formula(cfg):
    for heads in ((), ("mlm",), M.PRETRAIN_HEADS, M.ALL_HEADS):
        params = M.init_parameters(cfg, derive_rng(0, "c"), heads=heads)
        assert set(params) == set(M.parameter_shapes(cfg, heads))
        for name, t in params.items():
            assert t.shape == M.parameter_shapes(cfg, heads)[name]


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        small_config(hidden_d=10, num_heads=4)
    with pytest.raises(ValueError, match="square"):
        small_config(num_areas=15)


def test_dropout_changes_training_outputs_deterministically(cfg):
    dropped = small_config(dropout=0.1)
    params = M.init_parameters(dropped, derive_rng(0, "d"), heads=("mlm",))
    rng = np.random.default_rng(7)
    ids, boxes, attn = rand_inputs(dropped, rng)
    a = M.encode(params, dropped, ids, boxes, attn,
                 rng=np.random.default_rng(9)).data
    b = M.encode(params, dropped, ids, boxes, attn,
                 rng=np.random.default_rng(9)).data
    c = M.encode(params, dropped, ids, boxes, attn,
                 rng=np.random.default_rng(10)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

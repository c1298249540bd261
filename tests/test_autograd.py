"""Tensor engine tests: forward semantics, backward rules against a central
finite-difference oracle, and the Adam update."""

import numpy as np
import pytest

from cellformer import autograd as ag
from cellformer.autograd import ShapeError, Tensor, backward, zero_grads
from cellformer.gradcheck import finite_difference_errors
from cellformer.optim import AdamState, adam_step, init_adam


def fd_grad(loss_fn, tensor, h=1e-5):
    """Central finite differences; touches only the forward path."""
    out = np.zeros(tensor.data.size)
    flat = tensor.data.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        f_plus = loss_fn().item()
        flat[i] = old - h
        f_minus = loss_fn().item()
        flat[i] = old
        out[i] = (f_plus - f_minus) / (2 * h)
    return out.reshape(tensor.data.shape)


def assert_grad_close(analytic, fd, rel_tol=1e-4, floor=1e-8):
    fd = np.asarray(fd)
    mask = np.abs(fd) > floor
    if mask.any():
        rel = np.abs(analytic[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() <= rel_tol, f"max rel err {rel.max():.3e}"
    assert np.abs(analytic[~mask]).max(initial=0.0) < 1e-6


# -- layer norm ----------------------------------------------------------------


def test_layer_norm_constant_row_collapses_to_beta():
    x = Tensor([[5.0, 5.0, 5.0]])
    gamma = Tensor(np.ones(3))
    beta = Tensor([1.0, 2.0, 3.0])
    out = ag.layer_norm(x, gamma, beta, 1e-6)
    assert np.allclose(out.data, [[1.0, 2.0, 3.0]], atol=1e-9)


def test_layer_norm_symmetric_standardization():
    x = Tensor([[1.0, 3.0]])
    out = ag.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-12)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_grad_matches_fd(weighted_sum):
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    gamma = Tensor(rng.normal(size=8), requires_grad=True)
    beta = Tensor(rng.normal(size=8), requires_grad=True)
    w = rng.normal(size=(4, 8))

    def loss():
        return weighted_sum(ag.layer_norm(x, gamma, beta, 1e-8), w)

    zero_grads([x, gamma, beta])
    backward(loss())
    assert_grad_close(x.grad, fd_grad(loss, x))
    assert_grad_close(gamma.grad, fd_grad(loss, gamma))
    assert_grad_close(beta.grad, fd_grad(loss, beta))


def test_layer_norm_rejects_bad_eps_and_shapes():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ag.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), 0.0)
    with pytest.raises(ShapeError):
        ag.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(3)), 1e-6)


# -- gelu -----------------------------------------------------------------------


def test_gelu_zero_and_asymptote():
    x = Tensor([0.0, 10.0])
    out = ag.gelu(x).data
    assert out[0] == 0.0
    assert abs(out[1] - 10.0) <= 1e-6


def test_gelu_grad_matches_fd(weighted_sum):
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=12), requires_grad=True)
    w = rng.normal(size=12)

    def loss():
        return weighted_sum(ag.gelu(x), w)

    zero_grads([x])
    backward(loss())
    assert_grad_close(x.grad, fd_grad(loss, x))


# -- embedding gather -------------------------------------------------------------


def test_embedding_gather_repeated_and_ordered_rows():
    table = Tensor(np.arange(12.0).reshape(3, 4))
    out = ag.embedding_gather(table, [0, 0])
    assert np.array_equal(out.data[0], out.data[1])
    out = ag.embedding_gather(table, [2, 1])
    assert np.array_equal(out.data[0], table.data[2])
    assert np.array_equal(out.data[1], table.data[1])


def test_embedding_gather_out_of_range_names_id_and_size():
    table = Tensor(np.zeros((3, 4)))
    with pytest.raises(IndexError, match=r"7.*3 rows"):
        ag.embedding_gather(table, [0, 7])


def test_embedding_gather_repeated_id_grad_sums(weighted_sum):
    rng = np.random.default_rng(4)
    table = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3, 4))

    def loss():
        return weighted_sum(ag.embedding_gather(table, [1, 1, 1]), w[:3])

    zero_grads([table])
    backward(loss())
    assert np.allclose(table.grad[1], w[:3].sum(axis=0))
    assert np.allclose(table.grad[0], 0.0)
    assert_grad_close(table.grad, fd_grad(loss, table))


def test_embedding_gather_grad_over_unsorted_repeats_matches_fd(weighted_sum):
    rng = np.random.default_rng(8)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([[4, 0, 4], [2, 4, 0]])
    w = rng.normal(size=(2, 3, 3))

    def loss():
        return weighted_sum(ag.embedding_gather(table, ids), w)

    zero_grads([table])
    backward(loss())
    assert np.allclose(table.grad[4], w[0, 0] + w[0, 2] + w[1, 1])
    assert np.all(table.grad[[1, 3, 5]] == 0.0)
    assert_grad_close(table.grad, fd_grad(loss, table))


# -- linear and packed rows ------------------------------------------------------


def test_linear_is_matmul_plus_bias_and_grad_matches_fd(weighted_sum):
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    weights = rng.normal(size=(2, 3, 5))
    out = ag.linear(x, w, b)
    assert out.shape == (2, 3, 5)
    assert np.allclose(out.data, x.data @ w.data + b.data, rtol=1e-12, atol=1e-12)

    def loss():
        return weighted_sum(ag.linear(x, w, b), weights)

    zero_grads([x, w, b])
    backward(loss())
    for t in (x, w, b):
        assert_grad_close(t.grad, fd_grad(loss, t))
    with pytest.raises(ShapeError):
        ag.linear(x, w, Tensor(np.zeros(4)))


# a batch of two rows of four positions; rows 0 and 1 hold 3 and 2 tokens,
# with a pad between the two tokens of row 1
PACKED = (np.array([0, 0, 0, 1, 1]), np.array([0, 1, 2, 0, 3]))


def test_scatter_and_gather_rows_place_packed_rows_and_grads_match_fd(weighted_sum):
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    out = ag.scatter_rows(x, PACKED, (2, 4, 3))
    assert np.array_equal(out.data[PACKED], x.data)
    assert np.all(out.data[0, 3] == 0.0) and np.all(out.data[1, 1:3] == 0.0)
    assert np.array_equal(ag.gather_rows(out, PACKED).data, x.data)

    full = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w_out = rng.normal(size=(2, 4, 3))
    w_rows = rng.normal(size=(5, 3))

    def loss():
        return (weighted_sum(ag.scatter_rows(x, PACKED, (2, 4, 3)), w_out)
                + weighted_sum(ag.gather_rows(full, PACKED), w_rows))

    zero_grads([x, full])
    backward(loss())
    assert np.array_equal(x.grad, w_out[PACKED])
    assert np.all(full.grad[0, 3] == 0.0) and np.all(full.grad[1, 1:3] == 0.0)
    assert_grad_close(x.grad, fd_grad(loss, x))
    assert_grad_close(full.grad, fd_grad(loss, full))


# -- attention -------------------------------------------------------------------


def _key_mask(index, shape, masked=()):
    """[B, L] True at the positions of `index`, less the `masked` ones."""
    mask = np.zeros(shape, dtype=bool)
    mask[index] = True
    for pos in masked:
        mask[pos] = False
    return mask


def _bias(mask):
    return np.where(mask, 0.0, -1e9)[:, None, None, :]


def attention_reference(q, k, v, index, mask, n_heads):
    """Attention written out per batch row and head over the padded layout,
    pad keys included: softmax(Q K^T / sqrt(e) + bias) V. Returns the
    context at `index`."""
    batch, seq_len = mask.shape
    d = q.shape[1]
    e = d // n_heads
    ctx = np.zeros((batch, seq_len, d))
    for b in range(batch):
        rows = index[0] == b
        Q, K, V = (np.zeros((seq_len, d)) for _ in range(3))
        for full, packed in ((Q, q), (K, k), (V, v)):
            full[index[1][rows]] = packed[rows]
        for h in range(n_heads):
            cols = slice(h * e, (h + 1) * e)
            s = Q[:, cols] @ K[:, cols].T / np.sqrt(e) + np.where(mask[b], 0.0, -1e9)
            w = np.exp(s - s.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            ctx[b, :, cols] = w @ V[:, cols]
    return ctx[index]


def test_attention_matches_a_numpy_reference_and_pad_keys_get_zero_weight(weighted_sum):
    rng = np.random.default_rng(15)
    q, k, v = (rng.normal(size=(5, 6)) for _ in range(3))
    mask = _key_mask(PACKED, (2, 4))
    out = ag.attention(Tensor(q), Tensor(k), Tensor(v), PACKED, _bias(mask), 3)
    assert out.shape == (5, 6)
    ref = attention_reference(q, k, v, PACKED, mask, 3)
    assert np.allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    # a pad key acts exactly as a real key that the bias masks: made a real
    # row with random q, k and v, position (1, 1) leaves every other row's
    # context the same to the bit
    index = (np.array([0, 0, 0, 1, 1, 1]), np.array([0, 1, 2, 0, 1, 3]))
    qkv = [Tensor(np.insert(t, 4, rng.normal(size=6), axis=0), requires_grad=True)
           for t in (q, k, v)]
    out_masked = ag.attention(*qkv, index, _bias(mask), 3)
    assert np.array_equal(np.delete(out_masked.data, 4, axis=0), out.data)
    # and it gets weight exactly 0 from every query: no gradient reaches it
    backward(weighted_sum(out_masked, rng.normal(size=(6, 6))))
    k_grad, v_grad = qkv[1].grad, qkv[2].grad
    assert np.all(k_grad[4] == 0.0) and np.all(v_grad[4] == 0.0)
    assert np.abs(v_grad[3]).sum() > 0


# row 0's second token is a real row whose key the bias masks
MASKED_KEY = [(0, 1)]


def _attention_grads_match_fd(weighted_sum, seed):
    """FD check of q, k and v through attention, inputs drawn from `seed`."""
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(rng.normal(size=(5, 6)), requires_grad=True) for _ in range(3))
    bias = _bias(_key_mask(PACKED, (2, 4), MASKED_KEY))
    w = rng.normal(size=(5, 6))

    def loss():
        return weighted_sum(ag.attention(q, k, v, PACKED, bias, 3), w)

    zero_grads([q, k, v])
    backward(loss())
    for t in (q, k, v):
        assert_grad_close(t.grad, fd_grad(loss, t))
    assert np.all(k.grad[1] == 0.0) and np.all(v.grad[1] == 0.0)


def test_attention_grads_match_fd_with_a_masked_row(weighted_sum):
    _attention_grads_match_fd(weighted_sum, 16)


# The steps that were separate ops before attention owned them (the two
# products, the softmax, the split into heads and the merge back), each
# checked through attention.

# one batch row of four real tokens
FULL = (np.zeros(4, dtype=int), np.arange(4))


def _one_hot_queries(index, heads, c=100.0):
    """Rows whose every head of width 4 is `c` times the one-hot vector of
    the row's position (of 4): with q = k, each query's own key scores
    c^2 / 2 and every other real key 0, so the weights are exactly the
    identity."""
    return np.tile(c * np.eye(4)[index[1]], heads)


def test_matmul_identity():
    # identity weights: I @ V = V, to the bit
    v = np.arange(16.0).reshape(4, 4)
    qk = Tensor(_one_hot_queries(FULL, 1))
    bias = _bias(_key_mask(FULL, (1, 4)))
    assert np.array_equal(ag.attention(qk, qk, Tensor(v), FULL, bias, 1).data, v)
    # and V = I returns the weights, P @ I = P
    rng = np.random.default_rng(8)
    q, k = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    s = q @ k.T / 2.0
    p = np.exp(s - s.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    out = ag.attention(Tensor(q), Tensor(k), Tensor(np.eye(4)), FULL, bias, 1)
    assert np.allclose(out.data, p, rtol=1e-12, atol=1e-15)


def test_matmul_hand_product():
    # width 1, one head, so the scale is 1: query 0 scores the keys 0 and
    # ln 3, weights 1/4 and 3/4; query 1 scores both 0, weights 1/2 each
    index = (np.zeros(2, dtype=int), np.arange(2))
    q = Tensor([[1.0], [0.0]])
    k = Tensor([[0.0], [np.log(3.0)]])
    v = Tensor([[4.0], [8.0]])
    out = ag.attention(q, k, v, index, np.zeros((1, 1, 1, 2)), 1)
    assert np.allclose(out.data, [[7.0], [6.0]], rtol=1e-14, atol=0.0)


def _fd_check_qkv(weighted_sum, seed, index, seq_len, width, heads):
    rng = np.random.default_rng(seed)
    n = len(index[0])
    q, k, v = (Tensor(rng.normal(size=(n, width)), requires_grad=True) for _ in range(3))
    bias = _bias(_key_mask(index, (int(index[0].max()) + 1, seq_len)))
    w = rng.normal(size=(n, width))

    def loss():
        return weighted_sum(ag.attention(q, k, v, index, bias, heads), w)

    zero_grads([q, k, v])
    backward(loss())
    for t in (q, k, v):
        assert_grad_close(t.grad, fd_grad(loss, t))


def test_matmul_grad_matches_fd(weighted_sum):
    # one batch row, one head: both products are plain 2-D ones
    _fd_check_qkv(weighted_sum, 0, FULL, 4, 3, 1)


def test_matmul_batched_grad_matches_fd(weighted_sum):
    # three full batch rows of two heads: the products run over [B, H]
    index = (np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3))
    _fd_check_qkv(weighted_sum, 1, index, 4, 4, 2)


def test_split_heads_matches_scatter_reshape_swapaxes_and_grad_matches_fd(weighted_sum):
    rng = np.random.default_rng(13)
    q, k, v = (rng.normal(size=(5, 6)) for _ in range(3))
    bias = _bias(_key_mask(PACKED, (2, 4)))
    out = ag.attention(Tensor(q), Tensor(k), Tensor(v), PACKED, bias, 3).data
    # head h reads columns [2h, 2h + 2) of its own batch row's tokens only:
    # three heads are three one-head attentions over those columns
    for h in range(3):
        cols = slice(2 * h, 2 * h + 2)
        one = ag.attention(Tensor(q[:, cols]), Tensor(k[:, cols]), Tensor(v[:, cols]),
                           PACKED, bias, 1)
        assert np.allclose(out[:, cols], one.data, rtol=1e-12, atol=1e-12)
    other = [t.copy() for t in (q, k, v)]
    for t in other:
        t[3:] = rng.normal(size=(2, 6))
    changed = ag.attention(*(Tensor(t) for t in other), PACKED, bias, 3).data
    assert np.array_equal(changed[:3], out[:3])
    _fd_check_qkv(weighted_sum, 13, PACKED, 4, 6, 3)


def test_merge_heads_inverts_split_heads_and_grad_matches_fd(weighted_sum):
    # identity weights in both heads of both batch rows, pads between: the
    # context is v itself, so merging back to rows inverts the split
    rng = np.random.default_rng(14)
    qk = Tensor(_one_hot_queries(PACKED, 2))
    v = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    bias = _bias(_key_mask(PACKED, (2, 4)))
    out = ag.attention(qk, qk, v, PACKED, bias, 2)
    assert np.array_equal(out.data, v.data)
    w = rng.normal(size=(5, 8))

    def loss():
        return weighted_sum(ag.attention(qk, qk, v, PACKED, bias, 2), w)

    zero_grads([v])
    backward(loss())
    assert np.array_equal(v.grad, w)
    assert_grad_close(v.grad, fd_grad(loss, v))


def test_softmax_rows_and_grad(weighted_sum):
    # v = I at each token's position makes the context the weight rows
    rng = np.random.default_rng(7)
    q = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    v = Tensor(np.eye(4)[PACKED[1]])
    mask = _key_mask(PACKED, (2, 4), MASKED_KEY)
    out = ag.attention(q, k, v, PACKED, _bias(mask), 1).data
    assert np.allclose(out.sum(axis=1), 1.0, rtol=1e-12, atol=0.0)
    assert np.all(out[PACKED[0] == 0][:, [1, 3]] == 0.0)
    assert np.all(out[PACKED[0] == 1][:, 1:3] == 0.0)
    assert np.all(out[:3][:, [0, 2]] > 0.0) and np.all(out[3:][:, [0, 3]] > 0.0)
    w = rng.normal(size=(5, 4))

    def loss():
        return weighted_sum(ag.attention(q, k, v, PACKED, _bias(mask), 1), w)

    zero_grads([q, k])
    backward(loss())
    assert_grad_close(q.grad, fd_grad(loss, q))
    assert_grad_close(k.grad, fd_grad(loss, k))


def test_attention_rejects_unequal_rows_and_indivisible_heads():
    q = Tensor(np.zeros((5, 6)))
    bias = _bias(_key_mask(PACKED, (2, 4)))
    with pytest.raises(ShapeError, match=r"\(5, 6\).*\(5, 4\)"):
        ag.attention(q, Tensor(np.zeros((5, 4))), q, PACKED, bias, 2)
    with pytest.raises(ShapeError, match="4 heads"):
        ag.attention(q, q, q, PACKED, bias, 4)


# -- softmax cross entropy ----------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((1, 16)))
    loss = ag.softmax_cross_entropy(logits, [3])
    assert abs(loss.item() - np.log(16)) < 1e-12


def test_cross_entropy_all_ignored_is_zero_with_zero_grad():
    logits = Tensor(np.random.default_rng(5).normal(size=(4, 7)),
                    requires_grad=True)
    loss = ag.softmax_cross_entropy(logits, [-100] * 4, ignore_label=-100)
    assert loss.item() == 0.0
    backward(loss)
    assert np.all(logits.grad == 0.0)


def test_cross_entropy_target_out_of_range():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(IndexError, match="5"):
        ag.softmax_cross_entropy(logits, [0, 5])


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    targets = [0, 3, -100, 6, 2]

    def loss():
        return ag.softmax_cross_entropy(logits, targets, ignore_label=-100)

    zero_grads([logits])
    backward(loss())
    assert_grad_close(logits.grad, fd_grad(loss, logits))


# -- backward driver ------------------------------------------------------------------


def test_backward_dot_swaps_operands(weighted_sum):
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    y = Tensor([4.0, 5.0, 6.0], requires_grad=True)
    backward(weighted_sum(x, y))
    assert np.array_equal(x.grad, y.data)
    assert np.array_equal(y.grad, x.data)


def test_backward_accumulates_across_calls(weighted_sum):
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = weighted_sum(x, x)
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    assert np.allclose(x.grad, 2 * first)


def test_backward_keeps_gradients_on_leaves_only(weighted_sum):
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    hidden = ag.gelu(ag.linear(x, w, Tensor(np.zeros(2))))
    loss = weighted_sum(hidden, rng.normal(size=(3, 2)))
    backward(loss)
    assert hidden.grad is None and loss.grad is None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert np.abs(x.grad).sum() > 0 and np.abs(w.grad).sum() > 0


def test_add_reduces_no_gradient_for_a_constant_operand(weighted_sum, monkeypatch):
    rng = np.random.default_rng(13)
    scores = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=(2, 1, 1, 4)))  # a constant, broadcast operand
    reduced = []
    real = ag._unbroadcast

    def spy(grad, shape):
        reduced.append(shape)
        return real(grad, shape)

    monkeypatch.setattr(ag, "_unbroadcast", spy)
    w = rng.normal(size=(2, 3, 4, 4))
    backward(weighted_sum(scores + bias, w))
    assert bias.shape not in reduced and bias.grad is None
    assert np.array_equal(scores.grad, w)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(x + x)


def test_shape_ops_grad_matches_fd(weighted_sum):
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 6)))
    b = Tensor(rng.normal(size=6))

    def loss():
        t = x.swapaxes(0, 1)
        return weighted_sum(ag.linear(t, w, b), np.ones((3, 2, 6)))

    zero_grads([x])
    backward(loss())
    assert_grad_close(x.grad, fd_grad(loss, x))


def test_no_nan_through_random_composites():
    rng = np.random.default_rng(10)
    for trial in range(5):
        x = Tensor(rng.normal(size=(4, 6)) * 10, requires_grad=True)
        g = Tensor(rng.normal(size=6), requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)
        h = ag.gelu(ag.layer_norm(x, g, b, 1e-12))
        loss = ag.softmax_cross_entropy(h, rng.integers(0, 6, size=4))
        assert np.isfinite(loss.data).all()
        backward(loss)
        for t in (x, g, b):
            assert np.isfinite(t.grad).all()


def test_forward_and_grad_determinism():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        loss = ag.softmax_cross_entropy(ag.linear(x, w, Tensor(np.zeros(4))), [0, 1, 2])
        backward(loss)
        return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


# -- adam -------------------------------------------------------------------------


def _single_param(value):
    return {"w": Tensor(np.array([value]), requires_grad=True)}


def test_adam_zero_grad_leaves_params_unchanged():
    params = _single_param(1.5)
    state = init_adam(params)
    params["w"].grad = np.zeros(1)
    adam_step(params, state, lr=0.1)
    assert params["w"].data[0] == 1.5


def test_adam_first_step_magnitude():
    params = _single_param(1.0)
    state = init_adam(params)
    params["w"].grad = np.ones(1)
    adam_step(params, state, lr=0.01, beta1=0.0, beta2=0.0, eps=1e-12)
    assert abs((1.0 - params["w"].data[0]) - 0.01) < 1e-8


def test_adam_descends_quadratic():
    params = _single_param(1.0)
    state = init_adam(params)
    values = [1.0]
    for _ in range(2):
        params["w"].grad = 2 * params["w"].data.copy()
        adam_step(params, state, lr=0.05)
        values.append(abs(float(params["w"].data[0])))
    assert values[1] < values[0] and values[2] < values[1]


def test_adam_shape_mismatch_is_contract_error():
    params = _single_param(1.0)
    state = init_adam(params)
    params["w"].grad = np.ones(2)
    with pytest.raises(ShapeError):
        adam_step(params, state, lr=0.1)
    with pytest.raises(ShapeError):
        adam_step({"other": Tensor(np.ones(1), requires_grad=True)},
                  AdamState(0, {"w": np.ones(1)}, {"w": np.ones(1)}), lr=0.1)


# -- graph-free forward ----------------------------------------------------------


def test_detached_shares_arrays_and_builds_no_graph():
    rng = np.random.default_rng(4)
    params = {
        "w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
        "b": Tensor(rng.normal(size=4), requires_grad=True),
        "g": Tensor(np.ones(4), requires_grad=True),
        "emb": Tensor(rng.normal(size=(5, 3)), requires_grad=True),
    }
    free = ag.detached(params)
    assert set(free) == set(params)
    for name, p in params.items():
        assert free[name] is not p
        assert np.shares_memory(free[name].data, p.data), name
        assert not free[name].requires_grad
        assert p.requires_grad, name  # the caller's flags are left alone

    def forward(q):
        x = ag.embedding_gather(q["emb"], np.array([[0, 4, 4], [2, 1, 0]]))
        h = ag.layer_norm(ag.gelu(ag.linear(x, q["w"], q["b"])), q["g"], q["b"])
        return ag.gelu(h.swapaxes(0, 1))

    out = forward(free)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    ref = forward(params)
    assert ref.requires_grad and ref._parents
    assert np.array_equal(out.data, ref.data)

    # in-place updates to a parameter show through the stand-in
    params["w"].data[0, 0] += 1.0
    assert free["w"].data[0, 0] == params["w"].data[0, 0]
    assert all(p.grad is None for p in params.values())


def test_grad_check_probes_leave_flags_and_weights_as_they_were_even_when_raising(
    weighted_sum,
):
    w = Tensor(np.ones(3), requires_grad=True)
    const = Tensor(np.full(3, 2.0))  # a tensor the caller does not train
    params = {"w": w, "const": const}
    seen = []

    def failing_probe(p):
        seen.append({name: t.requires_grad for name, t in p.items()})
        if len(seen) > 1:
            raise RuntimeError("probe failed")
        return weighted_sum(p["w"], p["const"])

    with pytest.raises(RuntimeError, match="probe failed"):
        finite_difference_errors(failing_probe, params)
    assert w.requires_grad and not const.requires_grad
    assert np.array_equal(w.data, np.ones(3))  # the probed element is put back
    assert seen == [{"w": True, "const": False}, {"w": False, "const": False}]

    finite_difference_errors(lambda p: weighted_sum(p["w"], p["w"]), params)
    assert w.requires_grad and not const.requires_grad


# -- allocator policy --------------------------------------------------------------


class StandInLibc:
    """Records the `mallopt` calls a C library would receive."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


def test_malloc_thresholds_are_fixed_by_two_mallopt_calls():
    libc = StandInLibc()
    ag.fix_malloc_thresholds(libc, platform="linux")
    # parameter numbers from glibc's malloc.h
    assert libc.calls == [(-3, ag.MMAP_THRESHOLD), (-1, ag.TRIM_THRESHOLD)]


def test_malloc_thresholds_need_linux_and_mallopt(monkeypatch):
    libc = StandInLibc()
    for platform in ("darwin", "win32"):
        ag.fix_malloc_thresholds(libc, platform=platform)
    assert libc.calls == []
    ag.fix_malloc_thresholds(object(), platform="linux")  # a C library without mallopt

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(ag.ctypes, "CDLL", no_library)
    ag.fix_malloc_thresholds(platform="linux")

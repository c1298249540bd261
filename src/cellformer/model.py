"""The layout-aware encoder: summed word/1D/2D-position input embeddings, a
post-layer-norm transformer stack, and the five output heads.

2D position embeddings are looked up per coordinate: one table serves x0 and
x1, another serves y0 and y1, so tokens sharing a cell (cell-level mode)
share their entire layout contribution.

The encoder works on packed rows: it gathers a batch's real tokens once into
[N, d] (N real tokens across the batch, in row-major order of their [B, L]
positions), runs every position-wise block there and returns those rows
(see `encode`). Only the attention op (`autograd.attention`) uses the
padded [B, H, L, L] layout, inside itself. Every head is a plain
projection of rows; a loss picks the rows it scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .documents import CELL_LEVEL, COORD_MAX, check_layout_mode
from .metrics import TAG_LABELS

MASK_NEG = -1e9

COORD_VOCAB = COORD_MAX + 1  # rows of each 2D-position table


@dataclass
class ModelConfig:
    vocab_size: int
    num_layers: int = 2
    num_heads: int = 4
    hidden_d: int = 64
    ffn_d: int = 256
    max_len: int = 128
    num_areas: int = 16
    num_doc_classes: int = 3
    layout_mode: str = CELL_LEVEL

    def __post_init__(self):
        check_layout_mode(self.layout_mode)
        for name in ("vocab_size", "num_layers", "num_heads", "hidden_d", "ffn_d",
                     "num_areas", "num_doc_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_len < 3:
            raise ValueError(f"max_len must be at least 3, got {self.max_len}")
        if self.hidden_d % self.num_heads != 0:
            raise ValueError(
                f"hidden_d {self.hidden_d} not divisible by num_heads {self.num_heads}"
            )
        grid = math.isqrt(self.num_areas)
        if grid * grid != self.num_areas:
            raise ValueError(f"num_areas {self.num_areas} is not a perfect square")


PRETRAIN_HEADS = ("mlm", "cpc")
ALL_HEADS = ("mlm", "cpc", "tag", "span", "cls")


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    # normal clipped to +-2 sigma; close enough to resampling at this scale
    return np.clip(rng.normal(0.0, std, size=shape), -2 * std, 2 * std)


def parameter_shapes(config: ModelConfig, heads=PRETRAIN_HEADS) -> dict[str, tuple]:
    """Expected name -> shape map for a config, without allocating."""
    d = config.hidden_d
    shapes: dict[str, tuple] = {
        "word_emb": (config.vocab_size, d),
        "pos1d_emb": (config.max_len, d),
        "x_emb": (COORD_VOCAB, d),
        "y_emb": (COORD_VOCAB, d),
        "emb_ln_g": (d,),
        "emb_ln_b": (d,),
    }
    for i in range(config.num_layers):
        pre = f"layer{i}."
        for name in ("q", "k", "v", "o"):
            shapes[pre + name + "_w"] = (d, d)
            shapes[pre + name + "_b"] = (d,)
        shapes[pre + "ln1_g"] = (d,)
        shapes[pre + "ln1_b"] = (d,)
        shapes[pre + "f1_w"] = (d, config.ffn_d)
        shapes[pre + "f1_b"] = (config.ffn_d,)
        shapes[pre + "f2_w"] = (config.ffn_d, d)
        shapes[pre + "f2_b"] = (d,)
        shapes[pre + "ln2_g"] = (d,)
        shapes[pre + "ln2_b"] = (d,)
    if "mlm" in heads:
        shapes["mlm_bias"] = (config.vocab_size,)
    widths = {"cpc": config.num_areas, "tag": len(TAG_LABELS), "span": 2,
              "cls": config.num_doc_classes}  # logits per linear head
    for head, width in widths.items():
        if head in heads:
            shapes[head + "_w"] = (d, width)
            shapes[head + "_b"] = (width,)
    return shapes


def init_parameters(
    config: ModelConfig, rng: np.random.Generator, heads=PRETRAIN_HEADS,
    dtype=np.float64,
) -> dict[str, Tensor]:
    """Fresh trainable parameters of `dtype`, the precision the model then
    computes at, for the encoder plus the requested heads: ones for
    layer-norm gains (`*_g`), zeros for biases, truncated normal for every
    matrix, drawn in float64 in `parameter_shapes` order and then cast.

    The MLM projection is weight-tied to `word_emb`; only its bias is a
    separate array.
    """
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config, heads).items():
        if name.endswith("_g"):
            arr = np.ones(shape)
        elif name.endswith(("_b", "_bias")):
            arr = np.zeros(shape)
        else:
            arr = _trunc_normal(rng, shape)
        params[name] = Tensor(arr.astype(dtype, copy=False), requires_grad=True)
    return params


def heads_present(params: dict[str, Tensor]) -> tuple[str, ...]:
    """The heads whose parameters `params` holds, in ALL_HEADS order."""
    return tuple(h for h in ALL_HEADS
                 if ("mlm_bias" if h == "mlm" else h + "_w") in params)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def layout_contribution(params: dict[str, Tensor], boxes: np.ndarray) -> Tensor:
    """Summed 2D-position embedding x_emb[x0] + x_emb[x1] + y_emb[y0] +
    y_emb[y1] for boxes shaped [..., 4]."""
    boxes = np.asarray(boxes)
    x = params["x_emb"]
    y = params["y_emb"]
    return (
        ag.embedding_gather(x, boxes[..., 0])
        + ag.embedding_gather(x, boxes[..., 2])
        + ag.embedding_gather(y, boxes[..., 1])
        + ag.embedding_gather(y, boxes[..., 3])
    )


def input_embedding(
    params: dict[str, Tensor],
    token_ids: np.ndarray,
    positions: np.ndarray,
    boxes: np.ndarray,
) -> Tensor:
    """Word + 1D-position + summed 2D-position embeddings, layer-normed.

    Takes one entry per token: `token_ids` and their sequence `positions`
    are [N] (or any matching shape), and `boxes` adds a trailing axis of 4.
    """
    words = ag.embedding_gather(params["word_emb"], token_ids)
    pos = ag.embedding_gather(params["pos1d_emb"], positions)
    summed = words + pos + layout_contribution(params, boxes)
    return ag.layer_norm(summed, params["emb_ln_g"], params["emb_ln_b"])


def _attention_bias(attn_mask: np.ndarray, dtype) -> np.ndarray:
    """[B, 1, 1, L] additive bias: 0 at visible keys, MASK_NEG at pad."""
    mask = np.asarray(attn_mask, dtype=bool)
    return np.where(mask, 0.0, MASK_NEG).astype(dtype)[:, None, None, :]


def encode(
    params: dict[str, Tensor],
    config: ModelConfig,
    token_ids: np.ndarray,
    boxes: np.ndarray,
    attn_mask: np.ndarray,
) -> Tensor:
    """Full encoder stack over a batch; returns the hidden states of its
    real tokens as packed rows [N, d], N = attn_mask.sum(), in row-major
    order of attn_mask's True positions.

    `attn_mask` is [B, L] boolean, False at [PAD] positions; pad keys are
    excluded from every attention softmax.

    The stack runs on the real tokens alone, packed into rows [N, d] in
    row-major order of their positions: the input embedding, the Q/K/V/O
    and FFN projections, GELU, both layer norms and the residual adds are
    position-wise, so a pad position never reaches a real one through
    them. Only the attention op scatters the rows into the padded layout
    [B, H, L', d / H], over the prefix L' that ends at the last position
    any row attends to. Pad queries, keys and values are zeros there, and
    pad keys get weight exactly 0, as any masked key does.
    """
    token_ids = np.atleast_2d(np.asarray(token_ids))
    boxes = np.asarray(boxes).reshape(token_ids.shape + (4,))
    attn_mask = np.atleast_2d(np.asarray(attn_mask, dtype=bool))

    attended = np.flatnonzero(attn_mask.any(axis=0))
    seq_len = int(attended[-1]) + 1 if len(attended) else token_ids.shape[1]
    attn_mask = attn_mask[:, :seq_len]
    real = np.nonzero(attn_mask)  # (row, position) of each packed token

    h = input_embedding(params, token_ids[real], real[1], boxes[real])
    bias = _attention_bias(attn_mask, h.data.dtype)

    for i in range(config.num_layers):
        pre = f"layer{i}."
        q, k, v = (ag.linear(h, params[pre + n + "_w"], params[pre + n + "_b"])
                   for n in "qkv")
        ctx = ag.attention(q, k, v, real, bias, config.num_heads)
        attn_out = ag.linear(ctx, params[pre + "o_w"], params[pre + "o_b"])
        h = ag.layer_norm(h + attn_out, params[pre + "ln1_g"], params[pre + "ln1_b"])

        ffn = ag.linear(
            ag.gelu(ag.linear(h, params[pre + "f1_w"], params[pre + "f1_b"])),
            params[pre + "f2_w"], params[pre + "f2_b"],
        )
        h = ag.layer_norm(h + ffn, params[pre + "ln2_g"], params[pre + "ln2_b"])
    return h


def head_mlm(params: dict[str, Tensor], hidden: Tensor) -> Tensor:
    """Token logits over the vocabulary; projection weight-tied to word_emb."""
    return ag.linear(hidden, params["word_emb"].swapaxes(0, 1), params["mlm_bias"])


def _linear_head(name: str):
    def head(params: dict[str, Tensor], hidden: Tensor) -> Tensor:
        return ag.linear(hidden, params[name + "_w"], params[name + "_b"])
    return head


# per-row logits: cell area, BIES tag, span start/end, document class ([CLS] row)
head_cpc, head_tag, head_span, head_cls = map(_linear_head, ("cpc", "tag", "span", "cls"))

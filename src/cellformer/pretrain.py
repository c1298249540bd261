"""The two self-supervised objectives: masked-token prediction with layout
kept intact, and cell position classification over an NxN page grid.

Sampling order matters: token masking runs first, then cell selection is
restricted to cells containing no masked token, so the position task can
never leak through a mask.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, gather_rows, softmax_cross_entropy
from .documents import COORD_MAX, TokenizedSequence
from .vocab import RESERVED, MASK_ID

IGNORE_LABEL = -100


def derive_rng(*parts) -> np.random.Generator:
    """Independent random stream keyed by a tuple of ints/strings.

    Stable across runs and platforms (unlike Python's salted hash).
    """
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    words = np.frombuffer(h[:16], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words.tolist())))


# The corruption recipe. A real token is selected for MVLM at MASK_RATE; a
# selected token is masked MASK_TOKEN_FRAC of the time, randomized
# RANDOM_FRAC of the time and kept otherwise. A cell with no masked token is
# selected for CPC at CELL_SELECT_RATE; its boxes are zeroed ZERO_BOX_FRAC of
# the time and kept otherwise.
MASK_RATE = 0.15
MASK_TOKEN_FRAC = 0.8
RANDOM_FRAC = 0.1
CELL_SELECT_RATE = 0.15
ZERO_BOX_FRAC = 0.9


@dataclass
class PretrainConfig:
    """What pre-training alone reads: the held-out split and the evaluation
    interval. Every heldout_every-th document is held out, and its loss is
    logged every eval_every steps (0 turns either off). The area count N
    belongs to the model config: it sizes the position head."""

    eval_every: int = 250
    heldout_every: int = 50

    def __post_init__(self):
        if min(self.eval_every, self.heldout_every) < 0 or self.heldout_every == 1:
            raise ValueError("eval_every and heldout_every must be non-negative; "
                             "heldout_every=1 would hold out every document")


def area_of(box, n_areas: int) -> int:
    """Grid area index of a box's center on the sqrt(N) x sqrt(N) partition
    of the 0..1000 page, row-major from the top-left."""
    grid = math.isqrt(n_areas)
    if grid * grid != n_areas:
        raise ValueError(f"n_areas {n_areas} is not a perfect square")
    x0, y0, x1, y1 = box
    if not (0 <= x0 <= x1 <= COORD_MAX and 0 <= y0 <= y1 <= COORD_MAX):
        raise ValueError(f"invalid box {tuple(box)}")
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    col = min(int(cx * grid / COORD_MAX), grid - 1)
    row = min(int(cy * grid / COORD_MAX), grid - 1)
    return row * grid + col


@dataclass
class PretrainExample:
    """One corrupted training example with both label sets applied."""

    doc_id: str
    token_ids: np.ndarray
    boxes: np.ndarray
    mvlm_labels: np.ndarray
    cpc_labels: np.ndarray
    masked_token_positions: np.ndarray
    selected_cell_indices: np.ndarray
    length: int


def sample_mvlm(
    seq: TokenizedSequence,
    vocab_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select ~MASK_RATE of real tokens and rewrite them 80/10/10 as
    [MASK] / random non-reserved token / unchanged. Boxes stay untouched.

    Returns (corrupted token_ids, labels with the original id at selected
    positions and the ignore sentinel elsewhere, selected positions). At
    least one token is always selected.
    """
    n = len(seq.token_ids)
    eligible = seq.content_mask()
    if not eligible.any():
        raise ValueError(f"document {seq.doc_id} has no maskable tokens")

    selected = eligible & (rng.random(n) < MASK_RATE)

    # fixed draw counts keep the stream layout independent of the selection
    action = rng.random(n)
    random_ids = rng.integers(len(RESERVED), vocab_size, size=n)

    if not selected.any():
        idx = np.nonzero(eligible)[0]
        selected[idx[rng.integers(len(idx))]] = True

    token_ids = seq.token_ids.copy()
    to_mask = selected & (action < MASK_TOKEN_FRAC)
    to_random = selected & (action >= MASK_TOKEN_FRAC) & (
        action < MASK_TOKEN_FRAC + RANDOM_FRAC
    )
    token_ids[to_mask] = MASK_ID
    token_ids[to_random] = random_ids[to_random]

    labels = np.full(n, IGNORE_LABEL, dtype=np.int64)
    positions = np.nonzero(selected)[0]
    labels[positions] = seq.token_ids[positions]
    return token_ids, labels, positions


def sample_cpc(
    seq: TokenizedSequence,
    masked_token_positions: np.ndarray,
    num_areas: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select ~CELL_SELECT_RATE of the cells that contain no masked token;
    zero the selected cells' token boxes ZERO_BOX_FRAC of the time.

    Labels are the area (of `num_areas`) of the ORIGINAL cell box, at every
    token of a selected cell. Returns (boxes after zeroing, labels, selected
    cell indices).
    """
    masked_cells = set(seq.cell_index[masked_token_positions].tolist())
    masked_cells.discard(-1)
    present = np.unique(seq.cell_index[seq.cell_index >= 0])
    eligible = np.array([c for c in present.tolist() if c not in masked_cells],
                        dtype=np.int64)

    boxes = seq.boxes.copy()
    labels = np.full(len(seq.token_ids), IGNORE_LABEL, dtype=np.int64)
    if len(eligible) == 0:
        return boxes, labels, np.empty(0, dtype=np.int64)

    pick = rng.random(len(eligible)) < CELL_SELECT_RATE
    zero_draw = rng.random(len(eligible))
    selected = eligible[pick]
    for cell, zero_u in zip(selected, zero_draw[pick]):
        positions = seq.cell_index == cell
        labels[positions] = area_of(seq.cell_boxes[cell], num_areas)
        if zero_u < ZERO_BOX_FRAC:
            boxes[positions] = 0
    return boxes, labels, selected


def make_pretrain_example(
    seq: TokenizedSequence,
    vocab_size: int,
    num_areas: int,
    rng: np.random.Generator,
) -> PretrainExample:
    """Apply both corruptions to one encoded document; `vocab_size` and
    `num_areas` are the model's."""
    token_ids, mvlm_labels, positions = sample_mvlm(seq, vocab_size, rng)
    boxes, cpc_labels, cells = sample_cpc(seq, positions, num_areas, rng)
    return PretrainExample(
        doc_id=seq.doc_id,
        token_ids=token_ids,
        boxes=boxes,
        mvlm_labels=mvlm_labels,
        cpc_labels=cpc_labels,
        masked_token_positions=positions,
        selected_cell_indices=cells,
        length=seq.length,
    )


def labeled_rows(rows: Tensor, labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Packed rows [N, d] and their labels [N] (a batch's labels at the
    encoder's real positions, `labels[attn_mask]`) cut down to the labeled
    rows, in order: [n, d] and [n]. Unlabeled rows add nothing to a
    cross-entropy, so a head need not run on them."""
    index = np.nonzero(labels != IGNORE_LABEL)
    return gather_rows(rows, index), labels[index]


def pretrain_loss(
    mlm_logits: Tensor,
    cpc_logits: Tensor | None,
    mvlm_labels: np.ndarray,
    cpc_labels: np.ndarray | None,
) -> tuple[Tensor, dict]:
    """Sum of the two cross-entropies plus per-component metrics.

    Either component with no labeled positions contributes exactly zero.
    """
    loss = softmax_cross_entropy(mlm_logits, mvlm_labels, IGNORE_LABEL)
    metrics = {"mvlm_loss": loss.item()}
    total = loss
    if cpc_logits is not None and cpc_labels is not None:
        cpc = softmax_cross_entropy(cpc_logits, cpc_labels, IGNORE_LABEL)
        total = total + cpc
        labeled = cpc_labels != IGNORE_LABEL
        n_labeled = int(labeled.sum())
        if n_labeled:
            pred = np.argmax(cpc_logits.data, axis=-1)
            n_correct = int((pred[labeled] == cpc_labels[labeled]).sum())
        else:
            n_correct = 0
        metrics["cpc_loss"] = cpc.item()
        metrics["cpc_acc"] = n_correct / n_labeled if n_labeled else 0.0
        metrics["cpc_correct"] = n_correct
        metrics["cpc_labeled"] = n_labeled
    return total, metrics

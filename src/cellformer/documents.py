"""OCR cell documents: input checks, grid normalization, reading-order
serialization, and window encoding into model inputs.

A document is checked once, when `RawCell` and `RawDocument` are built: it
has cells, each cell's text is a non-empty string, every box (cell and word)
is four finite, non-negative numbers with x0 <= x1 and y0 <= y1, and the
page has finite, positive dimensions. After that a box has two forms only:
the pixel box the caller gave, and integers on the 0..1000 grid
(`grid_boxes`). A coordinate past the page maps to the grid edge.

(0, 0, 0, 0) marks [CLS]/[SEP]/[PAD] positions. In cell layout mode every
token of a cell carries the cell's box; in word mode each token carries its
word's box instead (given per-word boxes, or an equal-width horizontal split
of the cell box when absent).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .vocab import CLS_ID, PAD_ID, SEP_ID, Vocab, tokenize

COORD_MAX = 1000

CELL_LEVEL = "cell"
WORD_LEVEL = "word"
LAYOUT_MODES = (CELL_LEVEL, WORD_LEVEL)


class IngestError(ValueError):
    """Raw document data violates the ingestion contract."""


def check_layout_mode(mode: str) -> None:
    if mode not in LAYOUT_MODES:
        raise ValueError(f"unknown layout mode {mode!r}; expected one of {LAYOUT_MODES}")


# the upper bound also rejects NaN, infinities and ints too large for a float
_FLOAT_MAX = sys.float_info.max


def _is_box(box) -> bool:
    """Four finite, non-negative numbers with x0 <= x1 and y0 <= y1."""
    try:
        x0, y0, x1, y1 = box
        return (0 <= x0 <= x1 <= _FLOAT_MAX and 0 <= y0 <= y1 <= _FLOAT_MAX
                and bool not in {type(x0), type(y0), type(x1), type(y1)})
    except (TypeError, ValueError):  # not four numbers
        return False


@dataclass
class RawCell:
    """One OCR cell: text plus its pixel bounding box.

    `word_boxes` (one pixel box per whitespace word) is optional and only
    consumed by word layout mode.
    """

    text: str
    box: tuple[float, float, float, float]
    word_boxes: Optional[list[tuple[float, float, float, float]]] = None

    def __post_init__(self):
        if not isinstance(self.text, str) or not self.text.strip():
            raise IngestError(f"cell text must be a non-empty string, got {self.text!r}")
        self.text = self.text.lower()
        n_words = len(self.text.split())
        if self.word_boxes is not None and len(self.word_boxes) != n_words:
            raise IngestError(f"word_boxes count {len(self.word_boxes)} != word count {n_words}")
        for box in (self.box, *(self.word_boxes or ())):
            if not _is_box(box):
                raise IngestError(f"invalid box {box!r}: need four finite, non-negative "
                                  "numbers with x0 <= x1 and y0 <= y1")


@dataclass
class RawDocument:
    doc_id: str
    page_width: float
    page_height: float
    cells: list[RawCell]

    def __post_init__(self):
        w, h = self.page_width, self.page_height
        if not (_is_box((0, 0, w, h)) and min(w, h) > 0):
            raise IngestError(f"document {self.doc_id}: page width and height must be "
                              f"finite positive numbers, got {w!r} x {h!r}")
        if not self.cells:
            raise IngestError(f"document {self.doc_id} has no cells")


def grid_boxes(boxes: Sequence[Sequence[float]], page_w: float,
               page_h: float) -> np.ndarray:
    """Checked pixel boxes -> int64 [N, 4] boxes on the 0..COORD_MAX grid:
    floor(v * COORD_MAX / page_dim), clipped to [0, COORD_MAX]; a value at
    or past the page dimension is COORD_MAX, which float rounding of the
    quotient would miss on some fractional pages. Integral values on an
    integral page take an exact integer floor, which keeps boundary pixels
    from drifting across a unit through float rounding."""
    px = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    dims = np.array([page_w, page_h, page_w, page_h], dtype=np.float64)
    with np.errstate(over="ignore"):  # huge values scale to inf: the edge
        scaled = px * COORD_MAX
        # below 2**53 the float floor division of integers is exact
        exact = (px % 1 == 0) & (dims % 1 == 0) & (scaled < 2.0**53)
        grid = np.where(exact, np.where(exact, scaled, 0) // dims,
                        np.floor(scaled / dims))
    grid = np.where(px >= dims, COORD_MAX, grid)
    return np.clip(grid, 0, COORD_MAX).astype(np.int64)


@dataclass
class Cell:
    """A cell after normalization: words, grid cell box, grid word boxes,
    and the position it held in the source document."""

    words: tuple[str, ...]
    box: tuple[int, int, int, int]
    word_boxes: tuple[tuple[int, int, int, int], ...]
    source_index: int


def normalize_document(doc: RawDocument) -> list[Cell]:
    """The document's cells on the grid, in source order. A cell without
    word boxes splits its grid box into equal-width word boxes."""
    given = [wb for raw in doc.cells for wb in raw.word_boxes or ()]
    grid = grid_boxes([raw.box for raw in doc.cells] + given,
                      doc.page_width, doc.page_height).tolist()
    word_grid = iter(grid[len(doc.cells):])
    cells = []
    for i, (raw, (x0, y0, x1, y1)) in enumerate(zip(doc.cells, grid)):
        words = tuple(raw.text.split())
        n = len(words)
        if raw.word_boxes is not None:
            word_boxes = tuple(tuple(next(word_grid)) for _ in words)
        else:
            word_boxes = tuple((x0 + (x1 - x0) * j // n, y0,
                                x0 + (x1 - x0) * (j + 1) // n, y1) for j in range(n))
        cells.append(Cell(words, (x0, y0, x1, y1), word_boxes, i))
    return cells


def serialize_cells(cells: list[Cell]) -> list[Cell]:
    """Reading order: stable sort by (y0, x0, source position) of the
    grid cell box."""
    return sorted(cells, key=lambda c: (c.box[1], c.box[0], c.source_index))


@dataclass
class TokenizedSequence:
    """One encoded document window, padded to the model length L.

    All arrays have length L. `cell_index` and `word_index` are -1 at
    special/pad positions; `cell_boxes` holds the grid box of every
    serialized cell (indexable by cell_index) regardless of layout mode.
    """

    doc_id: str
    token_ids: np.ndarray
    cell_index: np.ndarray
    word_index: np.ndarray
    boxes: np.ndarray
    length: int
    cell_boxes: np.ndarray
    n_words: int

    def content_mask(self) -> np.ndarray:
        """True at real document tokens (excludes [CLS]/[SEP]/[PAD])."""
        return self.cell_index >= 0


def stack_batch(items) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encoder inputs for a batch of padded items (anything with
    `token_ids`, `boxes` and `length`): token ids [B, L], boxes [B, L, 4]
    and the attention mask [B, L], True before each item's length."""
    token_ids = np.stack([it.token_ids for it in items])
    boxes = np.stack([it.boxes for it in items])
    lengths = np.array([it.length for it in items])
    attn_mask = np.arange(token_ids.shape[1]) < lengths[:, None]
    return token_ids, boxes, attn_mask


def cell_tokens(cells: list[Cell], vocab: Vocab) -> Iterator[tuple[int, int, int]]:
    """(token id, cell index, word index) of every token of the serialized
    `cells`, in order."""
    w = 0
    for ci, cell in enumerate(cells):
        for word in cell.words:
            for piece in tokenize(word, vocab):
                yield vocab.id(piece), ci, w
            w += 1


def token_boxes(cells: list[Cell], mode: str, cell_index: np.ndarray,
                word_index: np.ndarray) -> np.ndarray:
    """Grid box of each token: its cell's (by cell index) in cell mode, its
    word's (by word index) in word mode."""
    if mode == CELL_LEVEL:
        table, index = [c.box for c in cells], cell_index
    else:
        table, index = [b for c in cells for b in c.word_boxes], word_index
    return np.array(table, dtype=np.int64).reshape(-1, 4)[index]


def encode_document(
    doc: RawDocument, vocab: Vocab, max_len: int, mode: str = CELL_LEVEL
) -> TokenizedSequence:
    """Serialize, tokenize, and window a document: [CLS] tokens [SEP],
    truncated at whole-token granularity, padded to `max_len`."""
    check_layout_mode(mode)
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")

    cells = serialize_cells(normalize_document(doc))
    # every cell has a word, so at least one token survives the cut
    ids, cell_idx, word_idx = np.array(
        list(islice(cell_tokens(cells, vocab), max_len - 2)), dtype=np.int64
    ).T
    n = len(ids)

    token_ids = np.full(max_len, PAD_ID, dtype=np.int64)
    token_ids[: n + 2] = [CLS_ID, *ids, SEP_ID]
    cell_index, word_index = np.full((2, max_len), -1, dtype=np.int64)
    cell_index[1 : 1 + n], word_index[1 : 1 + n] = cell_idx, word_idx

    boxes = np.zeros((max_len, 4), dtype=np.int64)
    boxes[1 : 1 + n] = token_boxes(cells, mode, cell_idx, word_idx)

    return TokenizedSequence(
        doc_id=doc.doc_id,
        token_ids=token_ids,
        cell_index=cell_index,
        word_index=word_index,
        boxes=boxes,
        length=n + 2,
        cell_boxes=np.array([c.box for c in cells], dtype=np.int64),
        n_words=sum(len(c.words) for c in cells),
    )

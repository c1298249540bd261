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
from itertools import chain, islice
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .vocab import CLS_ID, PAD_ID, SEP_ID, Vocab, tokenize_words

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
    floor(v * COORD_MAX / page_dim), at most COORD_MAX; a value at or past
    the page dimension is COORD_MAX, which float rounding of the quotient
    would miss on some fractional pages. Integral values on an integral
    page take their exact integer floor: below 2**53, v * COORD_MAX is
    exact, and the rounded quotient of two such integers never reaches the
    next integer."""
    px = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    dims = np.array([page_w, page_h, page_w, page_h], dtype=np.float64)
    with np.errstate(over="ignore"):  # huge values scale to inf: the edge
        grid = np.floor(px * COORD_MAX / dims)
    grid[px >= dims] = COORD_MAX
    return np.minimum(grid, COORD_MAX).astype(np.int64)


@dataclass
class Cell:
    """A cell after normalization: words, grid cell box, grid word boxes,
    and the position it held in the source document."""

    words: tuple[str, ...]
    box: tuple[int, int, int, int]
    word_boxes: tuple[tuple[int, int, int, int], ...]
    source_index: int


def _grid_layout(doc: RawDocument, n_words: np.ndarray,
                 word_level: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Grid boxes of the document's cells [C, 4], in source order, and in
    word layout those of its words [W, 4], in source order too: the given
    word boxes, or an equal-width split of the cell box where a cell has
    none. In cell layout no word box is read or made (None)."""
    cells = doc.cells
    given = [c.word_boxes for c in cells if c.word_boxes is not None] if word_level else []
    count = len(cells) + sum(map(len, given))
    pixels = np.fromiter(chain.from_iterable(chain((c.box for c in cells), *given)),
                         np.float64, 4 * count)
    grid = grid_boxes(pixels, doc.page_width, doc.page_height)
    cell_grid = grid[:len(cells)]
    if not word_level:
        return cell_grid, None
    word_cell = np.repeat(np.arange(len(cells)), n_words)
    j = np.arange(len(word_cell)) - np.repeat(np.cumsum(n_words) - n_words, n_words)
    n = n_words[word_cell]
    x0, y0, x1, y1 = cell_grid[word_cell].T
    word_grid = np.stack([x0 + (x1 - x0) * j // n, y0,
                          x0 + (x1 - x0) * (j + 1) // n, y1], axis=1)
    has_given = np.fromiter((c.word_boxes is not None for c in cells), bool, len(cells))
    word_grid[has_given[word_cell]] = grid[len(cells):]
    return cell_grid, word_grid


def normalize_document(doc: RawDocument) -> list[Cell]:
    """The document's cells on the grid, in source order. A cell without
    word boxes splits its grid box into equal-width word boxes."""
    words = [tuple(raw.text.split()) for raw in doc.cells]
    cell_grid, word_grid = _grid_layout(doc, np.array([len(w) for w in words]), True)
    word_boxes = iter(map(tuple, word_grid.tolist()))
    return [Cell(ws, tuple(box), tuple(islice(word_boxes, len(ws))), i)
            for i, (ws, box) in enumerate(zip(words, cell_grid.tolist()))]


def serialize_cells(cells: list[Cell]) -> list[Cell]:
    """Reading order: stable sort by (y0, x0, source position) of the
    grid cell box."""
    return sorted(cells, key=lambda c: (c.box[1], c.box[0], c.source_index))


class DocumentTokens(NamedTuple):
    """A document's token stream in reading order (`serialize_cells`):
    per token its id, its cell's and its word's index in reading order and
    its grid box, plus the grid box of every cell, in reading order, and
    the document's word count."""

    ids: np.ndarray
    cell_index: np.ndarray
    word_index: np.ndarray
    boxes: np.ndarray
    cell_boxes: np.ndarray
    n_words: int


def document_tokens(doc: RawDocument, vocab: Vocab, mode: str,
                    limit: Optional[int] = None) -> DocumentTokens:
    """The first `limit` tokens of `doc` (all of them when None), in one
    array pass: the boxes the layout mode reads go onto the grid, one
    lexsort orders the cells and per-word piece counts spread cell and word
    indices over the tokens. Each token's box is its cell's in cell mode
    and its word's in word mode."""
    check_layout_mode(mode)
    texts = [raw.text.split() for raw in doc.cells]
    n_words = np.fromiter(map(len, texts), np.int64, len(texts))
    cell_grid, word_grid = _grid_layout(doc, n_words, mode == WORD_LEVEL)
    order = np.lexsort((np.arange(len(texts)), cell_grid[:, 0], cell_grid[:, 1]))
    # every word has a piece, so the first `limit` words hold the first
    # `limit` tokens
    words = islice(chain.from_iterable(map(texts.__getitem__, order.tolist())), limit)
    ids, pieces = tokenize_words(words, vocab)
    word_index = np.repeat(np.arange(len(pieces)), pieces)[:limit]
    ordered_n_words = n_words[order]
    cell_index = np.repeat(np.arange(len(texts)), ordered_n_words)[word_index]
    if word_grid is None:
        boxes = cell_grid[order[cell_index]]
    else:  # source position of each word in reading order
        shift = np.cumsum(n_words)[order] - np.cumsum(ordered_n_words)
        boxes = word_grid[word_index + shift[cell_index]]
    return DocumentTokens(np.array(ids[:limit], dtype=np.int64), cell_index, word_index,
                          boxes, cell_grid[order], int(n_words.sum()))


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


def encode_document(
    doc: RawDocument, vocab: Vocab, max_len: int, mode: str = CELL_LEVEL
) -> TokenizedSequence:
    """Serialize, tokenize, and window a document: [CLS] tokens [SEP],
    truncated at whole-token granularity, padded to `max_len`."""
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")

    toks = document_tokens(doc, vocab, mode, limit=max_len - 2)
    n = len(toks.ids)

    token_ids = np.full(max_len, PAD_ID, dtype=np.int64)
    token_ids[0], token_ids[1 : 1 + n], token_ids[1 + n] = CLS_ID, toks.ids, SEP_ID
    cell_index, word_index = np.full((2, max_len), -1, dtype=np.int64)
    cell_index[1 : 1 + n], word_index[1 : 1 + n] = toks.cell_index, toks.word_index
    boxes = np.zeros((max_len, 4), dtype=np.int64)
    boxes[1 : 1 + n] = toks.boxes

    return TokenizedSequence(
        doc_id=doc.doc_id,
        token_ids=token_ids,
        cell_index=cell_index,
        word_index=word_index,
        boxes=boxes,
        length=n + 2,
        cell_boxes=toks.cell_boxes,
        n_words=toks.n_words,
    )

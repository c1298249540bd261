"""OCR cell documents: page-relative box normalization, reading-order
serialization, and window encoding into model inputs.

Coordinates are normalized to integers in [0, 1000]; the special empty box
(0, 0, 0, 0) marks [CLS]/[SEP]/[PAD] positions. In cell-level layout mode
every token of a cell carries the cell's box; in word-level mode each token
carries its word's box instead (given per-word boxes, or an equal-width
horizontal split of the cell box when absent).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .vocab import CLS_ID, PAD_ID, SEP_ID, Vocab, tokenize

logger = logging.getLogger(__name__)

COORD_MAX = 1000

CELL_LEVEL = "cell"
WORD_LEVEL = "word"

_MODE_ALIASES = {
    "cell": CELL_LEVEL,
    "cell-level": CELL_LEVEL,
    "word": WORD_LEVEL,
    "word-level": WORD_LEVEL,
}


class IngestError(ValueError):
    """Raw document data violates the ingestion contract."""


def normalize_layout_mode(mode: str) -> str:
    try:
        return _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(
            f"unknown layout mode {mode!r}; expected one of {sorted(_MODE_ALIASES)}"
        ) from None


class NormalizedBox(NamedTuple):
    """Integer box on the 0..1000 grid, x0 <= x1 and y0 <= y1."""

    x0: int
    y0: int
    x1: int
    y1: int

    def validate(self) -> "NormalizedBox":
        if not (0 <= self.x0 <= self.x1 <= COORD_MAX):
            raise IngestError(f"invalid normalized x range in {self}")
        if not (0 <= self.y0 <= self.y1 <= COORD_MAX):
            raise IngestError(f"invalid normalized y range in {self}")
        return self


EMPTY_BOX = NormalizedBox(0, 0, 0, 0)


@dataclass
class RawCell:
    """One OCR cell: text plus its pixel bounding box.

    `word_boxes` (one pixel box per whitespace word) is optional and only
    consumed by word-level layout mode.
    """

    text: str
    box: tuple[float, float, float, float]
    word_boxes: Optional[list[tuple[float, float, float, float]]] = None

    def __post_init__(self):
        self.text = self.text.lower()
        if not self.text.strip():
            raise IngestError("cell text is empty")
        x0, y0, x1, y1 = self.box
        if x0 > x1 or y0 > y1 or min(x0, y0) < 0:
            raise IngestError(f"invalid pixel box {self.box}")
        if self.word_boxes is not None:
            n_words = len(self.text.split())
            if len(self.word_boxes) != n_words:
                raise IngestError(
                    f"word_boxes count {len(self.word_boxes)} != word count {n_words}"
                )


@dataclass
class RawDocument:
    doc_id: str
    page_width: float
    page_height: float
    cells: list[RawCell] = field(default_factory=list)

    def clamp_to_page(self) -> None:
        """Clamp out-of-page boxes in place, warning once per document."""
        clamped = False
        for cell in self.cells:
            x0, y0, x1, y1 = cell.box
            cx0 = min(max(x0, 0), self.page_width)
            cy0 = min(max(y0, 0), self.page_height)
            cx1 = min(max(x1, 0), self.page_width)
            cy1 = min(max(y1, 0), self.page_height)
            if (cx0, cy0, cx1, cy1) != (x0, y0, x1, y1):
                cell.box = (cx0, cy0, cx1, cy1)
                clamped = True
        if clamped:
            logger.warning("document %s: clamped out-of-page cell boxes", self.doc_id)


def _scale(value: float, page_dim: float) -> int:
    # exact integer floor when the inputs are integral, to keep boundary
    # pixels from drifting across a unit due to float rounding
    if float(value).is_integer() and float(page_dim).is_integer():
        return min(max(int(value) * COORD_MAX // int(page_dim), 0), COORD_MAX)
    return min(max(math.floor(value * COORD_MAX / page_dim), 0), COORD_MAX)


def normalize_box(
    box: Sequence[float], page_w: float, page_h: float
) -> NormalizedBox:
    """Map a pixel box to the 0..1000 grid: floor(v / page_dim * 1000),
    clamped."""
    if page_w <= 0 or page_h <= 0:
        raise IngestError(f"page dimensions must be positive, got {page_w}x{page_h}")
    x0, y0, x1, y1 = box
    return NormalizedBox(
        _scale(x0, page_w), _scale(y0, page_h), _scale(x1, page_w), _scale(y1, page_h)
    ).validate()


def _split_box(box: NormalizedBox, count: int) -> list[NormalizedBox]:
    """Equal-width horizontal split for cells without per-word boxes."""
    width = box.x1 - box.x0
    out = []
    for j in range(count):
        lo = box.x0 + width * j // count
        hi = box.x0 + width * (j + 1) // count
        out.append(NormalizedBox(lo, box.y0, hi, box.y1))
    return out


@dataclass
class Cell:
    """A cell after normalization: words, cell box, per-word boxes, and the
    position it held in the source document."""

    words: tuple[str, ...]
    box: NormalizedBox
    word_boxes: tuple[NormalizedBox, ...]
    source_index: int

    @property
    def text(self) -> str:
        return " ".join(self.words)


def normalize_document(doc: RawDocument) -> list[Cell]:
    cells = []
    for i, raw in enumerate(doc.cells):
        box = normalize_box(raw.box, doc.page_width, doc.page_height)
        words = tuple(raw.text.split())
        if raw.word_boxes is not None:
            word_boxes = tuple(
                normalize_box(wb, doc.page_width, doc.page_height)
                for wb in raw.word_boxes
            )
        else:
            word_boxes = tuple(_split_box(box, len(words)))
        cells.append(Cell(words=words, box=box, word_boxes=word_boxes, source_index=i))
    return cells


def serialize_cells(cells: list[Cell]) -> list[Cell]:
    """Reading order: stable sort by (y0, x0, source position) of the
    normalized cell box."""
    return sorted(cells, key=lambda c: (c.box.y0, c.box.x0, c.source_index))


@dataclass
class TokenizedSequence:
    """One encoded document window, padded to the model length L.

    All arrays have length L. `cell_index` and `word_index` are -1 at
    special/pad positions; `cell_boxes` holds the normalized box of every
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


def cell_tokens(
    cells: list[Cell], vocab: Vocab, mode: str
) -> Iterator[tuple[int, int, int, NormalizedBox]]:
    """(token id, cell index, word index, box) of every token of the
    serialized `cells`, in order; the box is the cell's in cell-level mode,
    the word's in word-level mode."""
    w = 0
    for ci, cell in enumerate(cells):
        for wi, word in enumerate(cell.words):
            box = cell.box if mode == CELL_LEVEL else cell.word_boxes[wi]
            for piece in tokenize(word, vocab):
                yield vocab.id(piece), ci, w, box
            w += 1


def encode_document(
    doc: RawDocument, vocab: Vocab, max_len: int, mode: str = CELL_LEVEL
) -> TokenizedSequence:
    """Serialize, tokenize, and window a document: [CLS] tokens [SEP],
    truncated at whole-token granularity, padded to `max_len`."""
    mode = normalize_layout_mode(mode)
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    if not doc.cells:
        raise IngestError(f"document {doc.doc_id} has no cells")

    cells = serialize_cells(normalize_document(doc))
    # every cell has a word, so at least one token survives the cut
    ids, cell_idx, word_idx, boxes = zip(
        *islice(cell_tokens(cells, vocab, mode), max_len - 2)
    )

    length = len(ids) + 2
    token_ids = np.full(max_len, PAD_ID, dtype=np.int64)
    token_ids[0] = CLS_ID
    token_ids[1 : 1 + len(ids)] = ids
    token_ids[1 + len(ids)] = SEP_ID

    cell_index = np.full(max_len, -1, dtype=np.int64)
    cell_index[1 : 1 + len(ids)] = cell_idx
    word_index = np.full(max_len, -1, dtype=np.int64)
    word_index[1 : 1 + len(ids)] = word_idx

    box_arr = np.zeros((max_len, 4), dtype=np.int64)
    box_arr[1 : 1 + len(ids)] = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)

    cell_boxes = np.asarray([c.box for c in cells], dtype=np.int64).reshape(-1, 4)

    return TokenizedSequence(
        doc_id=doc.doc_id,
        token_ids=token_ids,
        cell_index=cell_index,
        word_index=word_index,
        boxes=box_arr,
        length=length,
        cell_boxes=cell_boxes,
        n_words=sum(len(c.words) for c in cells),
    )

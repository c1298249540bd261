"""Synthetic form-like document generator with known structure.

The page geometry is fixed, not a setting. A form lies on a 1000x1000 page:
a header band covers the top quarter and a 3x4 grid of 250x250 body slots
fills the rest, so each slot is one area of the model's 4x4 position grid
(`num_areas` = 16). Every field key has a home slot (taken with probability
`HOME_SLOT_PROB`) and a value grammar, so masked value tokens are
predictable from their key cell and a zeroed cell's grid area is predictable
from its content; vertical jitter inside slots interleaves cells in reading
order, which is what makes cell grouping worth learning.

The three layout templates of `TEMPLATES` (form / letter / receipt, in
class-label order) back the document classification task; forms also carry
BIES word labels and key-value QA pairs for the other two tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .documents import RawCell, RawDocument, grid_boxes, reading_order
from .pretrain import derive_rng
from .taskdata import ClsExample, QaExample, TaggingExample

PAGE = 1000
BODY_ROWS, BODY_COLS = 3, 4
N_SLOTS = BODY_ROWS * BODY_COLS
HEADER_BAND = PAGE // 4
SLOT_W = PAGE // BODY_COLS
SLOT_H = (PAGE - HEADER_BAND) // BODY_ROWS
HOME_SLOT_PROB = 0.9  # a header or key sits in its home area
NOISE_RATE = 0.1  # distractor cells per sized cell, spread over free slots

# -- lexicons ---------------------------------------------------------------

HEADER_WORDS = (
    "acme", "global", "united", "national", "summary", "report", "annual",
    "review", "branch", "office", "central", "district", "group", "division",
    "records", "bureau",
)

PROSE_WORDS = (
    "we", "are", "pleased", "to", "confirm", "your", "recent", "request",
    "thank", "you", "for", "business", "please", "find", "enclosed",
    "details", "regards", "sincerely",
)

ITEM_WORDS = (
    "coffee", "tea", "bread", "milk", "sugar", "rice", "soap", "paper",
    "pens", "tape", "glue", "cups",
)

QUESTION_WORDS = ("what", "is", "the")

DAYS = tuple(f"{d:02d}" for d in range(1, 17))
MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
          "jul", "aug", "sep", "oct", "nov", "dec")
YEARS = tuple(str(y) for y in range(1990, 2002))
DOLLARS = tuple(str(101 + 37 * i) for i in range(24))
CENTS = ("00", "10", "25", "40", "50", "60", "75", "90")
CODE_PREFIXES = ("ax", "bx", "cx", "dk", "el", "fn",
                 "gr", "hs", "jt", "kl", "mp", "nq")
CODE_SUFFIXES = tuple(f"s{i:02d}" for i in range(1, 17))
FIRST_NAMES = (
    "robert", "maria", "james", "elena", "david", "sofia", "peter", "laura",
    "thomas", "nina", "henry", "clara", "oscar", "ruth", "felix", "diana",
    "victor", "alice", "hugo", "irene", "leo", "paula", "simon", "vera",
)
LAST_NAMES = (
    "dawson", "kline", "porter", "reyes", "bauer", "moreno", "fischer",
    "santos", "weber", "duarte", "keller", "rossi", "novak", "silva",
    "mayer", "fuentes", "graf", "ibarra", "lang", "mendez", "otto", "pavel",
    "quinn", "sturm",
)
CITIES = ("madrid", "lisbon", "oslo", "dublin", "geneva", "warsaw",
          "vienna", "prague", "athens", "berlin", "zagreb", "riga")
REGIONS = ("west", "north", "south", "east", "coast", "plains", "alpine",
           "valley")
STATUS_POOL = ("open", "closed", "paid", "void", "pending", "approved",
               "hold", "review")
QTY_NUMS = ("5", "10", "15", "20", "25", "40", "50", "75", "80", "90",
            "120", "150")
UNITS = ("pcs", "kg", "lbs", "units", "boxes", "hrs")

# (key phrase, grammar); home slot = index % N_SLOTS
FIELD_KEYS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("due", "date"), "date"),
    (("ship", "date"), "date"),
    (("issue", "date"), "date"),
    (("start", "date"), "date"),
    (("end", "date"), "date"),
    (("order", "date"), "date"),
    (("total", "amount"), "amount"),
    (("tax", "amount"), "amount"),
    (("net", "amount"), "amount"),
    (("gross", "amount"), "amount"),
    (("balance",), "amount"),
    (("subtotal",), "amount"),
    (("invoice", "number"), "code"),
    (("order", "number"), "code"),
    (("account", "number"), "code"),
    (("batch", "code"), "code"),
    (("ref", "code"), "code"),
    (("tracking", "code"), "code"),
    (("customer", "name"), "name"),
    (("contact", "name"), "name"),
    (("manager", "name"), "name"),
    (("agent", "name"), "name"),
    (("buyer", "name"), "name"),
    (("seller", "name"), "name"),
    (("ship", "city"), "city"),
    (("bill", "city"), "city"),
    (("origin", "city"), "city"),
    (("dest", "city"), "city"),
    (("status",), "status"),
    (("priority",), "status"),
    (("category",), "status"),
    (("type",), "status"),
    (("quantity",), "qty"),
    (("weight",), "qty"),
    (("volume",), "qty"),
    (("count",), "qty"),
)


@dataclass
class SynthConfig:
    """The seven corpus settings: `seed`, the document counts `num_docs`
    (pre-training), `num_form_docs`, `num_qa_docs` and `num_cls_docs` (one
    labelled example each; every fifth is held out, so at least 5), and
    `min_pairs` / `max_pairs`, the key-value pairs per form, at most one per
    body slot. `vocab_max_size` is a constant, not a setting."""

    seed: int = 0
    num_docs: int = 5000
    num_form_docs: int = 150
    num_qa_docs: int = 1200
    num_cls_docs: int = 240
    min_pairs: int = 6
    max_pairs: int = 10
    vocab_max_size: ClassVar[int] = 512

    def __post_init__(self):
        for name, least in (("num_docs", 1), ("num_form_docs", 5),
                            ("num_qa_docs", 5), ("num_cls_docs", 5)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 1 <= self.min_pairs <= self.max_pairs <= N_SLOTS:
            raise ValueError(f"need 1 <= min_pairs <= max_pairs <= {N_SLOTS}, "
                             f"got {self.min_pairs} and {self.max_pairs}")


def vocab_words(cfg: SynthConfig) -> list[str]:
    """Every word the generator can emit, for vocabulary construction."""
    words: list[str] = []
    for phrase, _ in FIELD_KEYS:
        words.extend(phrase)
    for pool in (HEADER_WORDS, PROSE_WORDS, ITEM_WORDS, QUESTION_WORDS, DAYS,
                 MONTHS, YEARS, DOLLARS, CENTS, CODE_PREFIXES, CODE_SUFFIXES,
                 FIRST_NAMES, LAST_NAMES, CITIES, REGIONS, STATUS_POOL,
                 QTY_NUMS, UNITS):
        words.extend(pool)
    words.append("total")
    return words


def _subset(pool: Sequence[str], size: int, salt: int, stride: int) -> list[str]:
    # stride coprime to len(pool) -> `size` distinct entries per salt
    n = len(pool)
    return [pool[(salt + i * stride) % n] for i in range(size)]


def _pick(pool: Sequence[str], size: int, salt: int, stride: int,
          rng: np.random.Generator) -> str:
    return _subset(pool, size, salt, stride)[rng.integers(size)]


def _value_words(key_index: int, grammar: str, rng: np.random.Generator) -> list[str]:
    """Sample a value per the key's grammar.

    Two deliberate regularities make layout worth learning: token pools are
    narrowed per key (finding the key cell pays off), and every non-initial
    value token is a deterministic partner of the token before it inside the
    same cell (knowing where the cell starts pays off). Lengths vary, so
    position inside a cell is not readable from the 1D sequence alone."""
    k = key_index
    if grammar == "date":
        # sometimes the day is omitted; the month determines the year
        if rng.random() < 0.3:
            month = _pick(MONTHS, 4, k * 7, 5, rng)
            return [month, YEARS[MONTHS.index(month)]]
        day = _pick(DAYS, 8, k * 5, 3, rng)
        month = MONTHS[DAYS.index(day) % len(MONTHS)]
        return [day, month, YEARS[MONTHS.index(month)]]
    if grammar == "amount":
        dollars = _pick(DOLLARS, 8, k * 7, 5, rng)
        return [dollars, ".", CENTS[DOLLARS.index(dollars) % len(CENTS)]]
    if grammar == "code":
        # prefix pinned to the key; suffix is the prefix's partner
        prefix_i = (k * 2 + int(rng.random() < 0.5)) % len(CODE_PREFIXES)
        return [CODE_PREFIXES[prefix_i],
                CODE_SUFFIXES[(prefix_i * 5 + 3) % len(CODE_SUFFIXES)]]
    if grammar == "name":
        first = _pick(FIRST_NAMES, 8, k * 5, 5, rng)
        return [first, LAST_NAMES[FIRST_NAMES.index(first)]]
    if grammar == "city":
        city = _pick(CITIES, 6, k * 5, 5, rng)
        if rng.random() < 0.3:
            return [city]
        return [city, REGIONS[CITIES.index(city) % len(REGIONS)]]
    if grammar == "status":
        base = 2 * (k % 4)
        return [STATUS_POOL[(base + rng.integers(4)) % len(STATUS_POOL)]]
    if grammar == "qty":
        num = _pick(QTY_NUMS, 6, k * 5, 5, rng)
        if rng.random() < 0.3:
            return [num]
        return [num, UNITS[k % len(UNITS)]]
    raise ValueError(f"unknown grammar {grammar}")


def _cell_width(words: Sequence[str]) -> int:
    return sum(6 * len(w) for w in words) + 6 * (len(words) - 1) + 8


def _word_boxes(words: Sequence[str], x0: int, x1: int, y0: int, y1: int) -> list[tuple]:
    # equal horizontal split: word boxes tile the cell without exposing
    # individual word lengths
    width = x1 - x0
    n = len(words)
    return [
        (x0 + width * j // n, y0 + 2, x0 + width * (j + 1) // n, y1 - 2)
        for j in range(n)
    ]


def _make_cell(words: Sequence[str], x0: int, y0: int, height: int = 22) -> RawCell:
    x1 = x0 + _cell_width(words)
    y1 = y0 + height
    return RawCell(
        text=" ".join(words),
        box=(x0, y0, x1, y1),
        word_boxes=_word_boxes(words, x0, x1, y0, y1),
    )


@dataclass
class FormLayout:
    """A generated form plus the metadata the dataset builders need."""

    doc: RawDocument
    roles: list[str]  # per cell: header | key | value | other
    key_indices: list[int]  # per cell: FIELD_KEYS index, -1 when n/a


def _slot_origin(slot: int) -> tuple[int, int]:
    row, col = divmod(slot, BODY_COLS)
    return col * SLOT_W, HEADER_BAND + row * SLOT_H


def _gen_form(cfg: SynthConfig, rng: np.random.Generator, doc_id: str) -> FormLayout:
    cells: list[RawCell] = []
    roles: list[str] = []
    key_ids: list[int] = []

    # header: 2-3 words, center almost always in grid area 1
    n_header = 2 + int(rng.random() < 0.5)
    header_words = [HEADER_WORDS[rng.integers(len(HEADER_WORDS))]
                    for _ in range(n_header)]
    hw = _cell_width(header_words)
    if rng.random() < HOME_SLOT_PROB:
        hx0 = int(rng.integers(260, max(261, 490 - hw)))
    else:
        hx0 = int(rng.integers(4, PAGE - hw - 4))
    hy0 = int(rng.integers(20, 180))
    cells.append(_make_cell(header_words, hx0, hy0, height=30))
    roles.append("header")
    key_ids.append(-1)

    n_pairs = int(rng.integers(cfg.min_pairs, cfg.max_pairs + 1))

    # one key per sampled slot (keys share home slots, so sampling slots
    # first keeps the home placement collision-free)
    chosen_slots = rng.permutation(N_SLOTS)[:n_pairs].tolist()
    placements: list[tuple[int, int]] = []  # (key_index, slot)
    displaced: list[int] = []
    used: set[int] = set()
    for slot in chosen_slots:
        candidates = range(slot, len(FIELD_KEYS), N_SLOTS)  # keys homed here
        key_index = candidates[rng.integers(len(candidates))]
        if rng.random() < HOME_SLOT_PROB:
            placements.append((key_index, slot))
            used.add(slot)
        else:
            displaced.append(key_index)
    free = [s for s in range(N_SLOTS) if s not in used]
    for key_index in displaced:
        slot = free.pop(int(rng.integers(len(free))))
        placements.append((key_index, slot))

    for key_index, slot in placements:
        phrase, grammar = FIELD_KEYS[key_index]
        value = _value_words(key_index, grammar, rng)
        kw = _cell_width(phrase)
        vw = _cell_width(value)
        sx, sy = _slot_origin(slot)
        # key + gap + value must sit inside the slot so both centers share
        # the slot's grid area
        gap = int(rng.integers(8, 19))
        margin = SLOT_W - (kw + gap + vw) - 8
        kx0 = sx + 4 + int(rng.integers(0, max(1, margin)))
        ky0 = sy + 12 + int(rng.integers(0, SLOT_H - 46))
        cells.append(_make_cell(phrase, kx0, ky0))
        roles.append("key")
        key_ids.append(key_index)
        # value y is drawn independently of the key's, so reading order
        # interleaves the pair with other cells: key-value association has to
        # come from geometry, not 1D adjacency
        vy0 = sy + 12 + int(rng.integers(0, SLOT_H - 46))
        cells.append(_make_cell(value, kx0 + kw + gap, vy0))
        roles.append("value")
        key_ids.append(key_index)

    # distractors on leftover slots: half look like stray values, half like
    # orphan field keys (keys absent from this document), so the tag classes
    # cannot be read off the lexicon alone
    placed = {k for k, _ in placements}
    orphan_pool = [k for k in range(len(FIELD_KEYS)) if k not in placed]
    n_cells_sized = 1 + 2 * n_pairs
    p_distract = min(1.0, NOISE_RATE * n_cells_sized / max(1, len(free)))
    for slot in free:  # ascending
        if rng.random() >= p_distract:
            continue
        if orphan_pool and rng.random() < 0.5:
            words = list(FIELD_KEYS[orphan_pool[rng.integers(len(orphan_pool))]][0])
        else:
            key_index = int(rng.integers(len(FIELD_KEYS)))
            words = _value_words(key_index, FIELD_KEYS[key_index][1], rng)
        sx, sy = _slot_origin(slot)
        dx0 = sx + 4 + int(rng.integers(0, max(1, SLOT_W - _cell_width(words) - 8)))
        dy0 = sy + 12 + int(rng.integers(0, SLOT_H - 46))
        cells.append(_make_cell(words, dx0, dy0))
        roles.append("other")
        key_ids.append(-1)

    doc = RawDocument(doc_id=doc_id, page_width=PAGE, page_height=PAGE,
                      cells=cells)
    return FormLayout(doc=doc, roles=roles, key_indices=key_ids)


def gen_pretrain_doc(cfg: SynthConfig, rng: np.random.Generator,
                     doc_id: str = "doc") -> RawDocument:
    """One form-like document for pre-training."""
    return _gen_form(cfg, rng, doc_id).doc


def gen_pretrain_corpus(cfg: SynthConfig) -> list[RawDocument]:
    """num_docs form documents, each from an independent derived stream."""
    return [
        gen_pretrain_doc(cfg, derive_rng(cfg.seed, "pretrain", i), f"pre{i:06d}")
        for i in range(cfg.num_docs)
    ]


def _gen_letter(cfg: SynthConfig, rng: np.random.Generator, doc_id: str) -> RawDocument:
    cells = [
        _make_cell(
            [HEADER_WORDS[rng.integers(len(HEADER_WORDS))] for _ in range(2)],
            int(rng.integers(260, 420)), int(rng.integers(20, 160)), height=30,
        )
    ]
    y = 300
    for _ in range(int(rng.integers(4, 8))):
        n = int(rng.integers(4, 8))
        words = [PROSE_WORDS[rng.integers(len(PROSE_WORDS))] for _ in range(n)]
        cells.append(_make_cell(words, int(rng.integers(80, 140)), y))
        y += int(rng.integers(60, 100))
        if y > 880:
            break
    fi = int(rng.integers(len(FIRST_NAMES)))
    cells.append(_make_cell([FIRST_NAMES[fi], LAST_NAMES[fi]],
                            int(rng.integers(90, 160)), int(rng.integers(900, 950))))
    return RawDocument(doc_id=doc_id, page_width=PAGE, page_height=PAGE, cells=cells)


def _gen_receipt(cfg: SynthConfig, rng: np.random.Generator, doc_id: str) -> RawDocument:
    cells = [
        _make_cell(
            [HEADER_WORDS[rng.integers(len(HEADER_WORDS))]],
            int(rng.integers(420, 520)), int(rng.integers(30, 120)), height=26,
        )
    ]
    y = 260
    for _ in range(int(rng.integers(4, 8))):
        item = ITEM_WORDS[rng.integers(len(ITEM_WORDS))]
        amount = [DOLLARS[rng.integers(len(DOLLARS))], ".",
                  CENTS[rng.integers(len(CENTS))]]
        cells.append(_make_cell([item], int(rng.integers(360, 430)), y))
        cells.append(_make_cell(amount, int(rng.integers(540, 580)), y))
        y += int(rng.integers(55, 85))
        if y > 850:
            break
    cells.append(_make_cell(["total", DOLLARS[rng.integers(len(DOLLARS))]],
                            int(rng.integers(380, 460)), int(rng.integers(880, 940))))
    return RawDocument(doc_id=doc_id, page_width=PAGE, page_height=PAGE, cells=cells)


# the classification templates; a document's label is its template's index
TEMPLATES = (gen_pretrain_doc, _gen_letter, _gen_receipt)


# -- labeled datasets --------------------------------------------------------


def _bies(n: int, category: str) -> list[str]:
    if n == 1:
        return [f"S-{category}"]
    return [f"B-{category}"] + [f"I-{category}"] * (n - 2) + [f"E-{category}"]


_ROLE_CATEGORY = {"key": "question", "value": "answer", "header": "header"}


def _reading_order(doc: RawDocument) -> list[int]:
    """Source positions of the document's cells, in reading order."""
    grid = grid_boxes([c.box for c in doc.cells], doc.page_width, doc.page_height)
    return reading_order(grid).tolist()


def gen_form_dataset(cfg: SynthConfig, n: int) -> list[TaggingExample]:
    """Word-level BIES tagging examples over generated forms."""
    if n < 2:
        raise ValueError("need at least 2 documents for a train/eval split")
    out = []
    for i in range(n):
        layout = _gen_form(cfg, derive_rng(cfg.seed, "form", i), f"form{i:06d}")
        labels: list[str] = []
        for ci in _reading_order(layout.doc):
            role, n_words = layout.roles[ci], len(layout.doc.cells[ci].text.split())
            if role in _ROLE_CATEGORY:
                labels.extend(_bies(n_words, _ROLE_CATEGORY[role]))
            else:
                labels.extend(["O"] * n_words)
        out.append(TaggingExample(doc=layout.doc, word_labels=labels))
    return out


def gen_qa_dataset(cfg: SynthConfig, n: int) -> list[QaExample]:
    """One question per document, asking for a sampled key's value."""
    if n < 2:
        raise ValueError("need at least 2 documents for a train/eval split")
    out = []
    for i in range(n):
        rng = derive_rng(cfg.seed, "qa", i)
        layout = _gen_form(cfg, rng, f"qa{i:06d}")
        key_cells = [ci for ci, role in enumerate(layout.roles) if role == "key"]
        target = key_cells[rng.integers(len(key_cells))]
        key_index = layout.key_indices[target]
        value_cell = next(
            ci for ci, (role, ki) in enumerate(zip(layout.roles, layout.key_indices))
            if role == "value" and ki == key_index
        )
        order = _reading_order(layout.doc)
        n_words = [len(layout.doc.cells[ci].text.split()) for ci in order]
        k = order.index(value_cell)
        span = (sum(n_words[:k]), sum(n_words[:k + 1]) - 1)
        question = "what is the " + " ".join(FIELD_KEYS[key_index][0]) + " ?"
        out.append(
            QaExample(
                doc=layout.doc,
                question=question,
                answers=[layout.doc.cells[value_cell].text],
                span=span,
            )
        )
    return out


def gen_cls_dataset(cfg: SynthConfig, n: int) -> list[ClsExample]:
    """Round-robin over `TEMPLATES`; label = template index."""
    out = []
    for i in range(n):
        label = i % len(TEMPLATES)
        doc = TEMPLATES[label](cfg, derive_rng(cfg.seed, "cls", i), f"cls{i:06d}")
        out.append(ClsExample(doc=doc, label=label))
    return out

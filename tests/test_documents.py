"""Input checks, grid normalization, reading-order serialization,
vocabulary construction, tokenization, and window encoding."""

import hashlib
import math

import numpy as np
import pytest

from cellformer.dataio import read_cell_jsonl, write_cell_jsonl
from cellformer.documents import (
    IngestError, RawCell, RawDocument,
    encode_document, grid_boxes, normalize_document, serialize_cells,
)
from cellformer.vocab import (
    CLS_ID, MASK_ID, PAD_ID, RESERVED, SEP_ID, UNK, UNK_ID, Vocab,
    build_vocab, detokenize, tokenize,
)

# -- normalization ---------------------------------------------------------------


def _grid(box, page_w, page_h):
    return tuple(grid_boxes([box], page_w, page_h)[0].tolist())


def test_grid_boxes_direct_formula():
    assert _grid((500, 250, 1000, 500), 2000, 1000) == (250, 250, 500, 500)


def test_grid_boxes_range_endpoints():
    assert _grid((0, 0, 2000, 1000), 2000, 1000) == (0, 0, 1000, 1000)


def test_raw_document_rejects_bad_page():
    with pytest.raises(IngestError):
        RawDocument("d", 0, 100, [RawCell("hi", (0, 0, 1, 1))])


def test_grid_boxes_monotone_and_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = sorted(rng.uniform(0, 1700, size=2))
        c, d = sorted(rng.uniform(0, 2200, size=2))
        box = _grid((a, c, b, d), 1700, 2200)
        assert box[0] <= box[2] and box[1] <= box[3]
        # idempotent on an already-normalized 1000-unit page
        assert _grid(box, 1000, 1000) == box
    # monotone per coordinate
    xs = sorted(rng.uniform(0, 1700, size=50))
    normed = [_grid((x, 0, 1700, 1), 1700, 2200)[0] for x in xs]
    assert normed == sorted(normed)


def _old_scale(value, page_dim):
    """The scalar formula `grid_boxes` replaced, kept as its reference, with
    the page edge rule: a value at or past the page dimension is 1000."""
    if value >= page_dim:
        return 1000
    if float(value).is_integer() and float(page_dim).is_integer():
        return min(max(int(value) * 1000 // int(page_dim), 0), 1000)
    return min(max(math.floor(value * 1000 / page_dim), 0), 1000)


def test_grid_boxes_match_the_scalar_formula():
    rng = np.random.default_rng(7)
    pages = [1, 3, 7, 999, 1000, 1001, 1700, 2200, 4961,
             612.5, 791.3, 1295.3248347145238, 4222.264835773715]
    pages += rng.uniform(1, 5000, size=20).tolist()
    for page in pages:
        limit = math.ceil(page)
        values = [0, 1, limit - 1, limit, limit + 1, page, page * 1.5, 10 * limit]
        if limit <= 5000:
            values += list(range(limit + 3))  # every edge pixel of the page
        # the pixels on each side of a grid-unit boundary
        for k in rng.integers(0, 1001, size=40).tolist():
            edge = k * page / 1000
            values += [edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf),
                       math.floor(edge), math.ceil(edge)]
        values += rng.uniform(0, 1.2 * page, size=200).tolist()
        boxes = [(v, v, v, v) for v in values]
        got = grid_boxes(boxes, page, page)
        assert got.dtype == np.int64
        want = [_old_scale(v, page) for v in values]
        assert got[:, 0].tolist() == want, page
        assert got[:, 3].tolist() == want, page


def test_clamp_on_ingest_warns(tmp_path, caplog):
    doc = RawDocument("d", 100, 100, [RawCell("hi there", (50, 50, 150, 90),
                                              [(50, 50, 90, 90), (95, 50, 150, 90)]),
                                      RawCell("x", (10, 10, 20, 300))])
    write_cell_jsonl([doc], tmp_path / "d.jsonl")
    with caplog.at_level("WARNING"):
        (loaded,) = read_cell_jsonl(tmp_path / "d.jsonl")
    assert caplog.text.count("past the page edge") == 1  # once per document
    assert loaded.cells[0].box == (50, 50, 150, 90)  # the caller's pixels stay
    cells = normalize_document(loaded)
    assert cells[0].box == (500, 500, 1000, 900)
    assert cells[0].word_boxes[1] == (950, 500, 1000, 900)
    assert cells[1].box == (100, 100, 200, 1000)


def test_past_the_page_is_the_grid_edge_on_a_fractional_page():
    # float rounding puts floor(page * 1000 / page) at 999 on this page, yet
    # its own edge maps to the grid edge, as does a coordinate past it
    page = 4222.264835773715
    assert _grid((0, 0, page, page), page, page) == (0, 0, 1000, 1000)
    assert _grid((0, 0, page + 1, page * 2), page, page) == (0, 0, 1000, 1000)


@pytest.mark.parametrize("box", [
    (float("nan"), 0, 1, 1), (0, 0, float("inf"), 1), (-1, 0, 1, 1),
    (5, 0, 1, 1), (0, 0, 1), (0, 0, 1, "1"), (True, 0, 1, 1), (0, 0, 10**400, 1), 5,
])
def test_raw_cell_rejects_bad_boxes(box):
    with pytest.raises(IngestError):
        RawCell("hi", box)
    with pytest.raises(IngestError):
        RawCell("hi", (0, 0, 1, 1), [box])


@pytest.mark.parametrize("text", [5, None])
def test_raw_cell_rejects_bad_text(text):
    with pytest.raises(IngestError):
        RawCell(text, (0, 0, 1, 1))


@pytest.mark.parametrize("dim", [float("nan"), float("inf"), -5, "wide", None, True])
def test_raw_document_rejects_bad_page_dimensions(dim):
    with pytest.raises(IngestError):
        RawDocument("d", dim, 100, [RawCell("hi", (0, 0, 1, 1))])
    with pytest.raises(IngestError):
        RawDocument("d", 100, dim, [RawCell("hi", (0, 0, 1, 1))])


# -- serialization ----------------------------------------------------------------


def _doc_with_origins(origins):
    cells = [RawCell(f"w{i}", (x, y, x + 10, y + 5)) for i, (y, x) in enumerate(origins)]
    return RawDocument("d", 1000, 1000, cells)


def test_serialize_lexicographic_order():
    doc = _doc_with_origins([(10, 500), (10, 20), (5, 900)])
    order = [c.words[0] for c in serialize_cells(normalize_document(doc))]
    assert order == ["w2", "w1", "w0"]


def test_serialize_preserves_input_order_on_ties():
    doc = _doc_with_origins([(10, 20), (10, 20), (10, 20)])
    order = [c.words[0] for c in serialize_cells(normalize_document(doc))]
    assert order == ["w0", "w1", "w2"]


def test_serialize_single_cell():
    doc = _doc_with_origins([(1, 1)])
    assert len(serialize_cells(normalize_document(doc))) == 1


# -- vocabulary ---------------------------------------------------------------------


def test_vocab_frequency_then_lexicographic_order():
    v = build_vocab(["total", "total", "date"], max_size=400)
    assert v.id("total") < v.id("date")
    v2 = build_vocab(["b", "a"], max_size=400)  # tie broken lexicographically
    assert v2.id("a") < v2.id("b")


def test_vocab_reserved_ids_fixed():
    v = build_vocab(["x"], max_size=400)
    assert [v.token(i) for i in range(5)] == list(RESERVED)
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)


def test_vocab_fallback_covers_printable_ascii():
    v = build_vocab(["word"], max_size=400)
    for code in range(0x21, 0x7F):
        ch = chr(code)
        assert ch in v
        assert "##" + ch in v


def test_vocab_deterministic_bytes():
    words = ["alpha", "beta", "alpha", "gamma"] * 3
    assert build_vocab(words, 300).to_lines() == build_vocab(words, 300).to_lines()


def test_vocab_rejects_empty_corpus_and_tiny_max_size():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([], max_size=400)
    with pytest.raises(ValueError, match="max_size"):
        build_vocab(["x"], max_size=100)


def test_vocab_roundtrip_lines():
    v = build_vocab(["alpha", "beta"], 300)
    assert Vocab.from_lines(v.to_lines()).id_to_token == v.id_to_token


# -- tokenize ------------------------------------------------------------------------


def _manual_vocab(extra):
    return Vocab(list(RESERVED) + extra)


def test_tokenize_greedy_longest_match():
    v = _manual_vocab(["form", "##s"])
    assert tokenize("forms", v) == ["form", "##s"]


def test_tokenize_whole_word_single_token():
    v = _manual_vocab(["invoice"])
    assert tokenize("invoice", v) == ["invoice"]


def test_tokenize_unsegmentable_word_is_unk():
    v = _manual_vocab(["a"])
    assert tokenize("qqq", v) == [UNK]


def test_tokenize_char_fallback_is_total():
    v = build_vocab(["seed"], max_size=400)
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        word = "".join(chr(rng.integers(0x21, 0x7F)) for _ in range(n))
        pieces = tokenize(word, v)
        assert pieces and pieces != [UNK]
        assert detokenize(pieces) == word


# -- encoding -----------------------------------------------------------------------


def _simple_vocab():
    return build_vocab(["alpha", "beta", "gamma", "delta"], max_size=400)


def test_encode_cell_level_shares_box():
    doc = RawDocument("d", 1000, 1000,
                      [RawCell("alpha beta", (40, 40, 200, 60))])
    seq = encode_document(doc, _simple_vocab(), 16, "cell")
    content = seq.cell_index >= 0
    assert content.sum() == 2
    boxes = seq.boxes[content]
    assert np.array_equal(boxes[0], boxes[1])
    assert tuple(boxes[0]) == (40, 40, 200, 60)


def test_encode_special_tokens_carry_empty_box():
    doc = RawDocument("d", 1000, 1000, [RawCell("alpha", (40, 40, 90, 60))])
    seq = encode_document(doc, _simple_vocab(), 8)
    assert seq.token_ids[0] == CLS_ID
    assert tuple(seq.boxes[0]) == (0, 0, 0, 0)
    sep = int(np.nonzero(seq.token_ids == SEP_ID)[0][0])
    assert tuple(seq.boxes[sep]) == (0, 0, 0, 0)
    assert np.all(seq.boxes[seq.length:] == 0)
    assert np.all(seq.token_ids[seq.length:] == PAD_ID)


def test_encode_word_level_equal_split():
    doc = RawDocument("d", 1000, 1000, [RawCell("alpha beta", (0, 0, 100, 10))])
    seq = encode_document(doc, _simple_vocab(), 16, "word")
    content = np.nonzero(seq.cell_index >= 0)[0]
    assert tuple(seq.boxes[content[0]]) == (0, 0, 50, 10)
    assert tuple(seq.boxes[content[1]]) == (50, 0, 100, 10)


def test_encode_rejects_empty_doc_and_tiny_window():
    with pytest.raises(IngestError):
        encode_document(RawDocument("d", 10, 10, []), _simple_vocab(), 16)
    doc = RawDocument("d", 10, 10, [RawCell("alpha", (0, 0, 5, 5))])
    with pytest.raises(ValueError):
        encode_document(doc, _simple_vocab(), 2)


def test_encode_truncates_at_token_granularity():
    doc = RawDocument("d", 1000, 1000, [
        RawCell("alpha beta gamma delta", (0, 0, 400, 20)),
        RawCell("alpha beta", (0, 30, 200, 50)),
    ])
    seq = encode_document(doc, _simple_vocab(), 5)
    assert seq.length == 5
    assert seq.token_ids[0] == CLS_ID
    assert seq.token_ids[4] == SEP_ID
    assert (seq.cell_index >= 0).sum() == 3  # the first cell got split


def test_encode_box_equality_iff_same_cell_on_synthetic_docs():
    from cellformer.pretrain import derive_rng
    from cellformer.synth import SynthConfig, gen_pretrain_doc, vocab_words

    cfg = SynthConfig(seed=5)
    vocab = build_vocab(vocab_words(cfg), 512)
    for i in range(20):
        doc = gen_pretrain_doc(cfg, derive_rng(5, "rt", i), f"rt{i}")
        seq = encode_document(doc, vocab, 128, "cell")
        content = seq.cell_index >= 0
        boxes = {}
        for pos in np.nonzero(content)[0]:
            ci = seq.cell_index[pos]
            key = tuple(seq.boxes[pos])
            boxes.setdefault(ci, set()).add(key)
        per_cell = {ci: next(iter(v)) for ci, v in boxes.items()}
        assert all(len(v) == 1 for v in boxes.values())  # same cell -> same box
        assert len(set(per_cell.values())) == len(per_cell)  # distinct cells differ
        for pos in np.nonzero(~content)[0]:
            assert tuple(seq.boxes[pos]) == (0, 0, 0, 0)


@pytest.mark.parametrize("mode", ["cell", "word"])
@pytest.mark.parametrize("max_len", [8, 64])
def test_encode_matches_a_plain_reference(edge_docs, edge_vocab, reference_tokens,
                                          mode, max_len):
    cut_words = set()
    for doc in edge_docs:
        cells, rows = reference_tokens(doc, edge_vocab, mode)
        kept, pad = rows[:max_len - 2], max(0, max_len - 2 - len(rows))
        ids, cell_idx, word_idx, boxes = zip(*kept)
        seq = encode_document(doc, edge_vocab, max_len, mode)
        assert seq.token_ids.tolist() == [CLS_ID, *ids, SEP_ID] + [PAD_ID] * pad
        assert seq.cell_index.tolist() == [-1, *cell_idx] + [-1] * (pad + 1)
        assert seq.word_index.tolist() == [-1, *word_idx] + [-1] * (pad + 1)
        assert seq.boxes.tolist() == [[0] * 4, *map(list, boxes)] + [[0] * 4] * (pad + 1)
        assert seq.cell_boxes.tolist() == [list(c.box) for c in cells]
        assert (seq.length, seq.n_words) == (len(kept) + 2, sum(len(c.words) for c in cells))
        for a in (seq.token_ids, seq.cell_index, seq.word_index, seq.boxes, seq.cell_boxes):
            assert a.dtype == np.int64
        if len(rows) > len(kept) and rows[len(kept)][2] == word_idx[-1]:
            cut_words.add(doc.doc_id)
    # the documents reach the edges they are meant to
    streams = {d.doc_id: reference_tokens(d, edge_vocab, mode) for d in edge_docs}
    pieces = [edge_vocab.token(r[0]) for _, rows in streams.values() for r in rows]
    assert UNK in pieces and "##s" in pieces and "##e" in pieces
    ties = [c.source_index for c in streams["ties"][0]]
    assert ties == [4, 0, 1, 3, 2]  # three cells meet at grid origin (10, 20)
    if max_len == 8:
        assert cut_words == {"oov", "ties", "cut"}


# -- pinned ingest outputs ---------------------------------------------------------

# sha256 of `_ingest_digest()`. Without the documents that end on a page's
# own edge, the inputs hash to 9ba1b7d3..., as on the scalar normalization
# code that `grid_boxes` and the by-index box lookup replaced (commit
# c780c75). Of those documents, the edge rule moves frac12 and frac37.
INGEST_DIGEST = "6aa8bd49e534abf5d4d5aa37d87fedabf23200e341d6071a8cf4f982b5d5b99e"


def _on_fractional_page(doc, i):
    """`doc` rescaled onto a fractional page; odd documents drop their word
    boxes (split boxes), every fifth pushes its last cell past the page and
    every fifth from the third ends its last cell on the page's own edge."""
    w, h = 612.5 + 0.37 * i, 791.3 + 1.9 * i
    sx, sy = w / 1000, h / 1000

    def scale(box):
        x0, y0, x1, y1 = box
        return (x0 * sx, y0 * sy, x1 * sx, y1 * sy)

    cells = [RawCell(c.text, scale(c.box),
                     [scale(b) for b in c.word_boxes] if i % 2 == 0 else None)
             for c in doc.cells]
    if i % 5 in (0, 2):
        x0, y0, _, _ = cells[-1].box
        edge = (w * 1.07, h + 3.5) if i % 5 == 0 else (w, h)
        cells[-1] = RawCell(cells[-1].text, (x0, y0, *edge))
    return RawDocument(f"frac{i}", w, h, cells)


def _ingest_digest() -> str:
    """Every `encode_document` output of 40 synthetic documents and of the
    same documents on fractional pages, in both layout modes at max_len 16
    and 128, plus every `qa_windows` output on 20 QA examples."""
    from cellformer.model import ModelConfig
    from cellformer.pretrain import derive_rng
    from cellformer.synth import SynthConfig, gen_pretrain_doc, gen_qa_dataset, vocab_words
    from cellformer.tasks import qa_windows

    cfg = SynthConfig(seed=23)
    vocab = build_vocab(vocab_words(cfg), 512)
    synthetic = [gen_pretrain_doc(cfg, derive_rng(23, "pin", i), f"pin{i}")
                 for i in range(40)]
    fractional = [_on_fractional_page(d, i) for i, d in enumerate(synthetic)]
    h = hashlib.sha256()
    for doc in synthetic + fractional:
        for mode in ("cell", "word"):
            for max_len in (16, 128):
                seq = encode_document(doc, vocab, max_len, mode)
                for a in (seq.token_ids, seq.cell_index, seq.word_index,
                          seq.boxes, seq.cell_boxes):
                    h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
                h.update(f"{seq.doc_id},{seq.length},{seq.n_words};".encode())
    for ex in gen_qa_dataset(cfg, 20):
        for mode in ("cell", "word"):
            for max_len in (32, 128):
                model_cfg = ModelConfig(vocab_size=len(vocab), max_len=max_len,
                                        layout_mode=mode)
                windows, words = qa_windows(ex, vocab, model_cfg)
                for win in windows:
                    for a in (win.token_ids, win.boxes, win.doc_mask):
                        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
                    h.update(f"{win.length},{win.doc_offset},{win.doc_start},"
                             f"{win.window_token_ids};".encode())
                h.update(f"{words};".encode())
    return h.hexdigest()


def test_ingest_outputs_are_pinned():
    assert _ingest_digest() == INGEST_DIGEST

"""Box normalization, reading-order serialization, vocabulary construction,
tokenization, and window encoding."""

import numpy as np
import pytest

from cellformer.documents import (
    EMPTY_BOX, IngestError, RawCell, RawDocument,
    encode_document, normalize_box, normalize_document, serialize_cells,
)
from cellformer.vocab import (
    CLS_ID, MASK_ID, PAD_ID, RESERVED, SEP_ID, UNK, UNK_ID, Vocab,
    build_vocab, detokenize, tokenize,
)

# -- normalization ---------------------------------------------------------------


def test_normalize_box_direct_formula():
    assert normalize_box((500, 250, 1000, 500), 2000, 1000) == (250, 250, 500, 500)


def test_normalize_box_range_endpoints():
    assert normalize_box((0, 0, 2000, 1000), 2000, 1000) == (0, 0, 1000, 1000)


def test_normalize_box_rejects_bad_page():
    with pytest.raises(IngestError):
        normalize_box((0, 0, 1, 1), 0, 100)


def test_normalize_box_monotone_and_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = sorted(rng.uniform(0, 1700, size=2))
        c, d = sorted(rng.uniform(0, 2200, size=2))
        box = normalize_box((a, c, b, d), 1700, 2200)
        assert box.x0 <= box.x1 and box.y0 <= box.y1
        # idempotent on an already-normalized 1000-unit page
        assert normalize_box(tuple(box), 1000, 1000) == box
    # monotone per coordinate
    xs = sorted(rng.uniform(0, 1700, size=50))
    normed = [normalize_box((x, 0, 1700, 1), 1700, 2200).x0 for x in xs]
    assert normed == sorted(normed)


def test_clamp_on_ingest_warns(caplog):
    doc = RawDocument("d", 100, 100, [RawCell("hi", (50, 50, 150, 90))])
    with caplog.at_level("WARNING"):
        doc.clamp_to_page()
    assert doc.cells[0].box == (50, 50, 100, 90)
    assert "clamped" in caplog.text


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
    assert tuple(seq.boxes[0]) == EMPTY_BOX
    sep = int(np.nonzero(seq.token_ids == SEP_ID)[0][0])
    assert tuple(seq.boxes[sep]) == EMPTY_BOX
    assert np.all(seq.boxes[seq.length:] == 0)
    assert np.all(seq.token_ids[seq.length:] == PAD_ID)


def test_encode_word_level_equal_split():
    doc = RawDocument("d", 1000, 1000, [RawCell("alpha beta", (0, 0, 100, 10))])
    seq = encode_document(doc, _simple_vocab(), 16, "word-level")
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
            assert tuple(seq.boxes[pos]) == EMPTY_BOX

"""Generator guarantees: geometry rules, determinism, label construction,
and the statistical learnability invariants the training thresholds assume."""

from collections import Counter, defaultdict

import pytest

from cellformer.documents import normalize_document
from cellformer.pretrain import area_of, derive_rng
from cellformer.synth import (
    CENTS, DAYS, DOLLARS, FIELD_KEYS, MONTHS, TEMPLATES, SynthConfig, YEARS,
    _gen_form, gen_cls_dataset, gen_form_dataset, gen_pretrain_doc, gen_qa_dataset,
    vocab_words,
)

CFG = SynthConfig(seed=3)


def forms(n, tag="t"):
    return [_gen_form(CFG, derive_rng(CFG.seed, tag, i), f"{tag}{i}")
            for i in range(n)]


def test_value_cells_sit_right_of_their_keys():
    for layout in forms(40):
        by_key = defaultdict(dict)
        for cell, role, ki in zip(layout.doc.cells, layout.roles,
                                  layout.key_indices):
            if role in ("key", "value"):
                by_key[ki][role] = cell
        assert by_key
        for pair in by_key.values():
            key_box, value_box = pair["key"].box, pair["value"].box
            assert value_box[0] >= key_box[2] or value_box[1] >= key_box[3]


def test_header_center_always_in_grid_row_zero():
    for layout in forms(60):
        header = layout.doc.cells[layout.roles.index("header")]
        cy = (header.box[1] + header.box[3]) / 2
        assert cy < 250


def test_same_seed_gives_identical_documents():
    a = gen_pretrain_doc(CFG, derive_rng(9, "x"), "d")
    b = gen_pretrain_doc(CFG, derive_rng(9, "x"), "d")
    assert a == b


def test_boxes_valid_without_clamping():
    for layout in forms(40):
        doc = layout.doc
        for cell in doc.cells:
            x0, y0, x1, y1 = cell.box
            assert 0 <= x0 <= x1 <= 1000 and 0 <= y0 <= y1 <= 1000
            assert len(cell.word_boxes) == len(cell.text.split())
            for wx0, wy0, wx1, wy1 in cell.word_boxes:
                assert x0 <= wx0 <= wx1 <= x1
                assert y0 <= wy0 <= wy1 <= y1
        # normalization is the identity here, so no clamping can occur
        for cell, raw in zip(normalize_document(doc), doc.cells):
            assert cell.box == raw.box
            assert all(0 <= v <= 1000 for box in cell.word_boxes for v in box)


def test_every_document_has_a_multiword_cell():
    for layout in forms(40):
        assert any(len(c.text.split()) > 1 for c in layout.doc.cells)


# -- tagging dataset ---------------------------------------------------------


def test_form_dataset_bies_construction():
    data = gen_form_dataset(CFG, 30)
    for ex in data:
        order = sorted(range(len(ex.doc.cells)),
                       key=lambda i: (ex.doc.cells[i].box[1],
                                      ex.doc.cells[i].box[0], i))
        offset = 0
        n_words = sum(len(c.text.split()) for c in ex.doc.cells)
        assert len(ex.word_labels) == n_words
        for ci in order:
            k = len(ex.doc.cells[ci].text.split())
            chunk = ex.word_labels[offset:offset + k]
            kinds = {t.split("-")[0] for t in chunk}
            if chunk[0] == "O":
                assert kinds == {"O"}
            elif k == 1:
                assert chunk[0].startswith("S-")
            else:
                assert chunk[0].startswith("B-")
                assert chunk[-1].startswith("E-")
                assert all(t.startswith("I-") for t in chunk[1:-1])
            offset += k


def test_form_dataset_has_all_categories_and_distractors():
    data = gen_form_dataset(CFG, 60)
    seen = Counter(t.split("-")[-1] for ex in data for t in ex.word_labels)
    assert seen["question"] > 0 and seen["answer"] > 0
    assert seen["header"] > 0 and seen["O"] > 0


def test_form_dataset_needs_two_docs():
    with pytest.raises(ValueError):
        gen_form_dataset(CFG, 1)


# -- qa dataset ----------------------------------------------------------------


def test_qa_span_tokens_join_to_answer():
    data = gen_qa_dataset(CFG, 40)
    for ex in data:
        order = sorted(range(len(ex.doc.cells)),
                       key=lambda i: (ex.doc.cells[i].box[1],
                                      ex.doc.cells[i].box[0], i))
        words = [w for ci in order for w in ex.doc.cells[ci].text.split()]
        s, e = ex.span
        assert " ".join(words[s:e + 1]) == ex.answers[0]


def test_qa_question_key_appears_once():
    data = gen_qa_dataset(CFG, 40)
    for ex in data:
        key_phrase = ex.question.removeprefix("what is the ").removesuffix(" ?")
        key_cells = [c for c in ex.doc.cells if c.text == key_phrase]
        assert len(key_cells) == 1


def test_qa_deterministic():
    a = gen_qa_dataset(CFG, 5)
    b = gen_qa_dataset(CFG, 5)
    assert a == b


# -- cls dataset ------------------------------------------------------------------


def test_cls_class_balance_and_label_recoverable():
    data = gen_cls_dataset(CFG, 25)
    counts = Counter(ex.label for ex in data)
    assert max(counts.values()) - min(counts.values()) <= 1
    for i, ex in enumerate(data):
        assert ex.label == i % len(TEMPLATES)


def test_cls_deterministic():
    assert gen_cls_dataset(CFG, 9) == gen_cls_dataset(CFG, 9)


# -- learnability invariants ---------------------------------------------------------


GRAMMAR_CHECK = {
    "date": lambda w: (
        (len(w) == 3 and w[0] in DAYS and w[1] in MONTHS and w[2] in YEARS)
        or (len(w) == 2 and w[0] in MONTHS and w[1] in YEARS)
    ),
    "amount": lambda w: len(w) == 3 and w[0] in DOLLARS and w[1] == "." and w[2] in CENTS,
    "code": lambda w: len(w) == 2,
    "name": lambda w: len(w) == 2,
    "city": lambda w: len(w) in (1, 2),
    "status": lambda w: len(w) == 1,
    "qty": lambda w: len(w) in (1, 2),
}


def test_key_lexeme_determines_value_grammar():
    layouts = forms(300, tag="learn")
    checked = matched = 0
    for layout in layouts:
        for cell, role, ki in zip(layout.doc.cells, layout.roles,
                                  layout.key_indices):
            if role != "value":
                continue
            grammar = FIELD_KEYS[ki][1]
            checked += 1
            if GRAMMAR_CHECK[grammar](cell.text.split()):
                matched += 1
    assert checked > 1000
    assert matched / checked >= 0.90  # construction makes this 1.0


def test_majority_area_per_lexeme_is_correct_for_most_cells():
    layouts = forms(1000, tag="area")
    observations = []  # (governing lexeme, actual area)
    for layout in layouts:
        for cell, role, ki in zip(layout.doc.cells, layout.roles,
                                  layout.key_indices):
            if role == "other":
                continue
            area = area_of(cell.box, 16)
            lexeme = "header" if role == "header" else FIELD_KEYS[ki][0]
            observations.append((lexeme, area))
    majority = {}
    per_lexeme = defaultdict(Counter)
    for lexeme, area in observations:
        per_lexeme[lexeme][area] += 1
    for lexeme, counts in per_lexeme.items():
        majority[lexeme] = counts.most_common(1)[0][0]
    correct = sum(1 for lexeme, area in observations
                  if majority[lexeme] == area)
    assert correct / len(observations) >= 0.80


def test_vocab_words_fit_budget():
    words = set(vocab_words(CFG))
    assert len(words) <= 512 - 5 - 188  # reserved + fallback pieces

"""File-format round trips and schema errors."""

import json

import pytest

from cellformer.dataio import (
    DataError, MetricsLog, read_cell_jsonl, read_cls_examples, read_qa_examples,
    read_metrics, read_tagging_examples, write_cell_jsonl, write_cls_jsonl, write_qa_jsonl,
    write_tagging_jsonl,
)
from cellformer.synth import SynthConfig, gen_cls_dataset, gen_form_dataset, gen_qa_dataset

CFG = SynthConfig(seed=17, min_pairs=3, max_pairs=4)


def test_cell_jsonl_round_trip(tmp_path):
    docs = [ex.doc for ex in gen_form_dataset(CFG, 5)]
    path = tmp_path / "docs.jsonl"
    assert write_cell_jsonl(docs, path) == 5
    loaded = read_cell_jsonl(path)
    assert loaded == docs
    # second write is byte-identical
    path2 = tmp_path / "again.jsonl"
    write_cell_jsonl(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_task_jsonl_round_trips(tmp_path):
    form = gen_form_dataset(CFG, 5)
    qa = gen_qa_dataset(CFG, 5)
    cls = gen_cls_dataset(CFG, 6)
    write_cell_jsonl([e.doc for e in form], tmp_path / "fd.jsonl")
    write_tagging_jsonl(form, tmp_path / "fl.jsonl")
    write_cell_jsonl([e.doc for e in qa], tmp_path / "qd.jsonl")
    write_qa_jsonl(qa, tmp_path / "ql.jsonl")
    write_cell_jsonl([e.doc for e in cls], tmp_path / "cd.jsonl")
    write_cls_jsonl(cls, tmp_path / "cl.jsonl")

    assert read_tagging_examples(tmp_path / "fd.jsonl", tmp_path / "fl.jsonl") == form
    assert read_qa_examples(tmp_path / "qd.jsonl", tmp_path / "ql.jsonl") == qa
    assert read_cls_examples(tmp_path / "cd.jsonl", tmp_path / "cl.jsonl") == cls


def test_missing_field_named(tmp_path):
    (tmp_path / "d.jsonl").write_text(
        '{"doc_id":"a","page_width":100,"cells":[{"text":"hi","box":[0,0,5,5]}]}\n'
    )
    with pytest.raises(DataError, match="page_height"):
        read_cell_jsonl(tmp_path / "d.jsonl")


def test_bad_json_names_line(tmp_path):
    good = '{"doc_id":"a","page_width":100,"page_height":100,"cells":[{"text":"hi","box":[0,0,5,5]}]}'
    (tmp_path / "d.jsonl").write_text(good + "\n{oops\n")
    with pytest.raises(DataError, match=r"d\.jsonl:2"):
        read_cell_jsonl(tmp_path / "d.jsonl")


GOOD_CELL = {"text": "hi there", "box": [0, 0, 50, 5], "word_boxes": [[0, 0, 20, 5], [25, 0, 50, 5]]}


def _doc_line(**change):
    rec = {"doc_id": "bad", "page_width": 100, "page_height": 100, "cells": [dict(GOOD_CELL)]}
    cell = change.pop("cell", {})
    rec["cells"][0].update(cell)
    rec.update(change)
    return json.dumps(rec)


@pytest.mark.parametrize("line", [
    _doc_line(cell={"box": [0, float("nan"), 50, 5]}),
    _doc_line(page_height=float("nan")),
    _doc_line(page_width="wide"),
    _doc_line(page_width=float("inf")),
    _doc_line(cell={"word_boxes": [[-1, 0, 20, 5], [25, 0, 50, 5]]}),
    _doc_line(cell={"word_boxes": [[50, 0, 10, 5], [25, 0, 50, 5]]}),
    _doc_line(cell={"word_boxes": [[0, 0, 20], [25, 0, 50, 5]]}),
    _doc_line(cell={"text": 5}),
    _doc_line(cells=5),
    _doc_line(cells=[5]),
    _doc_line(cells=[]),
    "5",
], ids=["nan-box", "nan-page-height", "string-page-width", "infinite-page-width",
        "negative-word-box", "reversed-word-box", "short-word-box", "number-text",
        "number-cells", "number-cell", "no-cells", "not-an-object"])
def test_malformed_cell_documents_name_path_and_line(tmp_path, line):
    good = _doc_line(doc_id="good")
    (tmp_path / "d.jsonl").write_text(good + "\n" + line + "\n")
    with pytest.raises(DataError, match=r"d\.jsonl:2: "):
        read_cell_jsonl(tmp_path / "d.jsonl")


def _write_labels(tmp_path, docs, records):
    write_cell_jsonl(docs, tmp_path / "d.jsonl")
    (tmp_path / "l.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return tmp_path / "d.jsonl", tmp_path / "l.jsonl"


def test_unknown_tag_names_path_and_line(tmp_path):
    ex = gen_form_dataset(CFG, 2)[0]
    labels = list(ex.word_labels)
    labels[1] = "X-foo"
    paths = _write_labels(tmp_path, [ex.doc], [
        {"doc_id": ex.doc.doc_id, "word_labels": ex.word_labels},
        {"doc_id": ex.doc.doc_id, "word_labels": labels},
    ])
    with pytest.raises(DataError, match=r"l\.jsonl:2: unknown tag 'X-foo'"):
        read_tagging_examples(*paths)


def test_tagging_label_count_mismatch(tmp_path):
    # one label too many or too few is a data error at its own record
    ex = gen_form_dataset(CFG, 2)[0]
    n = len(ex.word_labels)
    for labels in (ex.word_labels + ["O"], ex.word_labels[:-1]):
        paths = _write_labels(tmp_path, [ex.doc], [
            {"doc_id": ex.doc.doc_id, "word_labels": ex.word_labels},
            {"doc_id": ex.doc.doc_id, "word_labels": labels},
        ])
        with pytest.raises(DataError, match=rf"l\.jsonl:2: {len(labels)} word labels "
                                            rf"for the {n} words of document"):
            read_tagging_examples(*paths)


@pytest.mark.parametrize("change", [
    {"span": [3]}, {"span": "ab"}, {"span": [5, 2]}, {"span": [-1, 2]}, {"answers": "foo"},
], ids=["one-word-span", "string-span", "reversed-span", "negative-span", "string-answers"])
def test_malformed_qa_record_names_path_and_line(tmp_path, change):
    ex = gen_qa_dataset(CFG, 2)[0]
    record = {"doc_id": ex.doc.doc_id, "question": ex.question, "answers": ex.answers,
              "span": list(ex.span), **change}
    paths = _write_labels(tmp_path, [ex.doc], [record])
    with pytest.raises(DataError, match=r"l\.jsonl:1: '(span|answers)' must be"):
        read_qa_examples(*paths)


@pytest.mark.parametrize("change, message", [
    ({"question": None}, "'question' must be a string, got None"),
    ({"question": ["what"]}, "'question' must be a string"),
    ({"answers": []}, "'answers' must be a non-empty list of strings, got \\[\\]"),
], ids=["null-question", "list-question", "no-answers"])
def test_qa_question_and_answers_are_checked_where_read(tmp_path, change, message):
    ex = gen_qa_dataset(CFG, 2)[0]
    record = {"doc_id": ex.doc.doc_id, "question": ex.question, "answers": ex.answers,
              "span": list(ex.span)}
    paths = _write_labels(tmp_path, [ex.doc], [record, {**record, **change}])
    with pytest.raises(DataError, match=r"l\.jsonl:2: " + message):
        read_qa_examples(*paths)


def test_qa_span_past_the_documents_words_names_path_and_line(tmp_path):
    ex = gen_qa_dataset(CFG, 2)[0]
    n = sum(len(c.text.split()) for c in ex.doc.cells)
    record = {"doc_id": ex.doc.doc_id, "question": ex.question, "answers": ex.answers}
    last_word = [{**record, "span": [n - 1, n - 1]}, {**record, "span": None}]
    assert [e.span for e in read_qa_examples(*_write_labels(tmp_path, [ex.doc], last_word))
            ] == [(n - 1, n - 1), None]
    paths = _write_labels(tmp_path, [ex.doc], [{**record, "span": list(ex.span)},
                                               {**record, "span": [n - 2, n]}])
    with pytest.raises(DataError, match=rf"l\.jsonl:2: span \[{n - 2}, {n}\] ends past the "
                                        rf"{n} words of document '{ex.doc.doc_id}'"):
        read_qa_examples(*paths)


def test_qa_question_is_read_lowercase(tmp_path):
    ex = gen_qa_dataset(CFG, 2)[0]
    record = {"doc_id": ex.doc.doc_id, "question": "What is the TOTAL ?",
              "answers": ex.answers, "span": list(ex.span)}
    (read,) = read_qa_examples(*_write_labels(tmp_path, [ex.doc], [record]))
    assert read.question == "what is the total ?"


@pytest.mark.parametrize("label", ["abc", "1", 1.5, True, None])
def test_non_integer_class_label_names_path_and_line(tmp_path, label):
    ex = gen_cls_dataset(CFG, 2)[0]
    paths = _write_labels(tmp_path, [ex.doc], [{"doc_id": ex.doc.doc_id, "label": label}])
    with pytest.raises(DataError, match=r"l\.jsonl:1: class label"):
        read_cls_examples(*paths)


def test_unknown_doc_id_in_labels(tmp_path):
    form = gen_form_dataset(CFG, 3)
    write_cell_jsonl([e.doc for e in form[:2]], tmp_path / "d.jsonl")
    write_tagging_jsonl(form, tmp_path / "l.jsonl")
    with pytest.raises(DataError, match=form[2].doc.doc_id):
        read_tagging_examples(tmp_path / "d.jsonl", tmp_path / "l.jsonl")


def test_empty_files_rejected(tmp_path):
    (tmp_path / "e.jsonl").write_text("")
    with pytest.raises(DataError, match="no documents"):
        read_cell_jsonl(tmp_path / "e.jsonl")


def test_metrics_log_starts_afresh_or_keeps_the_steps_before_a_resume(tmp_path):
    path = tmp_path / "m.jsonl"
    with MetricsLog(path) as log:
        for step in range(5):
            log.write({"step": step, "loss": step / 3})
    full = path.read_text()
    with MetricsLog(path) as log:
        log.write({"step": 0, "loss": 0.0})
    assert read_metrics(path) == [{"step": 0, "loss": 0.0}]

    path.write_text(full)
    with MetricsLog(path, keep_before=3) as log:
        log.write({"step": 3, "loss": 1.0})
    assert path.read_text() == "".join(full.splitlines(keepends=True)[:3]) + \
        '{"loss":1.0,"step":3}\n'

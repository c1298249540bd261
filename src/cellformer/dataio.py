"""Line-delimited file formats: cell documents, task labels, and metric
logs. Writers are byte-deterministic (sorted keys, fixed separators) so
identical configs produce identical files.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .documents import IngestError, RawCell, RawDocument
from .metrics import TAG_LABELS, TAG_TO_ID
from .taskdata import ClsExample, QaExample, TaggingExample

logger = logging.getLogger(__name__)


class DataError(Exception):
    """A data file is malformed or inconsistent with its schema."""


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_jsonl(records: Iterable[dict], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_dumps(record) + "\n")
            count += 1
    return count


def _iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from None
                if not isinstance(record, dict):
                    raise DataError(f"{path}:{lineno}: expected a JSON object")
                yield lineno, record
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e}") from None


def _read_records(path, parse: Callable[[dict], object]) -> Iterator:
    """`parse(record)` per record of `path`; a missing field or a value
    that `parse` rejects becomes a DataError naming `path:line`."""
    for lineno, record in _iter_jsonl(path):
        try:
            parsed = parse(record)
        except KeyError as e:
            raise DataError(f"{path}:{lineno}: missing field {e}") from None
        except (ValueError, TypeError) as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        yield parsed


# -- cell documents ----------------------------------------------------------


def _cell_record(cell: RawCell) -> dict:
    record = {"text": cell.text, "box": [_num(v) for v in cell.box]}
    if cell.word_boxes is not None:
        record["word_boxes"] = [[_num(v) for v in wb] for wb in cell.word_boxes]
    return record


def write_cell_jsonl(docs: Iterable[RawDocument], path) -> int:
    return _write_jsonl(({
        "doc_id": doc.doc_id,
        "page_width": _num(doc.page_width),
        "page_height": _num(doc.page_height),
        "cells": [_cell_record(c) for c in doc.cells],
    } for doc in docs), path)


def _num(v):
    f = float(v)
    return int(f) if f.is_integer() else f


def _document(record: dict) -> RawDocument:
    cells = record["cells"]
    if not isinstance(cells, list):
        raise IngestError(f"'cells' must be a list, got {cells!r}")
    return RawDocument(
        doc_id=str(record["doc_id"]),
        page_width=record["page_width"],
        page_height=record["page_height"],
        cells=[RawCell(
            text=c["text"],
            box=tuple(c["box"]),
            word_boxes=None if c.get("word_boxes") is None
            else [tuple(wb) for wb in c["word_boxes"]],
        ) for c in cells],
    )


def read_cell_jsonl(path) -> list[RawDocument]:
    """Documents of a cell-JSONL file, each checked by its constructors; a
    document with boxes past its page gets one warning (those coordinates
    map to the grid edge)."""
    docs = list(_read_records(path, _document))
    for doc in docs:
        w, h = doc.page_width, doc.page_height
        if any(b[2] > w or b[3] > h
               for c in doc.cells for b in (c.box, *(c.word_boxes or ()))):
            logger.warning("document %s: boxes past the page edge map to the grid edge",
                           doc.doc_id)
    if not docs:
        raise DataError(f"{path}: no documents")
    return docs


# -- task files ---------------------------------------------------------------


def write_tagging_jsonl(examples: Iterable[TaggingExample], path) -> int:
    return _write_jsonl(({"doc_id": ex.doc.doc_id, "word_labels": ex.word_labels}
                         for ex in examples), path)


def write_qa_jsonl(examples: Iterable[QaExample], path) -> int:
    return _write_jsonl(({
        "doc_id": ex.doc.doc_id,
        "question": ex.question,
        "answers": ex.answers,
        "span": list(ex.span) if ex.span is not None else None,
    } for ex in examples), path)


def write_cls_jsonl(examples: Iterable[ClsExample], path) -> int:
    return _write_jsonl(({"doc_id": ex.doc.doc_id, "label": ex.label}
                         for ex in examples), path)


def _read_examples(docs_path, labels_path, parse: Callable[[RawDocument, dict], object]):
    """One example per record of `labels_path`: `parse(doc, record)` with
    the record's document from `docs_path`."""
    index: dict[str, RawDocument] = {}
    for d in read_cell_jsonl(docs_path):
        if d.doc_id in index:
            raise DataError(f"{docs_path}: duplicate doc_id '{d.doc_id}'")
        index[d.doc_id] = d

    def example(record):
        doc_id = str(record["doc_id"])
        if doc_id not in index:
            raise ValueError(f"unknown doc_id '{doc_id}'")
        return parse(index[doc_id], record)

    out = list(_read_records(labels_path, example))
    if not out:
        raise DataError(f"{labels_path}: no examples")
    return out


def _word_count(doc: RawDocument) -> int:
    return sum(len(c.text.split()) for c in doc.cells)


def _tagging_example(doc: RawDocument, record: dict) -> TaggingExample:
    labels = record["word_labels"]
    if not isinstance(labels, list):
        raise ValueError(f"'word_labels' must be a list, got {labels!r}")
    for tag in labels:
        if not isinstance(tag, str) or tag not in TAG_TO_ID:
            raise ValueError(f"unknown tag {tag!r}; expected one of {', '.join(TAG_LABELS)}")
    n_words = _word_count(doc)
    if len(labels) != n_words:
        raise ValueError(f"{len(labels)} word labels for the {n_words} words of "
                         f"document '{doc.doc_id}'")
    return TaggingExample(doc=doc, word_labels=labels)


def _qa_example(doc: RawDocument, record: dict) -> QaExample:
    question, answers, span = record["question"], record["answers"], record["span"]
    if not isinstance(question, str):
        raise ValueError(f"'question' must be a string, got {question!r}")
    if not (isinstance(answers, list) and answers and all(isinstance(a, str) for a in answers)):
        raise ValueError(f"'answers' must be a non-empty list of strings, got {answers!r}")
    if span is not None:
        if not (isinstance(span, list) and len(span) == 2
                and all(type(w) is int for w in span) and 0 <= span[0] <= span[1]):
            raise ValueError(f"'span' must be null or [first word, last word], got {span!r}")
        n_words = _word_count(doc)
        if span[1] >= n_words:
            raise ValueError(f"span {span} ends past the {n_words} words of "
                             f"document '{doc.doc_id}'")
        span = tuple(span)
    return QaExample(doc=doc, question=question, answers=answers, span=span)


def _cls_example(doc: RawDocument, record: dict) -> ClsExample:
    label = record["label"]
    if isinstance(label, bool) or not isinstance(label, int):
        raise ValueError(f"class label must be an integer, got {label!r}")
    return ClsExample(doc=doc, label=label)


def read_tagging_examples(docs_path, labels_path) -> list[TaggingExample]:
    return _read_examples(docs_path, labels_path, _tagging_example)


def read_qa_examples(docs_path, labels_path) -> list[QaExample]:
    return _read_examples(docs_path, labels_path, _qa_example)


def read_cls_examples(docs_path, labels_path) -> list[ClsExample]:
    return _read_examples(docs_path, labels_path, _cls_example)


# -- metrics / reports ---------------------------------------------------------


class MetricsLog:
    """Line-delimited metric records, one per `write`. Opening a log starts
    its file afresh, keeping only the records already there whose `step` is
    below `keep_before`: the ones a run resumed at that step would have
    written before it."""

    def __init__(self, path, keep_before: int = 0):
        self.path = Path(path)
        kept = []
        if keep_before and self.path.exists():
            kept = [r for r in read_metrics(path) if r["step"] < keep_before]
        self._fh = open(path, "w", encoding="utf-8")
        for record in kept:
            self.write(record)

    def write(self, record: dict) -> None:
        self._fh.write(_dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_metrics(path) -> list[dict]:
    return [rec for _, rec in _iter_jsonl(path)]


def write_report(path, fields: dict) -> None:
    """key=value report, floats fixed to 4 decimals."""
    lines = []
    for key, value in fields.items():
        if isinstance(value, float):
            lines.append(f"{key}={value:.4f}")
        else:
            lines.append(f"{key}={value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

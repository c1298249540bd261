"""Line-delimited file formats: cell documents, task labels, and metric
logs. Writers are byte-deterministic (sorted keys, fixed separators) so
identical configs produce identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .documents import IngestError, RawCell, RawDocument
from .taskdata import ClsExample, QaExample, TaggingExample


class DataError(Exception):
    """A data file is malformed or inconsistent with its schema."""


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from None


def _require(record: dict, field: str, path, lineno: int):
    if field not in record:
        raise DataError(f"{path}:{lineno}: missing field '{field}'")
    return record[field]


# -- cell documents ----------------------------------------------------------


def write_cell_jsonl(docs: Iterable[RawDocument], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            cells = []
            for c in doc.cells:
                rec = {"text": c.text, "box": [_num(v) for v in c.box]}
                if c.word_boxes is not None:
                    rec["word_boxes"] = [[_num(v) for v in wb] for wb in c.word_boxes]
                cells.append(rec)
            fh.write(_dumps({
                "doc_id": doc.doc_id,
                "page_width": _num(doc.page_width),
                "page_height": _num(doc.page_height),
                "cells": cells,
            }) + "\n")
            count += 1
    return count


def _num(v):
    f = float(v)
    return int(f) if f.is_integer() else f


def read_cell_jsonl(path) -> list[RawDocument]:
    docs = []
    for lineno, rec in _iter_jsonl(path):
        cells = []
        for c in _require(rec, "cells", path, lineno):
            if "text" not in c or "box" not in c:
                raise DataError(f"{path}:{lineno}: cell missing 'text' or 'box'")
            try:
                cells.append(RawCell(
                    text=c["text"],
                    box=tuple(c["box"]),
                    word_boxes=[tuple(wb) for wb in c["word_boxes"]]
                    if c.get("word_boxes") is not None else None,
                ))
            except (IngestError, ValueError, TypeError) as e:
                raise DataError(f"{path}:{lineno}: bad cell: {e}") from None
        doc = RawDocument(
            doc_id=str(_require(rec, "doc_id", path, lineno)),
            page_width=_require(rec, "page_width", path, lineno),
            page_height=_require(rec, "page_height", path, lineno),
            cells=cells,
        )
        doc.clamp_to_page()
        docs.append(doc)
    if not docs:
        raise DataError(f"{path}: no documents")
    return docs


# -- task files ---------------------------------------------------------------


def write_tagging_jsonl(examples: Iterable[TaggingExample], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(_dumps({"doc_id": ex.doc.doc_id,
                             "word_labels": ex.word_labels}) + "\n")
            count += 1
    return count


def write_qa_jsonl(examples: Iterable[QaExample], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(_dumps({
                "doc_id": ex.doc.doc_id,
                "question": ex.question,
                "answers": ex.answers,
                "span": list(ex.span) if ex.span is not None else None,
            }) + "\n")
            count += 1
    return count


def write_cls_jsonl(examples: Iterable[ClsExample], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(_dumps({"doc_id": ex.doc.doc_id, "label": ex.label}) + "\n")
            count += 1
    return count


def _doc_index(docs: list[RawDocument], path) -> dict[str, RawDocument]:
    index = {}
    for d in docs:
        if d.doc_id in index:
            raise DataError(f"{path}: duplicate doc_id '{d.doc_id}'")
        index[d.doc_id] = d
    return index


def read_tagging_examples(docs_path, labels_path) -> list[TaggingExample]:
    index = _doc_index(read_cell_jsonl(docs_path), docs_path)
    out = []
    for lineno, rec in _iter_jsonl(labels_path):
        doc_id = str(_require(rec, "doc_id", labels_path, lineno))
        labels = _require(rec, "word_labels", labels_path, lineno)
        if doc_id not in index:
            raise DataError(f"{labels_path}:{lineno}: unknown doc_id '{doc_id}'")
        out.append(TaggingExample(doc=index[doc_id], word_labels=list(labels)))
    if not out:
        raise DataError(f"{labels_path}: no examples")
    return out


def read_qa_examples(docs_path, labels_path) -> list[QaExample]:
    index = _doc_index(read_cell_jsonl(docs_path), docs_path)
    out = []
    for lineno, rec in _iter_jsonl(labels_path):
        doc_id = str(_require(rec, "doc_id", labels_path, lineno))
        if doc_id not in index:
            raise DataError(f"{labels_path}:{lineno}: unknown doc_id '{doc_id}'")
        span = _require(rec, "span", labels_path, lineno)
        out.append(QaExample(
            doc=index[doc_id],
            question=str(_require(rec, "question", labels_path, lineno)),
            answers=list(_require(rec, "answers", labels_path, lineno)),
            span=tuple(span) if span is not None else None,
        ))
    if not out:
        raise DataError(f"{labels_path}: no examples")
    return out


def read_cls_examples(docs_path, labels_path) -> list[ClsExample]:
    index = _doc_index(read_cell_jsonl(docs_path), docs_path)
    out = []
    for lineno, rec in _iter_jsonl(labels_path):
        doc_id = str(_require(rec, "doc_id", labels_path, lineno))
        if doc_id not in index:
            raise DataError(f"{labels_path}:{lineno}: unknown doc_id '{doc_id}'")
        out.append(ClsExample(doc=index[doc_id],
                              label=int(_require(rec, "label", labels_path, lineno))))
    if not out:
        raise DataError(f"{labels_path}: no examples")
    return out


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

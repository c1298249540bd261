"""Labeled example types for the three fine-tuning tasks, plus the
deterministic train/eval split convention shared by generators and loaders.

The split is positional: every fifth example (index % 5 == 4) is held out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .documents import RawDocument


@dataclass
class TaggingExample:
    doc: RawDocument
    word_labels: list[str]  # one BIES tag per word, serialized word order


@dataclass
class QaExample:
    doc: RawDocument
    question: str
    answers: list[str]
    span: Optional[tuple[int, int]]  # inclusive word indices, serialized order

    def __post_init__(self):
        self.question = self.question.lower()  # as `RawCell` lowercases cell text


@dataclass
class ClsExample:
    doc: RawDocument
    label: int


def split_train_eval(examples: Sequence) -> tuple[list, list]:
    train = [ex for i, ex in enumerate(examples) if i % 5 != 4]
    eval_ = [ex for i, ex in enumerate(examples) if i % 5 == 4]
    return train, eval_

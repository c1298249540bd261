"""Evaluation metrics and the BIES tag machinery shared by the fine-tuning
tasks: entity-span decoding with repair, word-level F1, span extraction from
start/end logits, and the thresholded normalized-edit-distance QA score.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ENTITY_CATEGORIES = ("question", "answer", "header")

# O is id 0; then B/I/E/S blocks per category
TAG_LABELS = ["O"] + [f"{p}-{c}" for c in ENTITY_CATEGORIES for p in "BIES"]
TAG_TO_ID = {t: i for i, t in enumerate(TAG_LABELS)}
O_TAG = "O"


def decode_bies(tags: Sequence[str]) -> list[tuple[str, int, int]]:
    """Entity spans (category, first word, last word; inclusive) from one
    BIES tag sequence.

    Total via repair: an unterminated B..I run ends at its last seen
    position; an I or E with no compatible open run becomes a singleton of
    its own category.
    """
    spans: list[tuple[str, int, int]] = []
    open_cat: str | None = None
    open_start = open_last = -1

    def close():
        nonlocal open_cat
        if open_cat is not None:
            spans.append((open_cat, open_start, open_last))
            open_cat = None

    for i, tag in enumerate(tags):
        if tag == O_TAG:
            close()
            continue
        pos, cat = tag.split("-", 1)
        if pos == "B":
            close()
            open_cat, open_start, open_last = cat, i, i
        elif pos == "S":
            close()
            spans.append((cat, i, i))
        elif pos == "I":
            if open_cat == cat:
                open_last = i
            else:
                close()
                spans.append((cat, i, i))
        elif pos == "E":
            if open_cat == cat:
                spans.append((cat, open_start, i))
                open_cat = None
            else:
                close()
                spans.append((cat, i, i))
        else:
            raise ValueError(f"unknown tag {tag!r}")
    close()
    return spans


def word_f1(pred: Sequence[str], gold: Sequence[str]) -> tuple[float, float, float]:
    """Micro word-level precision/recall/F1 over non-O words.

    precision = |pred != O and pred == gold| / |pred != O|, recall the same
    with gold != O; degenerate denominators give 0.
    """
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} pred vs {len(gold)} gold")
    pred_pos = sum(1 for p in pred if p != O_TAG)
    gold_pos = sum(1 for g in gold if g != O_TAG)
    correct = sum(1 for p, g in zip(pred, gold) if p != O_TAG and p == g)
    precision = correct / pred_pos if pred_pos else 0.0
    recall = correct / gold_pos if gold_pos else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def extract_span(
    start_logits: np.ndarray,
    end_logits: np.ndarray,
    max_answer_len: int,
    valid: np.ndarray | None = None,
) -> tuple[int, int]:
    """Best (start, end) pair by start+end logit score.

    Valid pairs satisfy start <= end, end - start < max_answer_len, and both
    positions inside `valid` (all positions when omitted). Ties break toward
    the smallest start, then the smallest end. A NaN or -inf score is never
    picked; with no valid pair left, ValueError is raised.
    """
    start_logits = np.asarray(start_logits, dtype=np.float64)
    end_logits = np.asarray(end_logits, dtype=np.float64)
    n = len(start_logits)
    if len(end_logits) != n:
        raise ValueError("start/end logits length mismatch")
    valid = np.ones(n, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    # [start, k] -> end = start + k, for every span no longer than max_answer_len
    ends = np.arange(n)[:, None] + np.arange(min(max_answer_len, n))
    ok = ends < n
    ends[~ok] = 0
    scores = start_logits[:, None] + end_logits[ends]
    ok &= valid[:, None] & valid[ends] & (scores > -np.inf)
    if not ok.any():
        raise ValueError("no valid (start, end) pair")
    # argmax takes the first maximum in row-major order: smallest start, then end
    start, k = divmod(int(np.argmax(np.where(ok, scores, -np.inf))), ends.shape[1])
    return start, start + k


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance (insert/delete/substitute, unit costs)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _normalize_answer(s: str) -> str:
    return " ".join(s.lower().split())


def anls_single(prediction: str, gold_answers: Sequence[str], tau: float = 0.5) -> float:
    """Similarity of one prediction to its best gold answer, thresholded."""
    if not gold_answers:
        raise ValueError("empty gold answer set")
    pred = _normalize_answer(prediction)
    best = 0.0
    for gold in gold_answers:
        g = _normalize_answer(gold)
        denom = max(len(pred), len(g))
        nl = levenshtein(pred, g) / denom if denom else 0.0
        best = max(best, 1.0 - nl)
    return best if best >= tau else 0.0


def anls(
    predictions: Sequence[str],
    gold_answer_sets: Sequence[Sequence[str]],
    tau: float = 0.5,
) -> float:
    """Mean thresholded normalized-Levenshtein similarity over questions."""
    if len(predictions) != len(gold_answer_sets):
        raise ValueError("one gold answer set required per prediction")
    if not predictions:
        return 0.0
    return float(
        np.mean([anls_single(p, g, tau) for p, g in zip(predictions, gold_answer_sets)])
    )

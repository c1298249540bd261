"""Metric oracles: BIES decoding against a reference decoder and a hand
table, word F1 hand counts, span extraction against exhaustive search, and
edit-distance similarity against a memoized reference."""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from cellformer.metrics import (
    TAG_LABELS, anls, anls_single, decode_bies, extract_span, levenshtein,
    word_f1,
)

# -- reference implementations (independent of src) ---------------------------


def reference_decode(tags):
    """Re-derivation of the documented repair rule with a different code
    shape: explicit scan that first finds maximal B I* (E|end) runs, then
    singles, then orphans."""
    n = len(tags)
    spans = []
    consumed = [False] * n
    i = 0
    while i < n:
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        pos, cat = tag.split("-", 1)
        if pos == "S":
            spans.append((cat, i, i))
            consumed[i] = True
            i += 1
        elif pos == "B":
            j = i
            while j + 1 < n and tags[j + 1] == f"I-{cat}":
                j += 1
            if j + 1 < n and tags[j + 1] == f"E-{cat}":
                j += 1
            spans.append((cat, i, j))
            for k in range(i, j + 1):
                consumed[k] = True
            i = j + 1
        else:  # orphan I or E
            spans.append((cat, i, i))
            consumed[i] = True
            i += 1
    return sorted(spans, key=lambda s: s[1])


@lru_cache(maxsize=None)
def reference_edit_distance(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        reference_edit_distance(a[1:], b) + 1,
        reference_edit_distance(a, b[1:]) + 1,
        reference_edit_distance(a[1:], b[1:]) + (a[0] != b[0]),
    )


def exhaustive_best_span(start_logits, end_logits, max_len, valid):
    candidates = []
    n = len(start_logits)
    for i in range(n):
        for j in range(i, n):
            if j - i >= max_len or not (valid[i] and valid[j]):
                continue
            candidates.append((-(start_logits[i] + end_logits[j]), i, j))
    candidates.sort()
    return candidates[0][1], candidates[0][2]


def loop_best_span(start_logits, end_logits, max_len, valid):
    """The scan `extract_span` replaced: every valid pair in row-major order,
    kept when its score is strictly above the best so far."""
    best, best_score = None, -np.inf
    n = len(start_logits)
    for i in range(n):
        if not valid[i]:
            continue
        for j in range(i, min(i + max_len, n)):
            if not valid[j]:
                continue
            score = float(start_logits[i]) + float(end_logits[j])
            if score > best_score:
                best_score, best = score, (i, j)
    return best


# -- decode_bies ----------------------------------------------------------------


def test_decode_spec_examples():
    assert decode_bies(["B-question", "E-question", "O"]) == [("question", 0, 1)]
    assert decode_bies(["S-answer"]) == [("answer", 0, 0)]
    assert decode_bies(["I-header", "O"]) == [("header", 0, 0)]


HAND_TABLE_LENGTH2 = {
    # same-category pairs over question (q); start positions inclusive
    ("O", "O"): [],
    ("O", "B-q"): [("q", 1, 1)],
    ("O", "I-q"): [("q", 1, 1)],
    ("O", "E-q"): [("q", 1, 1)],
    ("O", "S-q"): [("q", 1, 1)],
    ("B-q", "O"): [("q", 0, 0)],
    ("B-q", "B-q"): [("q", 0, 0), ("q", 1, 1)],
    ("B-q", "I-q"): [("q", 0, 1)],
    ("B-q", "E-q"): [("q", 0, 1)],
    ("B-q", "S-q"): [("q", 0, 0), ("q", 1, 1)],
    ("I-q", "O"): [("q", 0, 0)],
    ("I-q", "B-q"): [("q", 0, 0), ("q", 1, 1)],
    ("I-q", "I-q"): [("q", 0, 0), ("q", 1, 1)],
    ("I-q", "E-q"): [("q", 0, 0), ("q", 1, 1)],
    ("I-q", "S-q"): [("q", 0, 0), ("q", 1, 1)],
    ("E-q", "O"): [("q", 0, 0)],
    ("E-q", "B-q"): [("q", 0, 0), ("q", 1, 1)],
    ("E-q", "I-q"): [("q", 0, 0), ("q", 1, 1)],
    ("E-q", "E-q"): [("q", 0, 0), ("q", 1, 1)],
    ("E-q", "S-q"): [("q", 0, 0), ("q", 1, 1)],
    ("S-q", "O"): [("q", 0, 0)],
    ("S-q", "B-q"): [("q", 0, 0), ("q", 1, 1)],
    ("S-q", "I-q"): [("q", 0, 0), ("q", 1, 1)],
    ("S-q", "E-q"): [("q", 0, 0), ("q", 1, 1)],
    ("S-q", "S-q"): [("q", 0, 0), ("q", 1, 1)],
    # cross-category: an open run closes before the other category starts
    ("B-q", "I-a"): [("q", 0, 0), ("a", 1, 1)],
    ("B-q", "E-a"): [("q", 0, 0), ("a", 1, 1)],
    ("B-q", "B-a"): [("q", 0, 0), ("a", 1, 1)],
    ("B-q", "S-a"): [("q", 0, 0), ("a", 1, 1)],
    ("I-q", "I-a"): [("q", 0, 0), ("a", 1, 1)],
}


def _expand(tag):
    return tag.replace("-q", "-question").replace("-a", "-answer")


def test_decode_hand_enumerated_pairs():
    for (t1, t2), expected in HAND_TABLE_LENGTH2.items():
        got = decode_bies([_expand(t1), _expand(t2)])
        want = [
            (c.replace("q", "question").replace("a", "answer"), s, e)
            for c, s, e in expected
        ]
        assert got == want, f"{t1},{t2}: got {got}, want {want}"


def test_decode_matches_reference_for_all_sequences_up_to_3():
    labels = ["O", "B-question", "I-question", "E-question", "S-question",
              "B-answer", "I-answer", "E-answer", "S-answer"]
    for n in (1, 2, 3):
        for tags in itertools.product(labels, repeat=n):
            got = sorted(decode_bies(list(tags)), key=lambda s: s[1])
            assert got == reference_decode(list(tags)), tags


def test_decode_total_nonoverlapping_in_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        tags = [TAG_LABELS[rng.integers(len(TAG_LABELS))] for _ in range(n)]
        spans = decode_bies(tags)
        covered = set()
        for cat, s, e in spans:
            assert 0 <= s <= e < n
            rng_set = set(range(s, e + 1))
            assert covered.isdisjoint(rng_set)
            covered |= rng_set


# -- word F1 -----------------------------------------------------------------------


def test_f1_perfect_match():
    gold = ["B-question", "E-question", "O", "S-answer"]
    assert word_f1(gold, gold) == (1.0, 1.0, 1.0)


def test_f1_all_o_predictions():
    gold = ["S-answer", "O", "S-header"]
    p, r, f1 = word_f1(["O", "O", "O"], gold)
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_f1_hand_counted_case():
    gold = ["B-question", "E-question", "O"]
    pred = ["B-question", "O", "O"]
    p, r, f1 = word_f1(pred, gold)
    assert p == 1.0
    assert r == 0.5
    assert f1 == pytest.approx(2 / 3)


def test_f1_length_mismatch():
    with pytest.raises(ValueError):
        word_f1(["O"], ["O", "O"])


def test_f1_permutation_invariant_and_one_iff_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        gold = [TAG_LABELS[rng.integers(len(TAG_LABELS))] for _ in range(n)]
        pred = [TAG_LABELS[rng.integers(len(TAG_LABELS))] for _ in range(n)]
        perm = rng.permutation(n)
        direct = word_f1(pred, gold)
        shuffled = word_f1([pred[i] for i in perm], [gold[i] for i in perm])
        assert direct == shuffled
        non_o_match = all(
            p == g for p, g in zip(pred, gold) if p != "O" or g != "O"
        ) and any(g != "O" for g in gold)
        assert (direct[2] == 1.0) == non_o_match


# -- span extraction -----------------------------------------------------------------


def test_extract_span_one_hot():
    s = np.full(8, -5.0)
    e = np.full(8, -5.0)
    s[3] = 5.0
    e[5] = 5.0
    assert extract_span(s, e, max_answer_len=8) == (3, 5)


def test_extract_span_skips_inverted_best_pair():
    s = np.array([0.0, 0.0, 10.0])
    e = np.array([0.0, 10.0, 0.0])  # raw best is (2, 1): end < start, invalid
    # next-best valid score is 10, tie broken toward the smallest start
    assert extract_span(s, e, max_answer_len=4) == (0, 1)


def test_extract_span_ties_break_smallest_start_then_end():
    rng = np.random.default_rng(2)
    for trial in range(100):
        s = rng.integers(0, 3, size=10).astype(float)  # many exact ties
        e = rng.integers(0, 3, size=10).astype(float)
        valid = rng.random(10) > 0.2
        if not valid.any():
            valid[0] = True
        got = extract_span(s, e, max_answer_len=4, valid=valid)
        assert got == exhaustive_best_span(s, e, 4, valid)


def test_extract_span_matches_the_pairwise_scan_on_random_windows():
    rng = np.random.default_rng(4)
    specials = np.array([np.nan, np.inf, -np.inf, 1e30, -1e30, 0.0, -0.0])
    for trial in range(2000):
        n = int(rng.integers(1, 14))
        kind = trial % 4
        if kind == 0:  # many exact ties
            s, e = (rng.integers(0, 3, size=n).astype(float) for _ in range(2))
        elif kind == 1:  # float32 logits, as the model gives them
            s, e = (rng.normal(size=n).astype(np.float32) for _ in range(2))
        else:  # NaN, infinities and huge values among normal logits
            s, e = rng.normal(size=n), rng.normal(size=n)
            for t in (s, e):
                hit = rng.random(n) < 0.3
                t[hit] = rng.choice(specials, size=int(hit.sum()))
        valid = rng.random(n) > 0.25
        max_len = int(rng.integers(0, 6))
        want = loop_best_span(s, e, max_len, valid)
        with np.errstate(invalid="ignore"):  # inf + -inf is a NaN score
            if want is None:
                with pytest.raises(ValueError):
                    extract_span(s, e, max_len, valid=valid)
            else:
                assert extract_span(s, e, max_len, valid=valid) == want, (s, e, valid)


def test_extract_span_no_valid_pair():
    with pytest.raises(ValueError):
        extract_span(np.zeros(3), np.zeros(3), 2, valid=np.zeros(3, dtype=bool))


# -- edit distance / anls --------------------------------------------------------------


def test_levenshtein_against_reference():
    rng = np.random.default_rng(3)
    alphabet = "abc"
    for _ in range(150):
        a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
        b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
        assert levenshtein(a, b) == reference_edit_distance(a, b)
        assert levenshtein(a, b) == levenshtein(b, a)


def test_anls_exact_match():
    assert anls(["Total Amount"], [["total amount"]]) == 1.0


def test_anls_abc_axc():
    score = anls_single("abc", ["axc"])
    nl = reference_edit_distance("abc", "axc") / 3
    assert score == pytest.approx(1 - nl)
    assert score == pytest.approx(0.6667, abs=1e-4)


def test_anls_disjoint_strings_zero():
    assert anls(["aaaa"], [["bbbb"]]) == 0.0


def test_anls_below_threshold_zero():
    # similarity 0.4 < tau 0.5
    assert anls_single("abcde", ["vwxge"]) == 0.0


def test_anls_best_gold_wins():
    assert anls(["12 mar 1995"], [["nope", "12 mar 1995"]]) == 1.0


def test_anls_empty_gold_set_rejected():
    with pytest.raises(ValueError):
        anls(["x"], [[]])


def test_anls_bounded_and_one_iff_equal():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = "".join(rng.choice(list("ab "), size=rng.integers(1, 8)))
        b = "".join(rng.choice(list("ab "), size=rng.integers(1, 8)))
        s = anls_single(a, [b], tau=0.0)
        assert 0.0 <= s <= 1.0
        normalized = (" ".join(a.lower().split()), " ".join(b.lower().split()))
        assert (s == 1.0) == (normalized[0] == normalized[1])

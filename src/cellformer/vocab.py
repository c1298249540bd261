"""Subword vocabulary: frequency-ranked whole words plus a character
fallback layer, tokenized by greedy longest-match-first.

Reserved ids are fixed: [PAD]=0, [UNK]=1, [CLS]=2, [SEP]=3, [MASK]=4.
Continuation pieces carry the ``##`` prefix. The fallback layer holds every
printable non-whitespace ASCII character both bare and as ``##c``, so any
ASCII word tokenizes without [UNK]; words with other characters map to
[UNK] wholesale.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
RESERVED = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)

_FALLBACK_CHARS = [chr(c) for c in range(0x21, 0x7F)]


class Vocab:
    """Dense token<->id map with the reserved prefix always present."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:5]) != RESERVED:
            raise ValueError("vocabulary must start with the reserved tokens")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id(self, token: str) -> int:
        return self.token_to_id[token]

    def token(self, idx: int) -> str:
        return self.id_to_token[idx]

    def to_lines(self) -> str:
        return "\n".join(self.id_to_token) + "\n"

    @classmethod
    def from_lines(cls, text: str) -> "Vocab":
        return cls([line for line in text.split("\n") if line != ""])


def build_vocab(words: Iterable[str], max_size: int) -> Vocab:
    """Deterministic vocabulary over a word stream.

    Order: reserved tokens, then whole words by descending frequency (ties
    broken lexicographically), then the character fallback layer. `max_size`
    must leave room for the reserved tokens, the full fallback layer, and at
    least one word.
    """
    fallback_budget = 2 * len(_FALLBACK_CHARS)
    word_quota = max_size - len(RESERVED) - fallback_budget
    if word_quota < 1:
        raise ValueError(
            f"max_size={max_size} cannot hold reserved + fallback pieces + a word; "
            f"need at least {len(RESERVED) + fallback_budget + 1}"
        )

    counts: Counter[str] = Counter()
    for w in words:
        w = w.lower()
        if w:
            counts[w] += 1
    if not counts:
        raise ValueError("empty corpus: no words to build a vocabulary from")

    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = list(RESERVED)
    tokens.extend(w for w, _ in ranked[:word_quota])
    present = set(tokens)
    for ch in _FALLBACK_CHARS:
        if ch not in present:
            tokens.append(ch)
            present.add(ch)
        cont = "##" + ch
        if cont not in present:
            tokens.append(cont)
            present.add(cont)
    return Vocab(tokens)


def tokenize(word: str, vocab: Vocab) -> list[str]:
    """Greedy longest-match-first WordPiece segmentation of one word.

    Falls back to a single [UNK] when no complete segmentation exists.
    """
    if not word:
        raise ValueError("cannot tokenize an empty word")
    pieces: list[str] = []
    start, n = 0, len(word)
    while start < n:
        end = n
        match = None
        while end > start:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab:
                match = sub
                break
            end -= 1
        if match is None:
            return [UNK]
        pieces.append(match)
        start = end
    return pieces


def tokenize_to_ids(word: str, vocab: Vocab) -> list[int]:
    return [vocab.id(p) for p in tokenize(word, vocab)]


def tokenize_words(words: Iterable[str], vocab: Vocab) -> tuple[list[int], list[int]]:
    """Token ids of `words` in order, and the number of pieces of each
    word. A whole word in the vocabulary is its own piece, which is the
    first probe of `tokenize`; only other words go through its loop."""
    ids: list[int] = []
    pieces: list[int] = []
    for word in words:
        i = vocab.token_to_id.get(word)
        word_ids = tokenize_to_ids(word, vocab) if i is None else [i]
        ids += word_ids
        pieces.append(len(word_ids))
    return ids, pieces


def detokenize(tokens: Iterable[str]) -> str:
    """Join subword pieces back into whitespace-separated words."""
    words: list[str] = []
    for t in tokens:
        if t.startswith("##") and words:
            words[-1] += t[2:]
        else:
            words.append(t)
    return " ".join(words)

"""Shared fixtures."""

import numpy as np
import pytest

from cellformer import autograd as ag
from cellformer import model as M
from cellformer.autograd import Tensor
from cellformer.documents import RawCell, RawDocument, normalize_document, serialize_cells
from cellformer.vocab import build_vocab, tokenize_to_ids


@pytest.fixture
def weighted_sum():
    """`reduce(t, w)`: the scalar sum of `t * w` for a constant array or a
    tensor `w` of the same shape, as one test-local op, to turn an op's
    output into the scalar loss a gradient test differentiates."""

    def reduce(t, w):
        w = w if isinstance(w, Tensor) else Tensor(np.asarray(w))
        return Tensor._result(np.sum(t.data * w.data), (t, w),
                              lambda g: (g * w.data, g * t.data))

    return reduce


@pytest.fixture
def graph_free_vs_graph(monkeypatch):
    """Runs a forward-only call as shipped, then again with `detached` a
    no-op so that the same forward builds the autograd graph, and checks
    that the two agree bit for bit: the call's results and the hidden
    states of every encoder call. Returns the graph-free result."""

    def check(call):
        runs = []
        real_encode = M.encode
        for keep_graph in (False, True):
            hidden = []

            def encode(*args, **kwargs):
                h = real_encode(*args, **kwargs)
                hidden.append(h)
                return h

            with monkeypatch.context() as m:
                m.setattr(M, "encode", encode)
                if keep_graph:
                    m.setattr(ag, "detached", lambda params: params)
                result = call()
            assert hidden, "the call ran no encoder forward"
            assert all(h.requires_grad == keep_graph for h in hidden)
            runs.append((result, [h.data for h in hidden]))
        (free, free_hidden), (graph, graph_hidden) = runs
        assert free == graph
        assert len(free_hidden) == len(graph_hidden)
        for a, b in zip(free_hidden, graph_hidden):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        return free

    return check


@pytest.fixture(scope="session")
def edge_vocab():
    return build_vocab(["alpha", "beta", "gamma", "total", "alpha"], max_size=400)


@pytest.fixture(scope="session")
def edge_docs():
    """Documents at the edges of ingest: words out of the vocabulary (split
    into `##` pieces) and a non-ASCII one ([UNK]); cells whose pixel
    origins differ but meet on the grid, so reading order falls back to
    source order; long words that a short window cuts in the middle; and
    cells with and without word boxes, for word layout."""
    return [
        RawDocument("oov", 1000, 1000, [
            RawCell("alphas zebra", (10, 50, 300, 70)),
            RawCell("Café total", (10, 10, 300, 30)),
            RawCell("beta", (400, 10, 500, 30), [(400, 10, 500, 30)]),
        ]),
        RawDocument("ties", 1000, 1000, [
            RawCell("gamma beta", (10.9, 20.2, 200, 40),
                    [(10.9, 20.2, 100, 40), (110, 20.2, 200, 40)]),
            RawCell("alpha", (10.2, 20.9, 90, 40)),
            RawCell("total zebra", (0, 45, 300, 60)),
            RawCell("beta quux", (10.5, 20.5, 300, 60)),
            RawCell("gamma", (5, 20, 9, 40)),
        ]),
        RawDocument("cut", 612.5, 791.3, [
            RawCell("beta quizzical alpha", (0, 0, 400, 20)),
            RawCell("alpha gamma", (0, 30, 200, 50), [(0, 30, 90, 50), (100, 30, 200, 50)]),
        ]),
    ]


@pytest.fixture(scope="session")
def reference_tokens():
    """`tokens(doc, vocab, mode)`: the document's cells in reading order and
    its token stream, built the plain way from `normalize_document`,
    `serialize_cells` and `tokenize_to_ids`, one word at a time: per token
    (id, cell index, word index, box), the box being its cell's in cell
    layout and its word's in word layout."""

    def tokens(doc, vocab, mode):
        cells = serialize_cells(normalize_document(doc))
        rows, w = [], 0
        for ci, cell in enumerate(cells):
            for word, word_box in zip(cell.words, cell.word_boxes):
                box = cell.box if mode == "cell" else word_box
                rows.extend((t, ci, w, box) for t in tokenize_to_ids(word, vocab))
                w += 1
        return cells, rows

    return tokens

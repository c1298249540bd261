"""Shared fixtures."""

import numpy as np
import pytest

from cellformer import autograd as ag
from cellformer import model as M
from cellformer.autograd import Tensor


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

"""Self-time arithmetic and patching of the benchmark's tracer.

    python3 -m pytest perfbench/test_spans.py
"""

import types

import pytest

from spans import Span, Tracer, self_time_by_op, self_times


def tree():
    # root [0, 10]
    #   a [1, 4]      with grandchild g [2, 3]
    #   b [5, 8]
    #   c [7, 12]     overlaps b and runs past the root's end
    return [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "g", 2.0, 3.0, 1, 1),
        Span(3, "b", 5.0, 8.0, 0, 1),
        Span(4, "c", 7.0, 12.0, 0, 1),
    ]


def test_self_time_subtracts_union_of_children():
    own = self_times(tree())
    assert own[0] == pytest.approx(10 - (3 + 5))  # [1,4] and [5,10] covered
    assert own[1] == pytest.approx(3 - 1)
    assert own[2] == pytest.approx(1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(5)


def test_self_times_of_a_nested_tree_sum_to_the_root():
    spans = [
        Span(0, "step", 0.0, 20.0, None, 7),
        Span(1, "encode", 2.0, 9.0, 0, 7),
        Span(2, "heads", 9.0, 10.5, 0, 7),
        Span(3, "backward", 11.0, 18.0, 0, 7),
        Span(4, "inner", 12.0, 13.0, 3, 7),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(20.0)
    by_op = self_time_by_op(spans)
    assert by_op[7] == pytest.approx(
        {"step": 4.5, "encode": 7.0, "heads": 1.5, "backward": 6.0, "inner": 1.0})


def test_patch_records_nested_spans_and_counts_then_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2
    original_leaf = mod.leaf
    tracer.patch(mod, "leaf", "layer.leaf", count=lambda a, k, r: {"calls": 1})
    tracer.patch(mod, "outer", "layer.outer")

    tracer.op = 3
    with tracer.span("root"):
        assert mod.outer(1) == 4
    tracer.unpatch()

    assert mod.leaf is original_leaf
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("root", None, 3), ("layer.outer", 0, 3), ("layer.leaf", 1, 3)]
    assert tracer.counts == {(3, "calls"): 1}
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start)


def test_discard_drops_only_the_latest_open_span():
    tracer = Tracer()
    first = tracer.open("op")
    tracer.close(first)
    second = tracer.open("op")
    tracer.discard(second)
    assert tracer.spans == [first]
    with pytest.raises(RuntimeError):
        tracer.discard(first)

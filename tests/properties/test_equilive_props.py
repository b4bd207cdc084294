"""Property tests: equilive blocks vs a naive set-partition model."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equilive import EquiliveManager
from repro.jvm.frames import FrameIdSource, StaticFrame
from repro.jvm.heap import Heap
from repro.jvm.model import Program
from repro.jvm.threads import JThread


@st.composite
def union_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=80,
        )
    )
    return n, ops


class NaivePartition:
    """Reference model: explicit sets."""

    def __init__(self, n):
        self.sets = [{i} for i in range(n)]

    def union(self, a, b):
        sa = next(s for s in self.sets if a in s)
        sb = next(s for s in self.sets if b in s)
        if sa is not sb:
            self.sets.remove(sb)
            sa |= sb

    def same(self, a, b):
        return any(a in s and b in s for s in self.sets)


class Blocks:
    """``n`` handles in singleton blocks, merged the way the collector does:
    look both blocks up, and merge only when they differ."""

    def __init__(self, n):
        thread = JThread(0, "t", FrameIdSource())
        self.frame = thread.stack.push(None)
        self.static_frame = StaticFrame()
        heap = Heap(1 << 16)
        cls = Program().define_class("N", fields=["x"])
        self.manager = EquiliveManager(self.static_frame)
        self.handles = [heap.allocate(cls, 0, 1, 0) for _ in range(n)]
        for h in self.handles:
            self.manager.create(h, self.frame)
        self.merges = 0

    def union(self, a, b):
        manager = self.manager
        ba = manager.block_of(self.handles[a])
        bb = manager.block_of(self.handles[b])
        if ba is not bb:
            manager.merge(ba, bb, self.frame)
            self.merges += 1

    def same(self, a, b):
        return self.handles[a].block is self.handles[b].block

    def partition(self):
        return sorted(
            sorted(h.id for h in block.members)
            for block in self.manager.blocks()
        )


def build(seq, swap=False):
    n, ops = seq
    blocks = Blocks(n)
    for a, b in ops:
        if swap:
            a, b = b, a
        blocks.union(a, b)
    return blocks


@given(union_sequences())
@settings(max_examples=200)
def test_matches_naive_model(seq):
    n, ops = seq
    blocks = build(seq)
    model = NaivePartition(n)
    for a, b in ops:
        model.union(a, b)
    for a in range(n):
        for b in range(a, n):
            assert blocks.same(a, b) == model.same(a, b)


@given(union_sequences())
@settings(max_examples=100)
def test_every_element_in_exactly_one_set(seq):
    blocks = build(seq)
    listed = {}
    for block in blocks.manager.blocks():
        for handle in block.members:
            assert handle.id not in listed
            listed[handle.id] = block
    assert sorted(listed) == [h.id for h in blocks.handles]
    for handle in blocks.handles:
        assert handle.block is listed[handle.id]
    blocks.manager.check_invariants([blocks.static_frame, blocks.frame])


@given(union_sequences())
@settings(max_examples=100)
def test_rank_bounded_by_log(seq):
    n, _ = seq
    blocks = build(seq)
    for block in blocks.manager.blocks():
        assert len(block.members) >= 2 ** block.rank
        assert block.rank <= math.log2(n)


@given(union_sequences())
@settings(max_examples=100)
def test_union_is_commutative_in_effect(seq):
    """DESIGN.md section 6, invariant 6: contaminate(x, y) and
    contaminate(y, x) leave the same partition."""
    forward = build(seq)
    swapped = build(seq, swap=True)
    assert forward.partition() == swapped.partition()


@given(union_sequences())
@settings(max_examples=100)
def test_finds_and_unions_totals(seq):
    _, ops = seq
    blocks = build(seq)
    manager = blocks.manager
    # Two lookups per union request, plus 4 finds and 1 union per merge.
    assert manager.unions == blocks.merges
    assert manager.finds == 2 * len(ops) + 4 * blocks.merges

"""The paper's union-find operations on equilive blocks (section 3.1.1).

Blocks are disjoint sets in linked-list form: a find is
:meth:`EquiliveManager.block_of` (a read of the handle's ``block``
pointer) and a union is :meth:`EquiliveManager.merge`, with union by rank
kept on :attr:`EquiliveBlock.rank`.
"""

import pytest

from repro.core.equilive import EquiliveManager
from repro.jvm.errors import IllegalStateError
from repro.jvm.frames import FrameIdSource, StaticFrame
from repro.jvm.heap import Heap
from repro.jvm.model import Program
from repro.jvm.threads import JThread


class Sets:
    """``n`` objects, each in a singleton block on one frame."""

    def __init__(self):
        thread = JThread(0, "t", FrameIdSource())
        self.frame = thread.stack.push(None)
        self.heap = Heap(1 << 16)
        self.cls = Program().define_class("N", fields=["x"])
        self.manager = EquiliveManager(StaticFrame())

    def make(self, n):
        handles = [self.heap.allocate(self.cls, 0, 1, 0) for _ in range(n)]
        for h in handles:
            self.manager.create(h, self.frame)
        return handles

    def union(self, x, y):
        """Merge the blocks of ``x`` and ``y`` (as the reset pass does)."""
        bx, by = self.manager.block_of(x), self.manager.block_of(y)
        if bx is by:
            return bx
        return self.manager.merge(bx, by, self.frame)

    def same_set(self, x, y):
        return self.manager.block_of(x) is self.manager.block_of(y)


@pytest.fixture
def ds():
    return Sets()


class TestMakeSet:
    def test_new_elements_are_their_own_roots(self, ds):
        xs = ds.make(5)
        for x in xs:
            assert ds.manager.block_of(x).members == [x]
            assert ds.manager.block_of(x).rank == 0

    def test_len_counts_elements(self, ds):
        assert ds.manager.block_count() == 0
        ds.make(2)
        assert ds.manager.block_count() == 2

    def test_contains(self, ds):
        (x,) = ds.make(1)
        untracked = ds.heap.allocate(ds.cls, 0, 1, 0)
        assert ds.manager.has_block(x)
        assert not ds.manager.has_block(untracked)


class TestUnionFind:
    def test_union_merges(self, ds):
        a, b = ds.make(2)
        merged = ds.union(a, b)
        assert merged in (ds.manager.block_of(a), ds.manager.block_of(b))
        assert ds.same_set(a, b)
        assert a.block is b.block is merged

    def test_union_returns_existing_root_when_already_merged(self, ds):
        a, b = ds.make(2)
        first = ds.union(a, b)
        assert ds.union(a, b) is first
        assert ds.manager.unions == 1  # second call was a no-op
        with pytest.raises(IllegalStateError):
            ds.manager.merge(first, first, ds.frame)

    def test_transitivity(self, ds):
        xs = ds.make(10)
        for a, b in zip(xs, xs[1:]):
            ds.union(a, b)
        assert all(ds.same_set(xs[0], x) for x in xs)

    def test_disjoint_sets_stay_disjoint(self, ds):
        xs = ds.make(6)
        ds.union(xs[0], xs[1])
        ds.union(xs[2], xs[3])
        assert not ds.same_set(xs[0], xs[2])
        assert not ds.same_set(xs[1], xs[4])

    def test_union_by_rank_bounds_rank_logarithmically(self, ds):
        xs = ds.make(256)
        # Balanced pairwise merging maximises rank growth.
        layer = xs
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                ds.union(layer[i], layer[i + 1])
                nxt.append(layer[i])
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        block = ds.manager.block_of(xs[0])
        assert block.rank == 8  # log2(256): every union was a tie
        assert len(block.members) == 256


class TestCounters:
    def test_find_and_union_counters(self, ds):
        a, b = ds.make(2)
        ba, bb = a.block, b.block
        before = ds.manager.finds
        ds.manager.merge(ba, bb, ds.frame)
        assert ds.manager.unions == 1
        # A find on each side plus the union's own two.
        assert ds.manager.finds == before + 4

    def test_same_set_counts_finds(self, ds):
        a, b = ds.make(2)
        before = ds.manager.finds
        ds.same_set(a, b)
        assert ds.manager.finds == before + 2

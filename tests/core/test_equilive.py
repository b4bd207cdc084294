"""Unit tests for equilive blocks and the frame block lists."""

import pytest

from repro.core.equilive import EquiliveManager
from repro.jvm.errors import IllegalStateError
from repro.jvm.frames import FrameIdSource, StaticFrame
from repro.jvm.heap import Heap
from repro.jvm.model import Program
from repro.jvm.threads import JThread


class Fixture:
    """A static frame, one thread with a few frames, and a heap."""

    def __init__(self, depth=3):
        self.static_frame = StaticFrame()
        self.ids = FrameIdSource()
        self.thread = JThread(0, "t", self.ids)
        self.frames = [self.thread.stack.push(None) for _ in range(depth)]
        self.heap = Heap(1 << 16)
        self.program = Program()
        self.cls = self.program.define_class("N", fields=["x"])
        self.manager = EquiliveManager(self.static_frame)

    def new_handle(self):
        return self.heap.allocate(self.cls, 0, 1, 0)

    def all_frames(self):
        return [self.static_frame] + self.frames


@pytest.fixture
def fx():
    return Fixture()


class TestCreateAndLookup:
    def test_create_singleton(self, fx):
        h = fx.new_handle()
        block = fx.manager.create(h, fx.frames[0])
        assert block.members == [h]
        assert block.frame is fx.frames[0]
        assert not block.is_static
        assert not block.ever_unioned
        assert block in fx.frames[0].cg_blocks

    def test_block_of_finds_block(self, fx):
        h = fx.new_handle()
        block = fx.manager.create(h, fx.frames[0])
        assert fx.manager.block_of(h) is block

    def test_block_of_untracked_raises(self, fx):
        h = fx.new_handle()
        with pytest.raises(IllegalStateError):
            fx.manager.block_of(h)

    def test_has_block(self, fx):
        h = fx.new_handle()
        assert not fx.manager.has_block(h)
        fx.manager.create(h, fx.frames[0])
        assert fx.manager.has_block(h)

    def test_block_count(self, fx):
        for _ in range(3):
            fx.manager.create(fx.new_handle(), fx.frames[0])
        assert fx.manager.block_count() == 3


class TestMerge:
    def test_merge_combines_members(self, fx):
        a, b = fx.new_handle(), fx.new_handle()
        ba = fx.manager.create(a, fx.frames[1])
        bb = fx.manager.create(b, fx.frames[2])
        merged = fx.manager.merge(ba, bb, fx.frames[1])
        assert set(merged.members) == {a, b}
        assert merged.ever_unioned
        assert fx.manager.block_of(a) is merged
        assert fx.manager.block_of(b) is merged

    def test_merge_moves_to_target_frame(self, fx):
        a, b = fx.new_handle(), fx.new_handle()
        ba = fx.manager.create(a, fx.frames[1])
        bb = fx.manager.create(b, fx.frames[2])
        merged = fx.manager.merge(ba, bb, fx.frames[1])
        assert merged.frame is fx.frames[1]
        assert merged in fx.frames[1].cg_blocks
        assert all(merged not in f.cg_blocks for f in fx.frames[2:])

    def test_merge_with_self_rejected(self, fx):
        a = fx.new_handle()
        ba = fx.manager.create(a, fx.frames[0])
        with pytest.raises(IllegalStateError):
            fx.manager.merge(ba, ba, fx.frames[0])

    def test_merge_keeps_registry_consistent(self, fx):
        handles = [fx.new_handle() for _ in range(6)]
        blocks = [fx.manager.create(h, fx.frames[0]) for h in handles]
        survivor = blocks[0]
        for other in blocks[1:]:
            survivor = fx.manager.merge(survivor, other, fx.frames[0])
        assert fx.manager.block_count() == 1
        fx.manager.check_invariants(fx.all_frames())

    def test_merge_keeps_longer_list_and_repoints_shorter(self, fx):
        m = fx.manager
        h = [fx.new_handle() for _ in range(5)]
        b = [m.create(x, fx.frames[0]) for x in h]
        pair = m.merge(b[0], b[1], fx.frames[0])
        triple = m.merge(m.merge(b[2], b[3], fx.frames[0]), b[4],
                         fx.frames[0])
        assert (pair.rank, triple.rank) == (1, 1)
        m.pin_static(pair, "putstatic")
        m.pin_static(triple, "shared")
        # Equal ranks: ``pair`` (the first argument) wins by rank, so the
        # rank grows and its static cause is kept, but ``triple`` owns the
        # longer list, so it survives and only the pair's handles move.
        merged = m.merge(pair, triple, fx.static_frame)
        assert merged is triple
        assert merged.rank == 2
        assert merged.static_cause == "putstatic"
        assert merged.members == [h[2], h[3], h[4], h[0], h[1]]
        assert all(x.block is merged for x in h)
        m.check_invariants(fx.all_frames())

    def test_merge_preserves_static_cause(self, fx):
        a, b = fx.new_handle(), fx.new_handle()
        ba = fx.manager.create(a, fx.frames[0])
        bb = fx.manager.create(b, fx.frames[1])
        fx.manager.pin_static(ba, "putstatic")
        merged = fx.manager.merge(ba, bb, fx.static_frame)
        assert merged.static_cause == "putstatic"


class TestMoveAndPin:
    def test_move_to_frame(self, fx):
        h = fx.new_handle()
        block = fx.manager.create(h, fx.frames[2])
        fx.manager.move_to_frame(block, fx.frames[0])
        assert block.frame is fx.frames[0]
        assert block in fx.frames[0].cg_blocks
        assert block not in fx.frames[2].cg_blocks

    def test_move_to_same_frame_is_noop(self, fx):
        h = fx.new_handle()
        block = fx.manager.create(h, fx.frames[0])
        fx.manager.move_to_frame(block, fx.frames[0])
        assert block in fx.frames[0].cg_blocks

    def test_pin_static(self, fx):
        h = fx.new_handle()
        block = fx.manager.create(h, fx.frames[1])
        fx.manager.pin_static(block, "shared")
        assert block.is_static
        assert block.static_cause == "shared"
        assert block.frame is fx.static_frame
        assert block in fx.static_frame.cg_blocks

    def test_pin_does_not_overwrite_cause(self, fx):
        h = fx.new_handle()
        block = fx.manager.create(h, fx.frames[1])
        fx.manager.pin_static(block, "putstatic")
        fx.manager.pin_static(block, "shared")
        assert block.static_cause == "putstatic"


class TestDetachAndDismantle:
    def test_detach_removes_block(self, fx):
        h = fx.new_handle()
        block = fx.manager.create(h, fx.frames[0])
        fx.manager.detach(block)
        assert fx.manager.block_count() == 0
        assert block not in fx.frames[0].cg_blocks

    def test_forget_members_resets_union_find(self, fx):
        a, b = fx.new_handle(), fx.new_handle()
        ba = fx.manager.create(a, fx.frames[0])
        bb = fx.manager.create(b, fx.frames[0])
        merged = fx.manager.merge(ba, bb, fx.frames[0])
        fx.manager.detach(merged)
        fx.manager.forget_members(merged)
        assert a.block is None and b.block is None
        with pytest.raises(IllegalStateError):
            fx.manager.block_of(a)
        # Fresh singletons can now be created for both.
        na = fx.manager.create(a, fx.frames[1])
        nb = fx.manager.create(b, fx.frames[2])
        assert na is not nb
        assert fx.manager.block_of(a) is na
        assert fx.manager.block_of(b) is nb

    def test_dismantle_all(self, fx):
        handles = [fx.new_handle() for _ in range(4)]
        for i, h in enumerate(handles):
            fx.manager.create(h, fx.frames[i % 3])
        dismantled = fx.manager.dismantle_all()
        assert len(dismantled) == 4
        assert fx.manager.block_count() == 0
        assert all(not f.cg_blocks for f in fx.all_frames())
        assert all(h.block is None for h in handles)


class TestLiveMembers:
    def test_lazy_deletion_of_freed_members(self, fx):
        a, b = fx.new_handle(), fx.new_handle()
        ba = fx.manager.create(a, fx.frames[0])
        bb = fx.manager.create(b, fx.frames[0])
        merged = fx.manager.merge(ba, bb, fx.frames[0])
        fx.heap.free(a, "test")
        assert list(merged.live_members()) == [b]
        assert merged.live_size() == 1

    def test_invariant_checker_catches_stale_frame_pointer(self, fx):
        h = fx.new_handle()
        block = fx.manager.create(h, fx.frames[0])
        block.frame = fx.frames[1]  # corrupt deliberately
        with pytest.raises(IllegalStateError):
            fx.manager.check_invariants(fx.all_frames())

    def test_invariant_checker_catches_stale_handle_pointer(self, fx):
        a, b = fx.new_handle(), fx.new_handle()
        fx.manager.create(a, fx.frames[0])
        other = fx.manager.create(b, fx.frames[0])
        a.block = other  # corrupt deliberately
        with pytest.raises(IllegalStateError, match="another block"):
            fx.manager.check_invariants(fx.all_frames())

    def test_invariant_checker_catches_rank_above_log_size(self, fx):
        block = fx.manager.create(fx.new_handle(), fx.frames[0])
        block.rank = 1  # a singleton cannot have rank 1
        with pytest.raises(IllegalStateError, match="rank"):
            fx.manager.check_invariants(fx.all_frames())

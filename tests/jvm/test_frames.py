"""Unit tests for frames and call stacks.

Frame age (older = shallower, frame 0 oldest, undefined across threads)
is tested where the collector uses it, in
``tests/core/test_collector_events.py`` (``TestStore``, ``TestPutstatic``,
``TestAreturn``).
"""

import pytest

from repro.jvm.errors import IllegalStateError
from repro.jvm.frames import CallStack, Frame, FrameIdSource, StaticFrame
from repro.jvm.heap import Heap
from repro.jvm.model import Program


def make_stack(thread_id=0):
    return CallStack(thread_id, FrameIdSource())


class TestCallStack:
    def test_push_assigns_increasing_depths(self):
        stack = make_stack()
        f0 = stack.push(None)
        f1 = stack.push(None)
        f2 = stack.push(None)
        assert [f.depth for f in (f0, f1, f2)] == [0, 1, 2]
        assert stack.depth == 3

    def test_frame_ids_globally_unique(self):
        ids = FrameIdSource()
        s1 = CallStack(0, ids)
        s2 = CallStack(1, ids)
        a = s1.push(None)
        b = s2.push(None)
        c = s1.push(None)
        assert len({a.frame_id, b.frame_id, c.frame_id}) == 3
        assert a.frame_id >= 1  # id 0 reserved for the static frame

    def test_pop_lifo(self):
        stack = make_stack()
        f0 = stack.push(None)
        f1 = stack.push(None)
        assert stack.pop() is f1
        assert f1.popped
        assert stack.current is f0

    def test_pop_empty_raises(self):
        stack = make_stack()
        with pytest.raises(IllegalStateError):
            stack.pop()

    def test_current_on_empty_raises(self):
        stack = make_stack()
        with pytest.raises(IllegalStateError):
            _ = stack.current


class TestFrameRoots:
    def test_root_references_collects_handles_only(self):
        heap = Heap(1024)
        program = Program()
        cls = program.define_class("N", fields=["x"])
        h1 = heap.allocate(cls, 0, 1, 0)
        h2 = heap.allocate(cls, 0, 1, 0)
        frame = Frame(1, 0, 0, None, nlocals=3)
        frame.locals[0] = h1
        frame.locals[1] = 42
        frame.stack.append(h2)
        frame.stack.append("str")
        assert frame.root_references() == [h1, h2]

    def test_set_local_extends(self):
        frame = Frame(1, 0, 0, None, nlocals=1)
        frame.set_local(4, "v")
        assert len(frame.locals) == 5
        assert frame.locals[4] == "v"

    def test_add_root_returns_index(self):
        frame = Frame(1, 0, 0, None, nlocals=2)
        idx = frame.add_root("h")
        assert idx == 2
        assert frame.locals[2] == "h"


class TestStaticFrame:
    def test_properties(self):
        static = StaticFrame()
        assert static.is_static_frame
        assert static.frame_id == 0
        assert static.depth == -1

    def test_real_frames_are_not_static(self):
        stack = make_stack()
        assert not stack.push(None).is_static_frame

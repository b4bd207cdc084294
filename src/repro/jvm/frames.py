"""Stack frames and per-thread call stacks.

The CG collector ties every equilive block to a *dependent frame* (thesis
chapter 2).  Frames therefore carry:

* a globally unique ``frame_id`` (the thesis gives each frame "a unique ID
  number", section 3.1.2) used for statistics such as age-at-death;
* their ``depth`` within their thread's stack, which defines the *older than*
  order — within one thread, a lower depth pops later;
* ``cg_blocks``, the frame's list of dependent equilive blocks, maintained by
  the collector and drained in O(blocks) when the frame pops.

The synthetic **frame 0** of the paper (static variables, interned strings,
native escapees, thread-shared objects) is represented by a dedicated
:class:`StaticFrame` singleton per runtime, older than every real frame.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from .errors import IllegalStateError
from .heap import Handle
from .model import JMethod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.equilive import EquiliveBlock


class Frame:
    """One method activation: locals, operand stack, and CG block list."""

    __slots__ = (
        "frame_id",
        "depth",
        "thread_id",
        "method",
        "locals",
        "stack",
        "pc",
        "cg_blocks",
        "popped",
    )

    def __init__(
        self,
        frame_id: int,
        depth: int,
        thread_id: int,
        method: Optional[JMethod],
        nlocals: int = 0,
    ) -> None:
        self.frame_id = frame_id
        self.depth = depth
        self.thread_id = thread_id
        self.method = method
        self.locals: List[object] = [None] * nlocals
        self.stack: List[object] = []
        self.pc = 0
        # Dict used as an insertion-ordered set of EquiliveBlock; the
        # collector inserts/removes blocks as dependence changes.
        self.cg_blocks: Dict["EquiliveBlock", None] = {}
        self.popped = False

    @property
    def is_static_frame(self) -> bool:
        return self.depth < 0

    def root_references(self) -> List[Handle]:
        """Live references held by this frame (locals + operand stack)."""
        refs = [v for v in self.locals if isinstance(v, Handle)]
        refs.extend(v for v in self.stack if isinstance(v, Handle))
        return refs

    def set_local(self, index: int, value: object) -> None:
        if index >= len(self.locals):
            self.locals.extend([None] * (index + 1 - len(self.locals)))
        self.locals[index] = value

    def add_root(self, value: Handle) -> int:
        """Append ``value`` as a new local slot; returns its index.

        Direct-drive mutators use this to make their Python-held references
        visible to the tracing collector's root scan.
        """
        self.locals.append(value)
        return len(self.locals) - 1

    def __repr__(self) -> str:
        name = self.method.qualified_name if self.method else "<synthetic>"
        return f"<Frame #{self.frame_id} d{self.depth} t{self.thread_id} {name}>"


class StaticFrame(Frame):
    """The paper's frame 0: never pops, older than everything."""

    def __init__(self) -> None:
        super().__init__(frame_id=0, depth=-1, thread_id=-1, method=None)

    def __repr__(self) -> str:
        return "<StaticFrame>"


class CallStack:
    """A thread's stack of frames, with global frame-id assignment."""

    def __init__(self, thread_id: int, id_source: "FrameIdSource") -> None:
        self.thread_id = thread_id
        self.frames: List[Frame] = []
        self._ids = id_source

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def current(self) -> Frame:
        if not self.frames:
            raise IllegalStateError("no active frame on this thread")
        return self.frames[-1]

    def push(self, method: Optional[JMethod], nlocals: int = 0) -> Frame:
        frame = Frame(
            self._ids.next_id(), len(self.frames), self.thread_id, method, nlocals
        )
        self.frames.append(frame)
        return frame

    def pop(self) -> Frame:
        if not self.frames:
            raise IllegalStateError("pop from empty call stack")
        frame = self.frames.pop()
        frame.popped = True
        return frame

    def __iter__(self):
        return iter(self.frames)


class FrameIdSource:
    """Monotonic frame-id allocator shared by all threads of a runtime.

    Id 0 is reserved for the static frame, so real frames start at 1.
    """

    def __init__(self) -> None:
        self._next = 1

    def next_id(self) -> int:
        value = self._next
        self._next += 1
        return value

    @property
    def issued(self) -> int:
        return self._next - 1

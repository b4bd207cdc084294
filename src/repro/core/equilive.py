"""Equilive blocks: the partition of heap objects CG maintains.

An *equilive block* is one class of the equilive equivalence relation
(thesis section 2.2): a set of objects treated as having the same lifetime,
dependent on a single stack frame.  Blocks live on their dependent frame's
``cg_blocks`` list (section 3.1.2) and are merged when objects contaminate
each other.

Representation: the linked-list form of disjoint sets (CLRS section 21.2).
Each :class:`EquiliveBlock` owns an explicit ``members`` list and every
member's :attr:`Handle.block <repro.jvm.heap.Handle.block>` points back at
it, so a find is one attribute read.  A merge copies the shorter member
list onto the longer one (``list.extend``) and re-points only the copied
handles: an object is copied only when its list at least doubles, so the
cost is O(log n) amortised per member.  Union by rank is kept as
:attr:`EquiliveBlock.rank` (section 3.5's bound), and the paper's
operations are still counted: :attr:`EquiliveManager.finds` and
:attr:`EquiliveManager.unions`.

``members`` uses lazy deletion — an object reclaimed out of band (by the
tracing collector) just stays in the list with its ``freed`` flag set and
is skipped when the block is collected — so nothing is ever removed from
the middle of a list.  The block registry and a frame's ``cg_blocks`` are
dicts used as insertion-ordered sets.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..jvm.errors import IllegalStateError
from ..jvm.frames import Frame, StaticFrame
from ..jvm.heap import Handle


class EquiliveBlock:
    """One equilive set: members, dependent frame, and pin bookkeeping."""

    __slots__ = ("members", "frame", "static_cause", "ever_unioned", "rank")

    def __init__(self, handle: Handle, frame: Frame) -> None:
        self.members: List[Handle] = [handle]
        self.frame = frame
        #: None while collectible; otherwise the cause that pinned it static.
        self.static_cause: Optional[str] = None
        self.ever_unioned = False
        #: Union-by-rank rank; ``len(members) >= 2 ** rank`` always holds.
        self.rank = 0

    @property
    def is_static(self) -> bool:
        return self.static_cause is not None

    def live_members(self) -> Iterator[Handle]:
        for handle in self.members:
            if not handle.freed:
                yield handle

    def live_size(self) -> int:
        return sum(1 for _ in self.live_members())

    def __repr__(self) -> str:
        where = self.static_cause or f"frame#{self.frame.frame_id}"
        return f"<EquiliveBlock n={len(self.members)} on {where}>"


class EquiliveManager:
    """Blocks, their members' back-pointers, and the frame lists.

    This layer is policy-free: it knows how to create, look up, merge, move,
    and dismantle blocks, and it maintains the invariant that every block is
    on exactly one frame list (the static frame's list for pinned blocks).
    The :class:`~repro.core.collector.ContaminatedCollector` applies the
    paper's rules on top.

    Attributes:
        finds: union-find finds charged (one per block lookup; a merge
            charges 4, as a find on each side plus a union's own two).
        unions: merges performed.
    """

    def __init__(self, static_frame: StaticFrame) -> None:
        self.static_frame = static_frame
        self.finds = 0
        self.unions = 0
        #: Every live block, as an insertion-ordered set.
        self._blocks: Dict[EquiliveBlock, None] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------

    def create(self, handle: Handle, frame: Frame) -> EquiliveBlock:
        """Make a fresh singleton block for a newly allocated object.

        The only place a handle gets its block (allocation and the section
        3.6 reset pass both come through here).
        """
        block = EquiliveBlock(handle, frame)
        handle.block = block
        self._blocks[block] = None
        frame.cg_blocks[block] = None
        return block

    def block_of(self, handle: Handle) -> EquiliveBlock:
        self.finds += 1
        block = handle.block
        if block is None:
            raise IllegalStateError(
                f"object #{handle.id} has no equilive block (freed or untracked)"
            )
        return block

    def has_block(self, handle: Handle) -> bool:
        self.finds += 1
        return handle.block is not None

    def blocks(self) -> Iterator[EquiliveBlock]:
        return iter(self._blocks)

    def block_count(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def merge(self, a: EquiliveBlock, b: EquiliveBlock,
              target_frame: Frame) -> EquiliveBlock:
        """Union two distinct blocks; the result depends on ``target_frame``.

        The caller computes ``target_frame`` per the paper's rules (older of
        the two dependent frames, or the static frame).  Union by rank sets
        the merged rank, and the rank winner's static cause wins when both
        sides have one.  The block with the longer member list survives (the
        rank winner on a tie) and keeps its members first, so only the
        shorter list's handles are re-pointed.
        """
        if a is b:
            raise IllegalStateError("merge of a block with itself")
        self.finds += 4
        self.unions += 1
        winner, loser = (a, b) if a.rank >= b.rank else (b, a)
        rank = winner.rank + 1 if winner.rank == loser.rank else winner.rank
        cause = winner.static_cause
        if cause is None:
            cause = loser.static_cause
        if len(loser.members) > len(winner.members):
            survivor, absorbed = loser, winner
        else:
            survivor, absorbed = winner, loser
        moved = absorbed.members
        for handle in moved:
            handle.block = survivor
        survivor.members.extend(moved)
        del survivor.frame.cg_blocks[survivor]
        del absorbed.frame.cg_blocks[absorbed]
        del self._blocks[absorbed]
        survivor.rank = rank
        survivor.static_cause = cause
        survivor.ever_unioned = True
        survivor.frame = target_frame
        target_frame.cg_blocks[survivor] = None
        return survivor

    def move_to_frame(self, block: EquiliveBlock, frame: Frame) -> None:
        """Re-hang ``block`` on a different frame's list (areturn, pinning)."""
        if block.frame is frame:
            return
        del block.frame.cg_blocks[block]
        block.frame = frame
        frame.cg_blocks[block] = None

    def pin_static(self, block: EquiliveBlock, cause: str) -> None:
        if block.static_cause is None:
            block.static_cause = cause
        self.move_to_frame(block, self.static_frame)

    def detach(self, block: EquiliveBlock) -> None:
        """Remove a block entirely (its objects are being collected)."""
        self.finds += 1
        del block.frame.cg_blocks[block]
        del self._blocks[block]

    def forget_members(self, block: EquiliveBlock) -> None:
        """Clear the back-pointers of a detached block's members."""
        for handle in block.members:
            handle.block = None

    def dismantle_all(self) -> List[EquiliveBlock]:
        """Tear down every block (start of a section 3.6 reset pass)."""
        blocks = list(self._blocks)
        for block in blocks:
            del block.frame.cg_blocks[block]
            self.forget_members(block)
        self._blocks.clear()
        return blocks

    # ------------------------------------------------------------------
    # Validation (tests, and the end of every measured run; invariants 3
    # and 4 of DESIGN.md)
    # ------------------------------------------------------------------

    def check_invariants(self, frames: List[Frame]) -> None:
        seen: Dict[EquiliveBlock, Frame] = {}
        for frame in frames:
            for block in frame.cg_blocks:
                if block in seen:
                    raise IllegalStateError(f"{block!r} on two frame lists")
                seen[block] = frame
                if block.frame is not frame:
                    raise IllegalStateError(f"{block!r} frame pointer stale")
        if self._blocks.keys() != seen.keys():
            raise IllegalStateError(
                "block registry and frame lists disagree: "
                f"{len(self._blocks)} registered vs {len(seen)} listed"
            )
        for block in self._blocks:
            if len(block.members) < 1 << block.rank:
                raise IllegalStateError(
                    f"{block!r} has rank {block.rank} but "
                    f"{len(block.members)} members"
                )
            for handle in block.live_members():
                # Each pointer check is a counted find, as every lookup is.
                self.finds += 1
                if handle.block is not block:
                    raise IllegalStateError(
                        f"member #{handle.id} points at another block"
                    )

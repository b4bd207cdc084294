"""Equilive blocks: the partition of heap objects CG maintains.

An *equilive block* is one class of the equilive equivalence relation
(thesis section 2.2): a set of objects treated as having the same lifetime,
dependent on a single stack frame.  Blocks live on their dependent frame's
``cg_blocks`` list (section 3.1.2) and are merged by union-find when objects
contaminate each other.

Representation: :class:`EquiliveBlock` is the payload hanging off a
union-find root.  ``members`` uses lazy deletion — an object reclaimed out of
band (by the tracing collector) just stays in the list with its ``freed``
flag set and is skipped when the block is collected — so nothing is ever
removed from the middle of a list.  Where the paper's implementation splices
linked lists in O(1), a merge here copies the smaller member list onto the
larger one (``list.extend``): an object is copied only when its list at
least doubles, so the cost is O(log n) amortised per member.  A frame's
``cg_blocks`` is a dict used as an insertion-ordered set.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..jvm.errors import IllegalStateError
from ..jvm.frames import Frame, StaticFrame
from ..jvm.heap import Handle
from .unionfind import DisjointSets


class EquiliveBlock:
    """One equilive set: members, dependent frame, and pin bookkeeping."""

    __slots__ = ("members", "frame", "static_cause", "ever_unioned")

    def __init__(self, handle: Handle, frame: Frame) -> None:
        self.members: List[Handle] = [handle]
        self.frame = frame
        #: None while collectible; otherwise the cause that pinned it static.
        self.static_cause: Optional[str] = None
        self.ever_unioned = False

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
    """Union-find over handles plus block payloads and frame lists.

    This layer is policy-free: it knows how to create, look up, merge, move,
    and dismantle blocks, and it maintains the invariant that every block is
    on exactly one frame list (the static frame's list for pinned blocks).
    The :class:`~repro.core.collector.ContaminatedCollector` applies the
    paper's rules on top.
    """

    def __init__(self, static_frame: StaticFrame) -> None:
        self.ds = DisjointSets()
        self.static_frame = static_frame
        #: union-find root id -> block payload.
        self._blocks: Dict[int, EquiliveBlock] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------

    def create(self, handle: Handle, frame: Frame) -> EquiliveBlock:
        """Make a fresh singleton block for a newly allocated object.

        The only place a handle gets its union-find slot and its block
        (allocation and the section 3.6 reset pass both come through here).
        """
        hid = handle.id
        ds = self.ds
        parent = ds._parent
        n = len(parent)
        if hid == n:
            # Heap ids are dense and increasing: the common case appends.
            parent.append(hid)
            ds._rank.append(0)
        elif hid > n:
            parent[n:] = range(n, hid + 1)
            ds._rank[n:] = [0] * (hid + 1 - n)
        else:
            parent[hid] = hid
            ds._rank[hid] = 0
        block = EquiliveBlock(handle, frame)
        self._blocks[hid] = block
        frame.cg_blocks[block] = None
        return block

    def block_of(self, handle: Handle) -> EquiliveBlock:
        ds = self.ds
        hid = handle.id
        # Inline of ``hid in ds``: this runs twice per store event.
        if not 0 <= hid < len(ds._parent):
            raise IllegalStateError(
                f"object #{hid} has no equilive block (never tracked)"
            )
        # Inline of ds.find() (same counter discipline): saves a call on
        # the path every contamination event takes twice.
        ds.finds += 1
        parent = ds._parent
        root = hid
        while parent[root] != root:
            root = parent[root]
        node = hid
        while parent[node] != root:
            parent[node], node = root, parent[node]
        try:
            return self._blocks[root]
        except KeyError:
            raise IllegalStateError(
                f"object #{hid} has no equilive block (freed or untracked)"
            ) from None

    def has_block(self, handle: Handle) -> bool:
        if handle.id not in self.ds:
            return False
        return self.ds.find(handle.id) in self._blocks

    def blocks(self) -> Iterator[EquiliveBlock]:
        return iter(self._blocks.values())

    def block_count(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def merge(self, a: EquiliveBlock, b: EquiliveBlock,
              target_frame: Frame) -> EquiliveBlock:
        """Union two distinct blocks; the result depends on ``target_frame``.

        The caller computes ``target_frame`` per the paper's rules (older of
        the two dependent frames, or the static frame).  Member lists are
        spliced smaller-into-larger.
        """
        if a is b:
            raise IllegalStateError("merge of a block with itself")
        ds = self.ds
        parent = ds._parent
        # Inline of ds.find() on both representatives plus ds.union() — the
        # counter discipline is preserved exactly: two finds here, and union
        # itself charges two more (its root lookups, instant on roots).
        ds.finds += 2
        x = a.members[0].id
        ra = x
        while parent[ra] != ra:
            ra = parent[ra]
        while parent[x] != ra:
            parent[x], x = ra, parent[x]
        y = b.members[0].id
        rb = y
        while parent[rb] != rb:
            rb = parent[rb]
        while parent[y] != rb:
            parent[y], y = rb, parent[y]
        ds.finds += 2
        ds.unions += 1
        rank = ds._rank
        root, loser_root = ra, rb
        if rank[root] < rank[loser_root]:
            root, loser_root = loser_root, root
        parent[loser_root] = root
        if rank[root] == rank[loser_root]:
            rank[root] += 1
        winner, loser = (a, b) if root == ra else (b, a)
        # Splice the smaller member list into the larger one.
        if len(winner.members) < len(loser.members):
            winner.members, loser.members = loser.members, winner.members
        winner.members.extend(loser.members)
        winner.ever_unioned = True
        # Remove both from their frame lists, reattach winner to the target.
        del winner.frame.cg_blocks[winner]
        del loser.frame.cg_blocks[loser]
        # ``winner`` is already registered under ``root``; drop the loser.
        del self._blocks[ra if root == rb else rb]
        # Static causes survive a merge: if either side was pinned the merged
        # block is pinned, preferring the side that was already static.
        if winner.static_cause is None and loser.static_cause is not None:
            winner.static_cause = loser.static_cause
        winner.frame = target_frame
        target_frame.cg_blocks[winner] = None
        return winner

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
        del block.frame.cg_blocks[block]
        root = self.ds.find(block.members[0].id)
        del self._blocks[root]

    def forget_members(self, block: EquiliveBlock) -> None:
        """Reset union-find state for all members of a detached block.

        Safe because the whole set is dismantled at once (see
        :meth:`repro.core.unionfind.DisjointSets.reset`).
        """
        ds = self.ds
        parent = ds._parent
        rank = ds._rank
        for handle in block.members:
            hid = handle.id
            parent[hid] = hid
            rank[hid] = 0

    def dismantle_all(self) -> List[EquiliveBlock]:
        """Tear down every block (start of a section 3.6 reset pass)."""
        blocks = list(self._blocks.values())
        for block in blocks:
            del block.frame.cg_blocks[block]
            self.forget_members(block)
        self._blocks.clear()
        return blocks

    # ------------------------------------------------------------------
    # Validation (used by tests; invariant 4 of DESIGN.md)
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
        registered = set(self._blocks.values())
        if registered != set(seen):
            raise IllegalStateError(
                "block registry and frame lists disagree: "
                f"{len(registered)} registered vs {len(seen)} listed"
            )
        for root, block in self._blocks.items():
            for handle in block.live_members():
                if self.ds.find(handle.id) != root:
                    raise IllegalStateError(
                        f"member #{handle.id} not in its block's set"
                    )

"""The contaminated-garbage collector (the paper's contribution).

The collector is an event consumer: the VM (or a direct-drive mutator)
reports exactly the events the thesis instruments in Sun's interpreter
(section 3.1.3) —

* object creation            -> a fresh singleton equilive block on the
                                currently active frame;
* ``putfield`` / ``aastore`` -> symmetric contamination: the two objects'
                                blocks merge, dependent on the older frame
                                (with the section 3.4 static optimization);
* ``areturn``                -> the returned object's block is promoted to
                                the caller's frame if that frame is older;
* ``putstatic``              -> the referenced object's block is pinned to
                                frame 0 (live for the program's duration);
* frame pop                  -> every block on the frame's list is dead and
                                is reclaimed (or parked for recycling);

plus the pessimistic cases of sections 3.2/3.3: interned strings, objects
escaping to native code, objects touched by a second thread, and objects
returned off the bottom of a thread's stack are pinned to frame 0.

The collector never marks: reclamation at a frame pop is a walk of that
frame's block list only.  Conservatism (objects believed live that are in
fact dead) is quantified, not corrected — except by the optional section 3.6
reset pass, driven by the tracing collector through the ``begin_reset`` /
``reset_assign`` / ``reset_union`` / ``end_reset`` protocol.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from ..jvm.errors import IllegalStateError
from ..jvm.frames import Frame, StaticFrame
from ..jvm.heap import Handle, Heap
from ..obs.events import NULL_TRACER
from ..obs.profile import NULL_PROFILER, PHASE_CG_EVENTS, PHASE_RECYCLE
from .equilive import EquiliveBlock, EquiliveManager
from .policy import CGPolicy
from .recycle import RecycleList
from .stats import (
    CAUSE_INTERN,
    CAUSE_MERGED,
    CAUSE_NATIVE,
    CAUSE_PUTSTATIC,
    CAUSE_ROOTLESS,
    CAUSE_SHARED,
    CGStats,
)


class ResetSnapshot:
    """Pre-reset dependence of every live object (for the Fig. 4.11 metric)."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: handle id -> (was_static, dependent frame depth)
        self.entries: Dict[int, Tuple[bool, int]] = {}


class ContaminatedCollector:
    """Event-driven CG collector over a :class:`~repro.jvm.heap.Heap`."""

    def __init__(self, heap: Heap, static_frame: StaticFrame,
                 policy: Optional[CGPolicy] = None,
                 tracer=None, profiler=None) -> None:
        self.heap = heap
        self.policy = policy or CGPolicy()
        self.static_frame = static_frame
        self.stats = CGStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Cached flag so disabled tracing costs one attribute test on the
        #: (already expensive) event paths, never a method call.
        self._trace = self.tracer.enabled
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.equilive = EquiliveManager(static_frame)
        self.recycle = RecycleList(
            heap, self.stats, by_type=self.policy.recycle_by_type,
            tracer=self.tracer,
        )
        #: Optional oracle installed by the runtime for paranoid mode: given
        #: a list of handles CG is about to free, raise if any is reachable.
        self.reachability_probe: Optional[Callable[[List[Handle]], None]] = None
        if self.profiler.enabled:
            # Shadow the hot event handlers with timing wrappers only when
            # profiling is on; the disabled configuration keeps the plain
            # bound methods and pays nothing.
            self.on_store = self._timed(self.on_store, PHASE_CG_EVENTS)
            self.on_areturn = self._timed(self.on_areturn, PHASE_CG_EVENTS)
            self.on_putstatic = self._timed(self.on_putstatic, PHASE_CG_EVENTS)
            self.on_frame_pop = self._timed(self.on_frame_pop, PHASE_CG_EVENTS)
            self.take_recycled = self._timed(self.take_recycled, PHASE_RECYCLE)

    def set_tracer(self, tracer) -> None:
        """Install (or replace) the event tracer after construction.

        The collector caches ``tracer.enabled`` in ``_trace`` at
        construction time for event-path speed, so assigning
        ``collector.tracer`` directly would leave the cached flag stale
        and silently drop events.  This is the supported way to attach a
        tracer late; it refreshes the cache here and in the recycle list.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        self.recycle.set_tracer(self.tracer)

    def _timed(self, method, phase: str):
        profiler = self.profiler

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                profiler.add(phase, perf_counter() - started)

        return wrapper

    # ------------------------------------------------------------------
    # Mutator events
    # ------------------------------------------------------------------

    def on_alloc(self, handle: Handle, frame: Frame) -> EquiliveBlock:
        """A new object is associated with the currently active frame."""
        self.stats.objects_created += 1
        block = self.equilive.create(handle, frame)
        if self._trace:
            self.tracer.emit(
                "new", handle=handle.id, cls=handle.cls.name,
                size=handle.size, depth=frame.depth,
                thread=handle.alloc_thread,
            )
        if frame is self.static_frame:
            # Allocated outside any method (class loading, interpreter
            # internals): immediately static, per section 3.2.
            self._pin_block(block, CAUSE_INTERN)
        return block

    def on_store(self, container: Handle, value: Optional[Handle]) -> None:
        """``putfield``/``aastore``: symmetric contamination (chapter 2).

        Both blocks are resolved with the inline find of
        :meth:`EquiliveManager.block_of` (one counted find each, the same
        errors for untracked or freed handles).
        """
        self.stats.store_events += 1
        if value is None:
            return
        if container.freed:
            container.check_live()
        if value.freed:
            value.check_live()
        equilive = self.equilive
        ds = equilive.ds
        parent = ds._parent
        n = len(parent)
        cid = container.id
        vid = value.id
        if not 0 <= cid < n:
            raise IllegalStateError(
                f"object #{cid} has no equilive block (never tracked)"
            )
        ds.finds += 1
        rc = cid
        while parent[rc] != rc:
            rc = parent[rc]
        while parent[cid] != rc:
            parent[cid], cid = rc, parent[cid]
        registry = equilive._blocks
        bc = registry.get(rc)
        if bc is None:
            raise IllegalStateError(
                f"object #{container.id} has no equilive block "
                "(freed or untracked)"
            )
        if not 0 <= vid < n:
            raise IllegalStateError(
                f"object #{vid} has no equilive block (never tracked)"
            )
        ds.finds += 1
        rv = vid
        while parent[rv] != rv:
            rv = parent[rv]
        while parent[vid] != rv:
            parent[vid], vid = rv, parent[vid]
        bv = registry.get(rv)
        if bv is None:
            raise IllegalStateError(
                f"object #{value.id} has no equilive block "
                "(freed or untracked)"
            )
        if bc is bv:
            return
        if (bv.static_cause is not None and bc.static_cause is None
                and self.policy.static_opt):
            # Section 3.4: referencing an already-static object cannot make
            # it "more live"; skip contaminating the container.
            self.stats.static_opt_hits += 1
            return
        self._merge(bc, bv)

    def on_putstatic(self, value: Optional[Handle]) -> None:
        """A static variable now references ``value``: pin to frame 0."""
        self.stats.putstatic_events += 1
        if value is None:
            return
        value.check_live()
        self.pin_static(value, CAUSE_PUTSTATIC)

    def on_areturn(self, value: Handle, caller: Optional[Frame]) -> None:
        """``areturn``: the block must outlive the caller's frame."""
        self.stats.areturn_events += 1
        if value.freed:
            value.check_live()
        if caller is None:
            # Returned off the bottom of a thread's stack (or to a native
            # caller with no frame): nothing anchors it, pin conservatively.
            self.pin_static(value, CAUSE_ROOTLESS)
            return
        block = self.equilive.block_of(value)
        if block.static_cause is not None:
            return
        # Inline of ``caller.is_older_than(block.frame)``.  A collectible
        # block hangs off a real frame, so only the caller can be frame 0
        # (depth -1, older than everything).
        frame = block.frame
        if caller.depth >= 0 and caller.thread_id != frame.thread_id:
            raise IllegalStateError(
                "frame age comparison across threads (block should be static)"
            )
        if caller.depth < frame.depth:
            if self._trace:
                self.tracer.emit(
                    "promote", handle=value.id,
                    from_depth=frame.depth, to_depth=caller.depth,
                )
            self.equilive.move_to_frame(block, caller)

    def on_access(self, handle: Handle, thread_id: int) -> None:
        """Any heap access: detect sharing between threads (section 3.3)."""
        if handle.freed:
            handle.check_live()
        if handle.pinned_cause is not None:
            return  # already static; no further action can affect it
        if handle.alloc_thread != thread_id:
            self.pin_static(handle, CAUSE_SHARED)

    def on_intern(self, handle: Handle) -> None:
        """Interpreter-internal static reference (String.intern, section 3.2)."""
        self.pin_static(handle, CAUSE_INTERN)

    def on_native_escape(self, handle: Handle) -> None:
        """Object handed to native code (section 3.3): pin conservatively."""
        self.pin_static(handle, CAUSE_NATIVE)

    def on_frame_pop(self, frame: Frame) -> int:
        """Collect every equilive block dependent on the popped frame.

        Returns the number of objects reclaimed.  With recycling enabled the
        dead objects are parked for reuse instead of freed (section 3.7).
        One walk of the frame's block list: per block, one counted find for
        its representative, one registry delete, an inline reset of its
        members' union-find slots, and one :meth:`Heap.free_all` call for
        its live members.  Frees follow ``cg_blocks`` order, then member
        order (DESIGN.md section 6, invariant 7).
        """
        stats = self.stats
        stats.frame_pops += 1
        blocks = frame.cg_blocks
        if not blocks:
            if self._trace:
                self.tracer.emit(
                    "frame_pop", frame=frame.frame_id, depth=frame.depth,
                    blocks=0, freed=0,
                )
            return 0
        frame.cg_blocks = {}
        recycling = self.policy.recycling
        probe = self.reachability_probe if self.policy.paranoid else None
        trace = self._trace
        equilive = self.equilive
        ds = equilive.ds
        parent = ds._parent
        rank = ds._rank
        registry = equilive._blocks
        free_all = self.heap.free_all
        size_hist = stats.block_size_hist
        depth = frame.depth
        ds.finds += len(blocks)
        popped = []
        for block in blocks:
            members = block.members
            root = members[0].id
            while parent[root] != root:
                root = parent[root]
            del registry[root]
            live = []
            for handle in members:
                hid = handle.id
                parent[hid] = hid
                rank[hid] = 0
                if not handle.freed:
                    live.append(handle)
            if not live:
                continue
            if probe is not None:
                probe(live)
            n = len(live)
            stats.blocks_collected += 1
            size_hist[n] += 1
            if trace:
                self.tracer.emit(
                    "block_collect", frame=frame.frame_id, depth=depth,
                    size=n, exact=not block.ever_unioned,
                )
            if not block.ever_unioned:
                stats.exact_blocks += 1
                stats.exact_objects += n
            free_all(live, "contaminated-gc", not recycling)
            if recycling:
                self.recycle.park(live)
            popped += live
        freed = len(popped)
        if freed:
            stats.age_hist.update([h.birth_depth - depth for h in popped])
            stats.objects_popped += freed
        if trace:
            self.tracer.emit(
                "frame_pop", frame=frame.frame_id, depth=depth,
                blocks=len(blocks), freed=freed,
            )
        return freed

    # ------------------------------------------------------------------
    # Allocation-time recycling hook (section 3.7)
    # ------------------------------------------------------------------

    def take_recycled(self, size: int, cls=None) -> Optional[Handle]:
        """Search the recycle list for ``size`` words of storage.

        With by-type recycling enabled (chapter 6), an exact (class, size)
        bucket is consulted first; otherwise this is the section 3.7
        linear first-fit.
        """
        if not self.policy.recycling:
            return None
        donor = self.recycle.take_fit(size, cls=cls)
        if donor is not None:
            self.stats.objects_recycled += 1
        return donor

    # ------------------------------------------------------------------
    # Emergency recovery (the allocation cascade's CG-only tier)
    # ------------------------------------------------------------------

    def emergency_pass(self) -> int:
        """Reclaim storage using only what CG already knows, no tracing.

        Two pop-driven sweeps: (1) detach equilive blocks whose members
        have all since been reclaimed out of band (MSA's lazy deletion
        leaves them on frame lists until the frame pops); (2) flush every
        parked recycle object back to the free list.  Both only touch
        provably-dead storage, so no census or collection counter moves —
        this is exactly what a frame pop/GC would eventually do, done now.
        Returns the number of parked objects released.
        """
        equilive = self.equilive
        for block in list(equilive.blocks()):
            if block.live_size() == 0:
                equilive.detach(block)
                equilive.forget_members(block)
        return self.recycle.flush()

    def block_census(self) -> Dict[str, int]:
        """Instantaneous equilive-block summary for crash dumps."""
        blocks = live_objects = static_blocks = static_objects = largest = 0
        for block in self.equilive.blocks():
            size = block.live_size()
            blocks += 1
            live_objects += size
            if size > largest:
                largest = size
            if block.is_static:
                static_blocks += 1
                static_objects += size
        return {
            "blocks": blocks,
            "live_objects": live_objects,
            "static_blocks": static_blocks,
            "static_objects": static_objects,
            "largest_block": largest,
        }

    # ------------------------------------------------------------------
    # Tracing-collector integration
    # ------------------------------------------------------------------

    def on_collected_by_msa(self, handle: Handle) -> None:
        """The tracing collector reclaimed an object CG still thought live.

        The handle stays on its block's member list with its ``freed`` flag
        set (lazy deletion); the block skips it when it is eventually popped.
        """
        self.stats.collected_by_msa += 1

    def begin_reset(self) -> ResetSnapshot:
        """Start a section 3.6 reset pass: snapshot and dismantle all blocks."""
        snapshot = ResetSnapshot()
        for block in self.equilive.blocks():
            entry = (block.is_static, block.frame.depth)
            for handle in block.live_members():
                snapshot.entries[handle.id] = entry
        self.equilive.dismantle_all()
        return snapshot

    def reset_assign(self, handle: Handle, frame: Frame) -> None:
        """Associate ``handle`` with ``frame`` (first root that reaches it)."""
        if self.equilive.has_block(handle):
            raise IllegalStateError(f"reset_assign of already-assigned #{handle.id}")
        block = self.equilive.create(handle, frame)
        if frame is self.static_frame:
            block.static_cause = handle.pinned_cause or CAUSE_MERGED
            if handle.pinned_cause is None:
                handle.pinned_cause = block.static_cause
                self.stats.objects_pinned[block.static_cause] += 1

    def reset_union(self, a: Handle, b: Handle) -> None:
        """Union along a reference edge discovered during marking."""
        ba = self.equilive.block_of(a)
        bb = self.equilive.block_of(b)
        if ba is not bb:
            self._merge(ba, bb)

    def end_reset(self, snapshot: ResetSnapshot) -> int:
        """Finish a reset pass; returns the number of less-live objects.

        An object is *less live* when its rebuilt dependence is strictly
        younger than before the pass (e.g. it dropped out of the static set,
        or moved to a deeper frame) — the approximation error the reset pass
        repairs (Fig. 4.11).
        """
        self.stats.reset_passes += 1
        improved = 0
        for block in self.equilive.blocks():
            now_static = block.is_static
            depth_now = block.frame.depth
            for handle in block.live_members():
                was = snapshot.entries.get(handle.id)
                if was is None:
                    continue  # allocated after the snapshot; nothing to compare
                was_static, depth_before = was
                if was_static and not now_static:
                    improved += 1
                    handle.pinned_cause = None
                elif not was_static and not now_static and depth_now > depth_before:
                    improved += 1
        self.stats.less_live += improved
        if self._trace:
            self.tracer.emit(
                "reset_pass", improved=improved,
                blocks=self.equilive.block_count(),
            )
        return improved

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def pin_static(self, handle: Handle, cause: str) -> None:
        """Pin ``handle``'s whole block to frame 0 with the given cause."""
        block = self.equilive.block_of(handle)
        if block.is_static:
            return
        self.stats.static_pins[cause] += 1
        self._pin_block(block, cause)

    def _pin_block(self, block: EquiliveBlock, cause: str) -> None:
        if self._trace:
            self.tracer.emit(
                "pin", handle=block.members[0].id, cause=cause,
                members=len(block.members), from_depth=block.frame.depth,
            )
        self._stamp_members(block, cause)
        block.static_cause = cause
        self.equilive.pin_static(block, cause)

    def _stamp_members(self, block: EquiliveBlock, cause: str) -> None:
        stamped = self.stats.objects_pinned
        for handle in block.members:
            if not handle.freed and handle.pinned_cause is None:
                handle.pinned_cause = cause
                stamped[cause] += 1

    def _merge(self, ba: EquiliveBlock, bb: EquiliveBlock) -> EquiliveBlock:
        """Merge two distinct blocks per the paper's rules (section 2.2)."""
        if ba.is_static or bb.is_static:
            cause = ba.static_cause or bb.static_cause or CAUSE_MERGED
            if not ba.is_static:
                self._stamp_members(ba, cause)
                ba.static_cause = cause
            if not bb.is_static:
                self._stamp_members(bb, cause)
                bb.static_cause = cause
            target = self.static_frame
        elif ba.frame.thread_id != bb.frame.thread_id:
            # Blocks anchored in different threads' stacks have no common
            # frame order; treat as shared (section 3.3).
            self.stats.static_pins[CAUSE_SHARED] += 1
            self._stamp_members(ba, CAUSE_SHARED)
            self._stamp_members(bb, CAUSE_SHARED)
            ba.static_cause = CAUSE_SHARED
            bb.static_cause = CAUSE_SHARED
            target = self.static_frame
        else:
            # Inline of ``ba.frame.is_older_than(bb.frame)``: both frames
            # are real and on one thread here.
            target = ba.frame if ba.frame.depth < bb.frame.depth else bb.frame
        if self._trace:
            self.tracer.emit(
                "union", a=ba.members[0].id, b=bb.members[0].id,
                sizes=[len(ba.members), len(bb.members)],
                target_depth=target.depth,
                static=target is self.static_frame,
            )
        merged = self.equilive.merge(ba, bb, target)
        self.stats.contaminations += 1
        return merged

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------

    def final_census(self) -> Dict[str, int]:
        """Classify surviving objects: the popped/static/thread breakdown
        of Tables A.2-A.4 plus the per-cause static composition of A.1."""
        static_count = 0
        shared_count = 0
        for block in self.equilive.blocks():
            for handle in block.live_members():
                if handle.pinned_cause == CAUSE_SHARED:
                    shared_count += 1
                else:
                    static_count += 1
        return {
            "popped": self.stats.objects_popped,
            "static": static_count,
            "thread": shared_count,
            "collected_by_msa": self.stats.collected_by_msa,
        }

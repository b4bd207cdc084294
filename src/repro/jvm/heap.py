"""Handle-indirected heap with a JDK-1.1.8-style free-list allocator.

Sun's JDK 1.1.8 interpreter manages objects through *handles*: a small
fixed-size record holding the pointer to the object's current storage plus a
method-table reference, so relocation only updates the handle (thesis section
3.1).  We mirror that split:

* :class:`Handle` — the per-object record.  Its Python attributes stand in
  for the extra words the CG implementation added to the 2-word JDK handle
  (thesis section 3.1.1): union-find parent/rank, equilive list links and
  frame back-pointer are here one ``block`` pointer to the object's equilive
  block; owning thread, unique id and birth depth are fields.  The configured
  *accounted* handle width (2, 8, or 16 words, section 3.5) is charged
  against a separate handle region sized as a multiple of the base split.

* :class:`FreeList` — the object-space allocator.  JDK 1.1.8 "does a linear
  search through the object pool to find the first object that is at least as
  big as requested", remembering where it last allocated (section 3.7) — a
  classic next-fit.  We reproduce that, including address-ordered coalescing,
  because the recycling experiment (Fig. 4.12/4.13) measures precisely the
  cost of that search once the heap fills.

Field *values* live in Python dictionaries on the handle; the simulated
word-addressed space governs only placement, exhaustion, and search cost,
which is all the paper's timing results depend on.  (Documented in DESIGN.md
section 7.)
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import OutOfMemoryError, UseAfterCollect, VMError
from .model import JClass

#: Payload words charged per array element.
WORDS_PER_ELEMENT = 1
#: Words of object header charged per allocation (class pointer + lock word).
OBJECT_HEADER_WORDS = 2

#: Handle widths, in words (thesis sections 3.1.1 and 3.5).
HANDLE_WORDS_JDK = 2
HANDLE_WORDS_CG_SQUEEZED = 8
HANDLE_WORDS_CG_WIDE = 16


class Handle:
    """Per-object record: storage location, class, fields, and CG bookkeeping.

    ``fields`` maps field name to value for ordinary objects; ``elements`` is
    the backing list for arrays.  References are stored as :class:`Handle`
    instances and null as ``None``, so collectors can discover the reference
    graph with a single isinstance check.
    """

    __slots__ = (
        "id",
        "cls",
        "addr",
        "size",
        "fields",
        "elements",
        "freed",
        "freed_by",
        "alloc_thread",
        "birth_frame_id",
        "birth_depth",
        "block",
        "pinned_cause",
        "mark",
        "pyvalue",
    )

    def __init__(
        self,
        handle_id: int,
        cls: JClass,
        addr: int,
        size: int,
        alloc_thread: int,
        birth_frame_id: int,
        birth_depth: int,
        length: Optional[int] = None,
    ) -> None:
        self.id = handle_id
        self.cls = cls
        self.addr = addr
        self.size = size
        self.fields: Optional[Dict[str, object]] = None
        self.elements: Optional[List[object]] = None
        if cls.is_array:
            self.elements = [None] * (length or 0)
        else:
            self.fields = cls.field_template().copy()
        self.freed = False
        self.freed_by: Optional[str] = None
        self.alloc_thread = alloc_thread
        self.birth_frame_id = birth_frame_id
        self.birth_depth = birth_depth
        self.block = None  # CG's equilive block (see core.equilive)
        self.pinned_cause = None  # static-pin cause stamp (see core.stats)
        self.mark = False
        # Interpreter-internal payload (used by java/lang/String).
        self.pyvalue: object = None

    @property
    def is_array(self) -> bool:
        return self.elements is not None

    @property
    def length(self) -> int:
        if self.elements is None:
            raise VMError(f"arraylength on non-array {self!r}")
        return len(self.elements)

    def references(self) -> Iterator["Handle"]:
        """Iterate over the non-null references this object holds."""
        if self.elements is not None:
            for value in self.elements:
                if isinstance(value, Handle):
                    yield value
        elif self.fields:
            for value in self.fields.values():
                if isinstance(value, Handle):
                    yield value

    def check_live(self) -> None:
        """Soundness oracle: fail loudly on access to a collected object."""
        if self.freed:
            raise UseAfterCollect(
                f"object #{self.id} ({self.cls.name}) was collected by "
                f"{self.freed_by or 'the collector'} but is being accessed"
            )

    def __repr__(self) -> str:
        dead = " DEAD" if self.freed else ""
        return f"<Handle #{self.id} {self.cls.name} @{self.addr}+{self.size}{dead}>"


class FreeList:
    """Address-ordered free list with next-fit search and coalescing.

    ``search_steps`` counts every block examined during allocation — the
    quantity the JDK allocator pays once the heap has filled, and the one the
    recycling optimization (section 3.7) avoids.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("heap capacity must be positive")
        self.capacity = capacity
        # Parallel sorted lists: block start addresses and sizes.
        self._addrs: List[int] = [0]
        self._sizes: List[int] = [capacity]
        self._next_fit = 0  # index hint into the free list
        self.search_steps = 0
        self.allocs = 0
        self.frees = 0

    @property
    def free_words(self) -> int:
        return sum(self._sizes)

    @property
    def largest_block(self) -> int:
        return max(self._sizes) if self._sizes else 0

    def blocks(self) -> List[Tuple[int, int]]:
        """Snapshot of (addr, size) free blocks, address-ordered."""
        return list(zip(self._addrs, self._sizes))

    def allocate(self, size: int) -> Optional[int]:
        """Next-fit: scan from the last allocation point, wrapping once.

        The probe order (and therefore ``search_steps``) is identical to the
        classic ``(start + probe) % n`` walk; the two explicit ranges just
        avoid a modulo per probe on the hot path.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        addrs = self._addrs
        sizes = self._sizes
        n = len(addrs)
        if n == 0:
            return None
        start = self._next_fit
        if start > n - 1:
            start = n - 1
        steps = 0
        ranges = (range(start, n), range(0, start)) if start else (range(n),)
        for indices in ranges:
            for i in indices:
                steps += 1
                if sizes[i] >= size:
                    self.search_steps += steps
                    addr = addrs[i]
                    if sizes[i] == size:
                        del addrs[i]
                        del sizes[i]
                    else:
                        addrs[i] = addr + size
                        sizes[i] -= size
                    self._next_fit = i
                    self.allocs += 1
                    return addr
        self.search_steps += steps
        return None

    def free(self, addr: int, size: int) -> None:
        """Return a block, coalescing with address-adjacent neighbours."""
        if size <= 0:
            raise ValueError("freed size must be positive")
        addrs = self._addrs
        sizes = self._sizes
        n = len(addrs)
        i = bisect_right(addrs, addr)
        # Guard against double-free / overlap, which would silently corrupt
        # the accounting invariants the property tests check.
        prev_end = addrs[i - 1] + sizes[i - 1] if i > 0 else -1
        if prev_end > addr:
            raise VMError(f"free overlaps preceding block at {addr}")
        if i < n and addr + size > addrs[i]:
            raise VMError(f"free overlaps following block at {addr}")
        self.frees += 1
        merged_prev = prev_end == addr
        merged_next = i < n and addr + size == addrs[i]
        if merged_prev and merged_next:
            sizes[i - 1] += size + sizes[i]
            del addrs[i]
            del sizes[i]
        elif merged_prev:
            sizes[i - 1] += size
        elif merged_next:
            addrs[i] = addr
            sizes[i] += size
        else:
            addrs.insert(i, addr)
            sizes.insert(i, size)
        if self._next_fit >= len(addrs):
            self._next_fit = 0

    def reset_scan(self) -> None:
        """Restart the next-fit scan from the heap base (post-GC behaviour)."""
        self._next_fit = 0

    def replace_free_space(self, blocks: List[Tuple[int, int]]) -> None:
        """Install a new free-space map (post-compaction)."""
        blocks = sorted(blocks)
        self._addrs = [a for a, _ in blocks]
        self._sizes = [s for _, s in blocks]
        self._next_fit = 0


#: Largest size with its own exact-fit bin; bigger blocks go to ranged bins.
_EXACT_CLASSES = 32


def _size_class(size: int) -> int:
    """Map a block size to its segregated-fit bin index.

    Sizes 1..32 get exact bins (every block in the bin has exactly that
    size); larger sizes share a power-of-two range bin, so bin
    ``_EXACT_CLASSES + k`` holds sizes in ``(2**(k+4), 2**(k+5)]``.
    """
    if size <= _EXACT_CLASSES:
        return size
    return _EXACT_CLASSES + (size - 1).bit_length() - 5


class SegregatedFreeList:
    """Segregated-fit allocator: size-class bins plus a wilderness block.

    The production-mode alternative to :class:`FreeList` (selected with
    ``RuntimeConfig(allocator="segregated")``).  Small allocations hit an
    exact-size bin in O(1); larger ones first-fit within a power-of-two
    range bin; the *wilderness* — the high-address tail the heap has never
    fragmented — serves as the carve-from block of last resort.  Freed
    blocks are binned without eager coalescing; when an allocation cannot
    be satisfied, one consolidation pass coalesces the whole free map and
    retries, so exhaustion behaviour (OOM) matches the next-fit allocator
    on any request the heap could possibly satisfy.

    ``search_steps`` counts every candidate examined (bin probes, in-bin
    block probes, and wilderness carves), so the cost model and the
    ``alloc.search_steps`` metric work identically for both allocators.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("heap capacity must be positive")
        self.capacity = capacity
        #: bin index -> LIFO list of (addr, size) free blocks.
        self._bins: Dict[int, List[Tuple[int, int]]] = {}
        self._wilderness_addr = 0
        self._wilderness_size = capacity
        self._free_words = capacity
        self.search_steps = 0
        self.allocs = 0
        self.frees = 0
        self.consolidations = 0

    @property
    def free_words(self) -> int:
        return self._free_words

    @property
    def largest_block(self) -> int:
        largest = self._wilderness_size
        for blocks in self._bins.values():
            for _, size in blocks:
                if size > largest:
                    largest = size
        return largest

    def blocks(self) -> List[Tuple[int, int]]:
        """Snapshot of (addr, size) free blocks, address-ordered."""
        out = [b for blocks in self._bins.values() for b in blocks]
        if self._wilderness_size:
            out.append((self._wilderness_addr, self._wilderness_size))
        return sorted(out)

    def allocate(self, size: int) -> Optional[int]:
        if size <= 0:
            raise ValueError("allocation size must be positive")
        addr = self._try_allocate(size)
        if addr is None and self._free_words >= size:
            # Fragmented across bins: coalesce everything once and retry.
            self._consolidate()
            addr = self._try_allocate(size)
        if addr is not None:
            self.allocs += 1
            self._free_words -= size
        return addr

    def _try_allocate(self, size: int) -> Optional[int]:
        bins = self._bins
        cls = _size_class(size)
        if cls <= _EXACT_CLASSES:
            # Exact bin: every block fits exactly; O(1) pop.
            blocks = bins.get(cls)
            if blocks:
                self.search_steps += 1
                addr, _ = blocks.pop()
                return addr
        else:
            # The request's own range bin may hold smaller same-class
            # blocks: first-fit within it.
            blocks = bins.get(cls)
            if blocks:
                for i in range(len(blocks) - 1, -1, -1):
                    self.search_steps += 1
                    addr, bsize = blocks[i]
                    if bsize >= size:
                        del blocks[i]
                        self._release_split(addr + size, bsize - size)
                        return addr
        # Any strictly larger class is guaranteed to fit: take the first
        # nonempty one (one probe per bin inspected).
        for upper in sorted(b for b in bins if b > cls):
            blocks = bins[upper]
            if blocks:
                self.search_steps += 1
                addr, bsize = blocks.pop()
                self._release_split(addr + size, bsize - size)
                return addr
        # Wilderness carve.
        self.search_steps += 1
        if self._wilderness_size >= size:
            addr = self._wilderness_addr
            self._wilderness_addr += size
            self._wilderness_size -= size
            return addr
        return None

    def _release_split(self, addr: int, size: int) -> None:
        """Return a split remainder to its bin (no counters: not a free)."""
        if size > 0:
            self._bins.setdefault(_size_class(size), []).append((addr, size))

    def free(self, addr: int, size: int) -> None:
        if size <= 0:
            raise ValueError("freed size must be positive")
        self.frees += 1
        self._free_words += size
        if addr + size == self._wilderness_addr:
            # Adjacent to the wilderness: grow it instead of binning.
            self._wilderness_addr = addr
            self._wilderness_size += size
        else:
            self._bins.setdefault(_size_class(size), []).append((addr, size))

    def _consolidate(self) -> None:
        """Coalesce the entire free map; the top block becomes wilderness."""
        self.consolidations += 1
        merged: List[Tuple[int, int]] = []
        for addr, size in self.blocks():
            if merged and merged[-1][0] + merged[-1][1] == addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((addr, size))
        self._bins = {}
        if merged:
            self._wilderness_addr, self._wilderness_size = merged.pop()
        else:
            self._wilderness_addr, self._wilderness_size = self.capacity, 0
        for addr, size in merged:
            self._bins.setdefault(_size_class(size), []).append((addr, size))

    def reset_scan(self) -> None:
        """Post-GC hook: next-fit restarts its scan; segregated fit instead
        consolidates, since a sweep just returned many uncoalesced blocks."""
        self._consolidate()

    def replace_free_space(self, blocks: List[Tuple[int, int]]) -> None:
        """Install a new free-space map (post-compaction)."""
        blocks = sorted(blocks)
        self._bins = {}
        self._free_words = sum(size for _, size in blocks)
        if blocks:
            self._wilderness_addr, self._wilderness_size = blocks.pop()
        else:
            self._wilderness_addr, self._wilderness_size = self.capacity, 0
        for addr, size in blocks:
            self._bins.setdefault(_size_class(size), []).append((addr, size))


ALLOCATOR_CHOICES = ("next-fit", "segregated")


def make_free_list(allocator: str, capacity: int):
    """Allocator factory used by :class:`Heap`."""
    if allocator == "next-fit":
        return FreeList(capacity)
    if allocator == "segregated":
        return SegregatedFreeList(capacity)
    raise ValueError(
        f"allocator must be one of {ALLOCATOR_CHOICES}, got {allocator!r}"
    )


class Heap:
    """The object heap: handle table + object space + accounting.

    ``handle_words`` selects the accounted handle width; the handle region is
    sized so the *object* space keeps the capacity given here, mirroring the
    thesis's rescaling of the JDK's original 20/80 split (section 3.1.1).
    """

    def __init__(self, capacity_words: int, handle_words: int = HANDLE_WORDS_JDK,
                 allocator: str = "next-fit") -> None:
        self.free_list = make_free_list(allocator, capacity_words)
        # Bound-method cache; safe because the free-list object is never
        # replaced (compaction installs new maps via replace_free_space).
        self._fl_allocate = self.free_list.allocate
        self.allocator = allocator
        #: Fault-injection probe (repro.faults): when set, consulted once
        #: per allocation and a True return synthesizes exhaustion.  None
        #: keeps the hot path at a single is-not-None test.
        self._alloc_fault = None
        self.capacity = capacity_words
        self.handle_words = handle_words
        self._handles: Dict[int, Handle] = {}
        self._next_id = 0
        self.objects_created = 0
        self.words_allocated = 0
        self.bytes_freed = 0
        self.live_words = 0
        self.peak_live_words = 0

    # ------------------------------------------------------------------
    # Allocation and reclamation
    # ------------------------------------------------------------------

    def size_of(self, cls: JClass, length: Optional[int] = None) -> int:
        if cls.is_array:
            return OBJECT_HEADER_WORDS + WORDS_PER_ELEMENT * max(0, length or 0)
        return OBJECT_HEADER_WORDS + cls.instance_size_words()

    def allocate(
        self,
        cls: JClass,
        alloc_thread: int,
        birth_frame_id: int,
        birth_depth: int,
        length: Optional[int] = None,
    ) -> Optional[Handle]:
        """Allocate an instance of ``cls``; return None on exhaustion.

        The caller (the runtime) decides what exhaustion means: consult the
        recycle list, run the tracing collector, or raise OutOfMemoryError.
        """
        # Inline of size_of(): this is the hottest call in the VM.
        if cls.is_array:
            size = OBJECT_HEADER_WORDS + WORDS_PER_ELEMENT * max(0, length or 0)
        else:
            nfields = len(cls.fields)
            size = OBJECT_HEADER_WORDS + (nfields if nfields else 1)
        fault = self._alloc_fault
        if fault is not None and fault(size):
            return None
        addr = self._fl_allocate(size)
        if addr is None:
            return None
        hid = self._next_id
        handle = Handle(
            hid, cls, addr, size, alloc_thread, birth_frame_id,
            birth_depth, length,
        )
        self._next_id = hid + 1
        self._handles[hid] = handle
        self.objects_created += 1
        self.words_allocated += size
        live = self.live_words + size
        self.live_words = live
        if live > self.peak_live_words:
            self.peak_live_words = live
        return handle

    def free(self, handle: Handle, freed_by: str) -> None:
        """Release ``handle``'s storage and taint it (section 3.1.4)."""
        self.retire(handle, freed_by)
        self.free_list.free(handle.addr, handle.size)

    def retire(self, handle: Handle, freed_by: str) -> None:
        """Taint ``handle`` as dead but keep its storage parked.

        Used by the recycling optimization (section 3.7): the dead object's
        storage stays out of the free list until either an allocation adopts
        it or the recycle list is flushed via :meth:`release_recycled`.
        """
        if handle.freed:
            raise VMError(f"double free of {handle!r} by {freed_by}")
        handle.freed = True
        handle.freed_by = freed_by
        self.live_words -= handle.size
        self.bytes_freed += handle.size
        del self._handles[handle.id]
        # Drop outgoing references so freed objects don't keep graphs alive
        # on the Python side (and so accidental traversal fails fast).
        handle.fields = None
        handle.elements = None

    def free_all(self, handles, freed_by: str, release: bool = True) -> None:
        """:meth:`retire` every handle in ``handles``, in order, and (unless
        ``release`` is false) return its storage to the free list, without
        a :meth:`retire` or :meth:`free` call per handle.

        The CG collector frees a popped frame's blocks through here, one
        call per block.  Frees reach the allocator one handle at a time in
        list order, because the next-fit hint (and so
        ``alloc_search_steps``) depends on that order.  The tracing
        collectors keep calling :meth:`free` per handle: routing it
        through this loop measured slower on their sweep path.
        """
        registry = self._handles
        fl_free = self.free_list.free
        words = 0
        try:
            for handle in handles:
                if handle.freed:
                    raise VMError(f"double free of {handle!r} by {freed_by}")
                handle.freed = True
                handle.freed_by = freed_by
                size = handle.size
                words += size
                del registry[handle.id]
                handle.fields = None
                handle.elements = None
                if release:
                    fl_free(handle.addr, size)
        finally:
            self.live_words -= words
            self.bytes_freed += words

    def adopt_storage(self, old: Handle, cls: JClass, alloc_thread: int,
                      birth_frame_id: int, birth_depth: int,
                      length: Optional[int] = None) -> Handle:
        """Reuse a recycled object's storage for a new allocation (section 3.7).

        The old object must be dead but *not* yet returned to the free list:
        recycling defers the free and hands the storage straight to the new
        object.  Only the leading ``size`` words are reused; any surplus from
        a larger donor is returned to the free list.
        """
        if not old.freed:
            raise VMError("recycled donor must already be dead")
        size = self.size_of(cls, length)
        if old.size < size:
            raise VMError("recycled donor too small")
        if old.size > size:
            self.free_list.free(old.addr + size, old.size - size)
        handle = Handle(
            self._next_id, cls, old.addr, size, alloc_thread, birth_frame_id,
            birth_depth, length=length,
        )
        self._next_id += 1
        self._handles[handle.id] = handle
        self.objects_created += 1
        self.words_allocated += size
        self.live_words += size
        if self.live_words > self.peak_live_words:
            self.peak_live_words = self.live_words
        return handle

    def release_recycled(self, handle: Handle) -> None:
        """Return a deferred-free (recycled) object's storage to the free list."""
        self.free_list.free(handle.addr, handle.size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_handles(self) -> List[Handle]:
        return list(self._handles.values())

    def live_count(self) -> int:
        return len(self._handles)

    def get(self, handle_id: int) -> Handle:
        try:
            return self._handles[handle_id]
        except KeyError:
            raise UseAfterCollect(f"handle #{handle_id} is not live") from None

    def handle_region_words(self) -> int:
        """Accounted size of the handle region for the live object count."""
        return self.live_count() * self.handle_words

    def set_alloc_fault(self, probe) -> None:
        """Install (or clear) the allocation fault probe (repro.faults)."""
        self._alloc_fault = probe

    def occupancy(self) -> Dict[str, float]:
        """Instantaneous heap gauges for the metrics registry.

        ``occupancy`` is the live fraction of object space; ``fragmentation``
        is 1 - (largest free block / free words) — 0 when the free space is
        one contiguous block, approaching 1 as it shatters.
        """
        free_words = self.free_list.free_words
        largest = self.free_list.largest_block
        return {
            "capacity_words": float(self.capacity),
            "live_words": float(self.live_words),
            "peak_live_words": float(self.peak_live_words),
            "free_words": float(free_words),
            "largest_free_block": float(largest),
            "live_objects": float(self.live_count()),
            "handle_region_words": float(self.handle_region_words()),
            "occupancy": self.live_words / self.capacity if self.capacity else 0.0,
            "fragmentation": 1.0 - largest / free_words if free_words else 0.0,
        }

    def compact(self) -> int:
        """Slide all live objects to the heap base; returns objects moved.

        Because every reference indirects through a handle, compaction only
        rewrites ``addr`` fields — the paper's motivation for keeping the
        handle indirection.  The free list collapses to one block.
        """
        live = sorted(self._handles.values(), key=lambda h: h.addr)
        cursor = 0
        moved = 0
        for handle in live:
            if handle.addr != cursor:
                handle.addr = cursor
                moved += 1
            cursor += handle.size
        self.free_list.replace_free_space(
            [(cursor, self.capacity - cursor)] if cursor < self.capacity else []
        )
        return moved

    def check_accounting(self, recycled_words: int = 0) -> None:
        """Invariant 5 of DESIGN.md: live + free + recycled words == capacity."""
        total = self.live_words + self.free_list.free_words + recycled_words
        if total != self.capacity:
            raise VMError(
                f"heap accounting broken: live {self.live_words} + free "
                f"{self.free_list.free_words} + recycled {recycled_words} "
                f"!= capacity {self.capacity}"
            )

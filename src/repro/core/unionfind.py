"""Disjoint-set (union-find) forest with union by rank and path compression.

This is the data structure the paper uses to maintain the *equilive*
equivalence relation over heap objects (thesis section 3.1.1).  Elements are
small integers (object handle ids), which keeps the forest compact and lets
callers attach per-set payloads keyed by the root id.

The amortised cost per operation is O(alpha(n)) (inverse Ackermann), which the
paper characterises as "a (nearly) constant amount of work per storage
reference".  We additionally count find/union operations so the evaluation
harness can charge CG maintenance work in its cost model.
"""

from __future__ import annotations

from typing import Iterator, List


class DisjointSets:
    """Union-find forest over integer elements ``0 .. n-1``.

    Elements are added with :meth:`make_set` and are never removed; callers
    that recycle element ids (as the CG collector does when an object is
    freed) simply call :meth:`reset` on the id to make it a fresh singleton.

    Attributes:
        finds: number of find operations performed (including internal ones).
        unions: number of union operations that actually merged two sets.
    """

    __slots__ = ("_parent", "_rank", "finds", "unions")

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._rank: List[int] = []
        self.finds = 0
        self.unions = 0

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, x: int) -> bool:
        return 0 <= x < len(self._parent)

    def make_set(self) -> int:
        """Create a new singleton set and return its element id."""
        x = len(self._parent)
        self._parent.append(x)
        self._rank.append(0)
        return x

    def ensure(self, x: int) -> None:
        """Extend the universe so that element ``x`` exists (as a singleton).

        Grows ``_parent``/``_rank`` with one slice assignment each rather
        than a ``make_set`` call per missing element.  (The collector does
        not call this: :meth:`repro.core.equilive.EquiliveManager.create`
        grows the forest inline, one ``append`` per allocation.)
        """
        n = len(self._parent)
        if x >= n:
            self._parent[n:] = range(n, x + 1)
            self._rank[n:] = [0] * (x + 1 - n)

    def reset(self, x: int) -> None:
        """Detach ``x`` into a fresh singleton set.

        This is only legal when every other member of ``x``'s old set has been
        (or is being) reset as well — the CG collector uses it when an entire
        equilive block dies, and the §3.6 resetting pass uses it after
        dismantling all blocks.  Resetting a root whose children still point
        at it would corrupt the forest, so callers must reset whole sets.
        """
        self._parent[x] = x
        self._rank[x] = 0

    def find(self, x: int) -> int:
        """Return the representative (root) of ``x``'s set, compressing the path."""
        self.finds += 1
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        # Path compression: point every traversed node directly at the root.
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> int:
        """Merge the sets containing ``x`` and ``y``; return the new root.

        Union by rank: the shallower tree is attached under the deeper one.
        Returns the surviving root (which is also returned when ``x`` and
        ``y`` were already in the same set).
        """
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return rx
        self.unions += 1
        rank = self._rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        return rx

    def same_set(self, x: int, y: int) -> bool:
        """True when ``x`` and ``y`` are currently equilive."""
        return self.find(x) == self.find(y)

    def rank_of(self, x: int) -> int:
        """Rank of the tree rooted at ``x``'s representative.

        Section 3.5 of the thesis observes that ranks stay small in practice
        (<= 10 for SPECjvm98), which is what allowed packing rank into the
        low bits of the parent pointer; we expose it so tests can check the
        same bound holds for our workloads.
        """
        return self._rank[self.find(x)]

    def roots(self) -> Iterator[int]:
        """Iterate over current set representatives (no compression)."""
        for x, p in enumerate(self._parent):
            if x == p:
                yield x

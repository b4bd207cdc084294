"""A fixed pure-Python work unit that measures how fast the host is.

On a shared host the speed can move by about 2x over minutes (seen on
a 2-vCPU cloud VM).  That shows in every timing, in a pure-Python loop
with no repo code as much as in the program, and in CPU time as much as
in wall time.  So ``run.py`` times this yardstick after each set-up
process and each timed pass, and scales the run's times to the speed at
which the yardstick takes :data:`REFERENCE_S`.

The unit imports nothing from ``repro``, so no change to the program
can move it.  Its mix follows the program's hot paths: dispatch through
small functions, objects with slots, an object graph that is marked from
a root, and dict stores.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Yardstick time that defines the reference speed, in seconds.
REFERENCE_S = 0.1


class _Cell:
    __slots__ = ("kids", "mark", "val")

    def __init__(self, val: int) -> None:
        self.kids = []
        self.mark = False
        self.val = val


_OPS = (
    lambda stack, arg: stack.append(arg),
    lambda stack, arg: stack.append(stack.pop() + stack.pop()),
    lambda stack, arg: stack.append(stack.pop() * 3 % 1000003),
    lambda stack, arg: stack.pop(),
)
_CODE = ((0, 1), (0, 2), (1, 0), (2, 0), (0, 5), (1, 0), (3, 0), (0, 7))


def _work() -> int:
    stack = [0]
    for step in range(120000):
        op, arg = _CODE[step & 7]
        _OPS[op](stack, arg)
    cells = [_Cell(i) for i in range(40000)]
    x = 12345
    for cell in cells:
        for _ in range(3):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            cell.kids.append(cells[x % 40000])
    todo = [cells[0]]
    marked = 0
    while todo:
        cell = todo.pop()
        if not cell.mark:
            cell.mark = True
            marked += 1
            todo.extend(cell.kids)
    table = {}
    for i in range(60000):
        table[(i * 7919) % 50021] = i
    return marked + len(stack) + len(table)


def yardstick() -> float:
    """Seconds the fixed work unit takes now.

    Python's cyclic collector runs before and after the timing and is
    off during it, so the unit does the same work every time and leaves
    no garbage for the next timed pass.
    """
    gc.collect()
    gc.disable()
    try:
        started = perf_counter()
        _work()
        return perf_counter() - started
    finally:
        gc.enable()
        gc.collect()

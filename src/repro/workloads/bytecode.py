"""Interpreter-driven bytecode workloads (the dispatch benchmarks).

The SPEC-shaped workloads drive the runtime through the direct
:class:`~repro.jvm.mutator.Mutator`, bypassing the interpreter entirely —
perfect for CG measurements, useless for measuring dispatch cost.  The
workloads here are real assembled bytecode executed by
:meth:`Runtime.run`, so the table/closure/compiled/tiered tiers
differ on them.  They are the workloads behind the bench harness's
cg-vs-table speedup ladder and the dispatch-parity differential
tests.

* ``bc-arith`` — pure integer arithmetic and branching, zero allocation:
  dispatch overhead in isolation.
* ``bc-list`` — linked-list build/traverse: ``new``/``putfield`` CG events
  plus a ``load+getfield`` hot walk.
* ``bc-calls`` — virtual calls over alternating receiver classes (inline-
  cache stress), statics, an object array, and a spawned allocator thread.

All three are deterministic with no seed sensitivity: the bytecode is the
program, the iteration count is the only knob.
"""

from __future__ import annotations

import random

from ..jvm.assembler import assemble
from ..jvm.model import Program
from ..jvm.mutator import Mutator
from ..jvm.runtime import Runtime
from .base import SIZES, Workload, register, scaled


class BytecodeWorkload(Workload):
    """A workload whose body is assembled bytecode, not a Mutator script."""

    #: Assembly source (see :mod:`repro.jvm.assembler` for the grammar).
    source: str = ""
    #: ``Class.method`` entry point; receives the iteration count as its
    #: single argument.
    entry: str = ""
    #: Iterations at size 1; sizes 10/100 scale with ``growth``.
    base_iterations: int = 0
    growth: float = 0.5

    def define_classes(self, program: Program) -> None:
        assemble(self.source, program)

    def run(self, mutator: Mutator, size: int,
            rng: random.Random) -> None:  # pragma: no cover
        raise NotImplementedError(
            "bytecode workloads drive the interpreter, not the Mutator"
        )

    def iterations(self, size: int) -> int:
        return scaled(self.base_iterations, size, self.growth)

    def execute(self, runtime: Runtime, size: int) -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size}")
        self.define_classes(runtime.program)
        runtime.run(self.entry, [self.iterations(size)])


@register
class BcArith(BytecodeWorkload):
    name = "bc-arith"
    description = "integer arithmetic/branch kernel (dispatch in isolation)"
    source_lines = "N/A"
    entry = "ArithMain.main"
    base_iterations = 40000

    source = """
    class ArithMain

    method ArithMain.main(1) locals=3
        ; locals: 0=iters, 1=i, 2=acc
        const 0
        store 1
        const 1
        store 2
    loop:
        load 1
        load 0
        if_icmpge done
        ; acc = (acc*3 + i) mod 65521
        load 2
        const 3
        mul
        load 1
        add
        const 65521
        mod
        store 2
        ; odd iterations: acc += 7
        load 1
        const 2
        mod
        ifzero even
        load 2
        const 7
        add
        store 2
    even:
        iinc 1 1
        goto loop
    done:
        load 2
        retval
    """

    def heap_words(self, size: int) -> int:
        # Allocates nothing; a small fixed heap keeps construction cheap.
        return 1024


@register
class BcLoop(BytecodeWorkload):
    name = "bc-loop"
    description = "nested-loop + call kernel with long straight-line blocks"
    source_lines = "N/A"
    entry = "BcLoop.main"
    base_iterations = 2200

    # The compiled tier's best case, by construction: the inner loop body
    # and the helper method are long branchless load/const/arith/store
    # runs, which the codegen collapses to a few Python statements per
    # basic block with the operand stack never touching frame.stack.
    # One invokestatic per outer iteration keeps the call path (frame
    # push/pop, quickened static dispatch) in the measurement without
    # letting frame churn dominate the straight-line work.
    source = """
    class BcLoop

    method BcLoop.mix(2) locals=2
        ; locals: 0=acc, 1=i — branchless mixer, returns the new acc
        load 0
        const 3
        mul
        load 1
        add
        store 0
        load 0
        const 5
        mul
        const 17
        add
        store 0
        load 0
        load 0
        add
        load 1
        add
        store 0
        load 0
        const 7
        mul
        load 1
        sub
        store 0
        load 0
        const 9
        mul
        const 23
        add
        store 0
        load 0
        const 11
        mul
        load 1
        add
        store 0
        load 0
        const 65521
        mod
        store 0
        load 0
        retval

    method BcLoop.main(1) locals=4
        ; locals: 0=iters, 1=i, 2=acc, 3=j
        const 1
        store 2
        const 0
        store 1
    outer:
        load 1
        load 0
        if_icmpge done
        const 10
        store 3
    inner:
        ; five 6-instruction branchless groups, then one bounding mod;
        ; bottom-tested so each iteration is a single straight-line trace
        load 2
        const 3
        mul
        load 3
        add
        store 2
        load 2
        const 5
        mul
        load 1
        add
        store 2
        load 2
        const 7
        mul
        load 3
        sub
        store 2
        load 2
        load 2
        add
        const 13
        add
        store 2
        load 2
        const 9
        mul
        load 1
        sub
        store 2
        load 2
        const 65521
        mod
        store 2
        iinc 3 -1
        load 3
        ifnzero inner
        load 2
        load 1
        invokestatic BcLoop.mix
        store 2
        iinc 1 1
        goto outer
    done:
        load 2
        retval
    """

    def heap_words(self, size: int) -> int:
        # Allocates nothing; a small fixed heap keeps construction cheap.
        return 1024


@register
class BcList(BytecodeWorkload):
    name = "bc-list"
    description = "linked-list build/sum (new/putfield + load+getfield walk)"
    source_lines = "N/A"
    entry = "BcList.main"
    base_iterations = 700

    source = """
    class BcNode
        field next
        field val

    class BcList

    method BcList.build(1) locals=4
        ; locals: 0=n, 1=i, 2=head, 3=node
        aconst_null
        store 2
        const 0
        store 1
    loop:
        load 1
        load 0
        if_icmpge done
        new BcNode
        store 3
        load 3
        load 2
        putfield next
        load 3
        load 1
        putfield val
        load 3
        store 2
        iinc 1 1
        goto loop
    done:
        load 2
        retval

    method BcList.sum(1) locals=2
        ; locals: 0=node, 1=acc
        const 0
        store 1
    walk:
        load 0
        ifnull out
        load 0
        getfield val
        load 1
        add
        store 1
        load 0
        getfield next
        store 0
        goto walk
    out:
        load 1
        retval

    method BcList.main(1) locals=3
        ; locals: 0=outer iterations, 1=k, 2=acc
        const 0
        store 1
        const 0
        store 2
    outer:
        load 1
        load 0
        if_icmpge done
        const 12
        invokestatic BcList.build
        invokestatic BcList.sum
        load 2
        add
        store 2
        iinc 1 1
        goto outer
    done:
        load 2
        retval
    """

    def heap_words(self, size: int) -> int:
        # Each outer iteration's 12-node list dies after its sum; size the
        # heap so the jdk system must actually collect.
        return 4096


@register
class BcCalls(BytecodeWorkload):
    name = "bc-calls"
    description = "virtual dispatch over mixed receivers + statics + spawn"
    source_lines = "N/A"
    entry = "BcCalls.main"
    base_iterations = 9000

    source = """
    class Shape
        field kind

    class Square extends Shape
        field side

    class Circle extends Shape
        field r

    class BcCounter
        static total

    class BcWorker

    class BcCalls
        static shapes

    method Shape.area(1) locals=1
        const 3
        retval

    method Square.area(1) locals=1
        load 0
        getfield side
        load 0
        getfield side
        mul
        retval

    method Circle.area(1) locals=1
        load 0
        getfield r
        load 0
        getfield r
        mul
        const 3
        mul
        retval

    method BcWorker.work(2) locals=3
        ; allocation churn on a spawned thread: 0=receiver, 1=n, 2=i
        const 0
        store 2
    wloop:
        load 2
        load 1
        if_icmpge wdone
        new Shape
        pop
        iinc 2 1
        goto wloop
    wdone:
        return

    method BcCalls.main(1) locals=5
        ; locals: 0=iters, 1=i, 2=arr, 3=shape, 4=worker
        const 0
        putstatic BcCounter.total
        ; eight shapes: six Squares then two Circles — mostly-monomorphic
        ; call sites with periodic inline-cache misses
        const 8
        newarray
        store 2
        const 0
        store 1
    fill:
        load 1
        const 8
        if_icmpge filled
        load 1
        const 6
        if_icmplt mksquare
        new Circle
        store 3
        load 3
        const 2
        putfield r
        goto stored
    mksquare:
        new Square
        store 3
        load 3
        const 3
        putfield side
    stored:
        load 2
        load 1
        load 3
        aastore
        iinc 1 1
        goto fill
    filled:
        load 2
        putstatic BcCalls.shapes
        ; concurrent allocation churn, interleaved round-robin
        new BcWorker
        store 4
        load 4
        const 400
        spawn work 2
        const 0
        store 1
    mloop:
        load 1
        load 0
        if_icmpge mdone
        getstatic BcCalls.shapes
        load 1
        const 8
        mod
        aaload
        invokevirtual area 1
        getstatic BcCounter.total
        add
        putstatic BcCounter.total
        iinc 1 1
        goto mloop
    mdone:
        getstatic BcCounter.total
        retval
    """

    def heap_words(self, size: int) -> int:
        # The worker's churn objects live until its frame pops, so give the
        # backstop collector something to chew on without thrashing.
        return 8192

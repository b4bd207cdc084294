"""The bytecode interpreter.

A table-driven dispatch loop in the spirit of Sun's C reference interpreter
(the system the thesis modified): each opcode indexes a tuple of handler
functions, replacing the original if/elif chain whose average cost grew with
the opcode's position.  The CG-relevant instructions delegate to the runtime
services, which raise the collector events; the interpreter itself only
moves values between locals, operand stacks, and the heap.

Four dispatch tiers share this file's runtime services and must produce
identical stats on every program (the opcode-parity differential suite is
the oracle, with ``table`` as its reference): ``tiered`` (the default —
profile-guided: methods start in the closure tier under a per-method
invocation + loop-backedge hotness counter and are promoted to generated
Python source, :mod:`repro.jvm.compiledcode`, at a call boundary once
hot, see :meth:`Interpreter._step_n_tiered`), ``compiled`` (tiered,
promoted on first visit: the same driver with a promotion threshold of
1), ``closure`` (per-method closure compilation with quickening,
:mod:`repro.jvm.closurecode`), and ``table`` (the loop below).

Three step loops serve them — table, batched closure, and tiered — plus
one closure per-instruction loop that every closure-family tier falls
back to when instructions must be observed one at a time (periodic GC,
heartbeat, or ``count_opcodes``).  Profiling and fault
injection are wrappers around whichever loop was selected, so no loop
carries their bookkeeping.

Threading: :meth:`Interpreter.run_program` drives the deterministic
round-robin scheduler — each runnable thread executes up to a quantum of
instructions before rotating, so cross-thread sharing (section 3.3) is both
exercised and reproducible.  Native methods run inline in the invoking
thread; when native code calls back into Java (``NativeEnv.call``), the
callee runs synchronously on the same thread via :meth:`call_sync`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from ..faults import NativeCallFault, TrapFault, did_you_mean, inject
from ..obs.profile import PHASE_CODEGEN, PHASE_COMPILE, PHASE_INTERPRET
from . import bytecode as bc
from .errors import NullPointerError, VerifyError, VMError
from .heap import Handle
from .model import JClass, JMethod, Program
from .natives import NativeEnv
from .runtime import DISPATCH_CHOICES
from .threads import JThread

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Runtime

#: Sentinel for "this method returned no value".
VOID = object()


# ---------------------------------------------------------------------------
# Opcode handlers (table dispatch)
#
# One module-level function per opcode, uniform signature
# ``(interp, runtime, thread, frame, a, b)``.  The driving loop has already
# advanced ``frame.pc`` past the instruction, so branch handlers simply
# overwrite it.  Handlers are plain functions (not methods) so the dispatch
# table costs one tuple index plus one call — no bound-method creation.
# ---------------------------------------------------------------------------


def _h_const(interp, runtime, thread, frame, a, b):
    frame.stack.append(a)


def _h_aconst_null(interp, runtime, thread, frame, a, b):
    frame.stack.append(None)


def _h_ldc_str(interp, runtime, thread, frame, a, b):
    frame.stack.append(runtime.new_string(a, thread))


def _h_load(interp, runtime, thread, frame, a, b):
    frame.stack.append(frame.locals[a])


def _h_store(interp, runtime, thread, frame, a, b):
    frame.locals[a] = frame.stack.pop()


def _h_iinc(interp, runtime, thread, frame, a, b):
    frame.locals[a] += b


def _h_dup(interp, runtime, thread, frame, a, b):
    frame.stack.append(frame.stack[-1])


def _h_pop(interp, runtime, thread, frame, a, b):
    frame.stack.pop()


def _h_swap(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]


def _h_new(interp, runtime, thread, frame, a, b):
    frame.stack.append(runtime.allocate(a, thread))


def _h_newarray(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    length = stack.pop()
    stack.append(runtime.allocate(Program.ARRAY, thread, length=length))


def _h_getfield(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    obj = stack.pop()
    if obj is None:
        raise NullPointerError(f"getfield {a} on null")
    stack.append(runtime.load_field(obj, a, thread))


def _h_putfield(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    value = stack.pop()
    obj = stack.pop()
    if obj is None:
        raise NullPointerError(f"putfield {a} on null")
    runtime.store_field(obj, a, value, thread)


def _h_getstatic(interp, runtime, thread, frame, a, b):
    try:
        cls, field = interp._static_refs[a]
    except KeyError:
        cls, field = interp._resolve_static(a)
    frame.stack.append(runtime.load_static(field, cls))


def _h_putstatic(interp, runtime, thread, frame, a, b):
    try:
        cls, field = interp._static_refs[a]
    except KeyError:
        cls, field = interp._resolve_static(a)
    runtime.store_static(field, frame.stack.pop(), cls)


def _h_aaload(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    index = stack.pop()
    array = stack.pop()
    if array is None:
        raise NullPointerError("aaload on null array")
    stack.append(runtime.load_element(array, index, thread))


def _h_aastore(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    value = stack.pop()
    index = stack.pop()
    array = stack.pop()
    if array is None:
        raise NullPointerError("aastore on null array")
    runtime.store_element(array, index, value, thread)


def _h_arraylength(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    array = stack.pop()
    if array is None:
        raise NullPointerError("arraylength on null")
    runtime.access(array, thread)
    stack.append(array.length)


def _h_instanceof(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    obj = stack.pop()
    stack.append(interp._instanceof(obj, a))


def _h_intern(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    string = stack.pop()
    if string is None:
        raise NullPointerError("intern on null")
    runtime.access(string, thread)
    stack.append(runtime.intern(string))


def _h_invokestatic(interp, runtime, thread, frame, a, b):
    interp._invoke(thread, frame, runtime.program.resolve(a))


def _h_invokevirtual(interp, runtime, thread, frame, a, b):
    nargs = b
    if nargs < 1:
        raise VerifyError("invokevirtual needs a receiver")
    receiver = frame.stack[-nargs]
    if receiver is None:
        raise NullPointerError(f"invokevirtual {a} on null")
    runtime.access(receiver, thread)
    method = receiver.cls.resolve_method(a)
    if method.nargs != nargs:
        raise VerifyError(
            f"{method.qualified_name} takes "
            f"{method.nargs} args, call site passes {nargs}"
        )
    interp._invoke(thread, frame, method)


def _h_return(interp, runtime, thread, frame, a, b):
    interp._return(thread, VOID)


def _h_retval(interp, runtime, thread, frame, a, b):
    value = frame.stack.pop()
    if isinstance(value, Handle):
        runtime.return_reference(value, thread)
    interp._return(thread, value)


def _h_spawn(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    nargs = b if b is not None else 1
    args = [stack.pop() for _ in range(nargs)][::-1]
    receiver = args[0]
    if receiver is None:
        raise NullPointerError(f"spawn {a} on null receiver")
    method = receiver.cls.resolve_method(a)
    if method.nargs != nargs:
        raise VerifyError(
            f"spawn: {method.qualified_name} takes "
            f"{method.nargs} args, got {nargs}"
        )
    # Thread.start() crosses the native boundary in the JDK, and the
    # spawning frame may pop before the new thread ever touches its
    # arguments — so every reference handed to the new thread is pinned
    # as thread-shared immediately (section 3.3's conservative treatment).
    if runtime.collector is not None:
        from ..core.stats import CAUSE_SHARED

        for arg in args:
            if isinstance(arg, Handle):
                runtime.collector.pin_static(arg, CAUSE_SHARED)
    new_thread = runtime.new_thread()
    interp._push_frame(new_thread, method, args)


def _h_add(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    stack[-1] = stack[-1] + y


def _h_sub(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    stack[-1] = stack[-1] - y


def _h_mul(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    stack[-1] = stack[-1] * y


def _h_div(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    x = stack.pop()
    if isinstance(x, int) and isinstance(y, int):
        stack.append(int(x / y) if y != 0 else _div_zero())
    else:
        stack.append(x / y)


def _h_mod(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    x = stack.pop()
    stack.append(x - int(x / y) * y if y != 0 else _div_zero())


def _h_neg(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    stack[-1] = -stack[-1]


def _h_goto(interp, runtime, thread, frame, a, b):
    frame.pc = a


def _h_ifzero(interp, runtime, thread, frame, a, b):
    if frame.stack.pop() == 0:
        frame.pc = a


def _h_ifnzero(interp, runtime, thread, frame, a, b):
    if frame.stack.pop() != 0:
        frame.pc = a


def _h_ifnull(interp, runtime, thread, frame, a, b):
    if frame.stack.pop() is None:
        frame.pc = a


def _h_ifnonnull(interp, runtime, thread, frame, a, b):
    if frame.stack.pop() is not None:
        frame.pc = a


def _h_if_icmpeq(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() == y:
        frame.pc = a


def _h_if_icmpne(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() != y:
        frame.pc = a


def _h_if_icmplt(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() < y:
        frame.pc = a


def _h_if_icmple(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() <= y:
        frame.pc = a


def _h_if_icmpgt(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() > y:
        frame.pc = a


def _h_if_icmpge(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() >= y:
        frame.pc = a


def _h_if_acmpeq(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() is y:
        frame.pc = a


def _h_if_acmpne(interp, runtime, thread, frame, a, b):
    stack = frame.stack
    y = stack.pop()
    if stack.pop() is not y:
        frame.pc = a


def _div_zero():
    raise VMError("integer division by zero")


_HANDLER_BY_NAME = {
    "const": _h_const,
    "aconst_null": _h_aconst_null,
    "ldc_str": _h_ldc_str,
    "load": _h_load,
    "store": _h_store,
    "iinc": _h_iinc,
    "dup": _h_dup,
    "pop": _h_pop,
    "swap": _h_swap,
    "new": _h_new,
    "newarray": _h_newarray,
    "getfield": _h_getfield,
    "putfield": _h_putfield,
    "getstatic": _h_getstatic,
    "putstatic": _h_putstatic,
    "aaload": _h_aaload,
    "aastore": _h_aastore,
    "arraylength": _h_arraylength,
    "instanceof": _h_instanceof,
    "intern": _h_intern,
    "invokestatic": _h_invokestatic,
    "invokevirtual": _h_invokevirtual,
    "return": _h_return,
    "retval": _h_retval,
    "spawn": _h_spawn,
    "add": _h_add,
    "sub": _h_sub,
    "mul": _h_mul,
    "div": _h_div,
    "mod": _h_mod,
    "neg": _h_neg,
    "goto": _h_goto,
    "ifzero": _h_ifzero,
    "ifnzero": _h_ifnzero,
    "ifnull": _h_ifnull,
    "ifnonnull": _h_ifnonnull,
    "if_icmpeq": _h_if_icmpeq,
    "if_icmpne": _h_if_icmpne,
    "if_icmplt": _h_if_icmplt,
    "if_icmple": _h_if_icmple,
    "if_icmpgt": _h_if_icmpgt,
    "if_icmpge": _h_if_icmpge,
    "if_acmpeq": _h_if_acmpeq,
    "if_acmpne": _h_if_acmpne,
}

#: Opcode-indexed handler table.  Built from the mnemonic map so a missing
#: or misspelt entry fails at import time, not mid-run.
_HANDLERS: Tuple = tuple(_HANDLER_BY_NAME[name] for name in bc.OPCODE_NAMES)
assert len(_HANDLERS) == bc.OP_COUNT


class Interpreter:
    """Executes bytecode methods on a runtime's threads."""

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        self.instructions_executed = 0
        #: static-ref operand -> (JClass, field name).  Operands are the
        #: assembler's pre-split ``(class, field)`` tuples (or legacy
        #: ``"Class.field"`` strings from hand-built code); both are
        #: hashable, so one dict serves as the resolution cache.
        self._static_refs: Dict[object, Tuple[JClass, str]] = {}
        #: Per-thread stack of frame depths acting as sync-call boundaries:
        #: a return at a marked depth delivers its value to ``_sync_results``
        #: instead of the caller's operand stack (native callbacks).
        self._sync_marks: Dict[int, List[int]] = {}
        self._sync_results: Dict[int, object] = {}
        config = runtime.config
        #: Per-opcode execution histogram (``count_opcodes`` mode only).
        self.count_ops: bool = config.count_opcodes
        self.op_counts: Optional[List[int]] = (
            [0] * bc.OP_COUNT if self.count_ops else None
        )
        #: JMethod -> CompiledMethod for the closure tier.  Per-interpreter:
        #: compiled closures bind this runtime's services.
        self._ccache: Dict[JMethod, object] = {}
        #: JMethod -> PyCompiledMethod for promoted methods (the generated
        #: Python form; its closure-tier form lives in ``_ccache``).
        self._pycache: Dict[JMethod, object] = {}
        #: Out-parameter cells for the generated functions.
        #: ``[0]``: on an exception, the instructions retired before the
        #: raise (re-entrant: every raise path *adds* its count just-in-time
        #: and each driving-loop level consumes its value before
        #: re-raising).  ``[1]``: implicit end-of-code returns retired
        #: inside a threaded call (:meth:`_call_tiered`) — counted but
        #: never ticked; each driver reads and re-zeroes it after every
        #: generated-``run`` call.
        self._nout: List[int] = [0, 0]
        #: Tiered dispatch (profile-guided promotion) state.  ``_hotness``
        #: maps cold methods to their hotness score (driver visits plus
        #: weighted loop backedges); crossing ``promote_after`` promotes
        #: the method to generated code at its next call boundary.
        #: ``_deopts`` counts guard deopts per promoted method;
        #: ``_promoted_visits``/``_recompiled`` drive the one-shot
        #: adaptive-cap recompile (see :meth:`_step_n_tiered`).  All of it
        #: is wall-time-only bookkeeping: promotion swaps *which*
        #: parity-equal loop runs a method, never what it counts.
        self._hotness: Dict[JMethod, int] = {}
        self._promoted_visits: Dict[JMethod, int] = {}
        self._deopts: Dict[JMethod, int] = {}
        self._recompiled: set = set()
        #: Methods whose first tiered visit already probed the codegen
        #: caches (memory + disk) for a ready-made compiled form.  One
        #: probe per method, ever: a hit promotes immediately (codegen is
        #: free, so the hotness threshold has nothing left to decide), a
        #: miss falls back to the profile-and-promote path.
        self._cache_probed: set = set()
        #: ``compiled`` is eager tiering: every method is promoted
        #: (codegenned) on its first driver visit.
        self._promote_after: int = (
            1 if config.dispatch == "compiled" else config.promote_after
        )
        self._backedge_weight: int = config.promote_backedge_weight
        #: Always-on compile accounting, independent of the profiler: wall
        #: seconds and method counts for the one-time closure-compile and
        #: codegen paths.  Feeds ``vm.compile.*`` metrics, the snapshot
        #: ``compile`` section, and the bench compile_ms split — cheap
        #: (two perf_counter calls per *method*, not per instruction), so
        #: unprofiled runs keep their counters bit-identical.
        self.compile_seconds: float = 0.0
        self.codegen_seconds: float = 0.0
        self.methods_compiled: int = 0
        self.methods_codegenned: int = 0
        self.methods_promoted: int = 0
        self.methods_recompiled: int = 0
        #: Persistent codegen-cache traffic (incremented by
        #: :mod:`repro.jvm.compiledcode` when a disk cache is armed).
        self.codegen_cache_hits: int = 0
        self.codegen_cache_misses: int = 0
        dispatch = config.dispatch
        if dispatch not in DISPATCH_CHOICES:
            # RuntimeConfig validates at construction; this catches
            # post-construction mutation (config.dispatch = "typo") and
            # hand-built configs, which previously fell through silently
            # to table dispatch.
            raise ValueError(
                f"dispatch must be one of {DISPATCH_CHOICES}, got {dispatch!r}"
                f"{did_you_mean(dispatch, DISPATCH_CHOICES)}"
            )
        if dispatch != "table":
            if runtime._tick_per_op or self.count_ops:
                # Per-instruction ticking (gc_period_ops / heartbeat) or
                # per-opcode counting: the closure-family tiers run the
                # closure per-instruction loop wholesale.  Generated
                # blocks would deopt at every pc, and promotion only
                # changes wall time, so this is bit-identical by the
                # parity suite.
                self.step_n = self._step_n_closure_per_op
            elif dispatch == "closure":
                self.step_n = self._step_n_closure
            else:
                self.step_n = self._step_n_tiered
        # Otherwise the class's own ``step_n`` (the table loop) runs.
        if runtime.profiler.enabled:
            # Innermost wrapper, so every call of the selected loop (each
            # fault-budget slice included) is attributed separately.
            self._unprofiled_step_n = self.step_n
            self.step_n = self._step_n_profiled
        plan = runtime.config.faults
        if plan is not None and plan.arms("interp.step"):
            # Wrap whichever dispatch loop was just selected.  The wrapper
            # slices budgets at firing points, so the inner loops stay
            # untouched and the no-fault path pays nothing.
            self._inner_step_n = self.step_n
            self.step_n = self._step_n_faulted

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run_program(self, qualified: str, args: List[object]) -> object:
        """Run ``qualified`` on the main thread; interleave spawned threads."""
        runtime = self.runtime
        self._push_call(runtime.main_thread, qualified, args)
        scheduler = runtime.scheduler
        quantum = runtime.config.quantum
        step_n = self.step_n
        next_thread = scheduler.next_thread
        threads = scheduler._threads
        while True:
            # Sole-thread fast path: with one registered thread the
            # round-robin probe always lands on it with the cursor pinned
            # at 0, so skipping next_thread() is observationally
            # identical (a spawn grows the list and drops us back onto
            # the general path with the cursor state unchanged).
            if len(threads) == 1:
                thread = threads[0]
                if not (thread.alive and thread.stack.frames):
                    break
            else:
                thread = next_thread()
                if thread is None:
                    break
            step_n(thread, quantum)
        return runtime.main_thread.result

    def call_sync(self, thread: JThread, qualified: str,
                  args: List[object]) -> object:
        """Run one call to completion on ``thread`` (no interleaving)."""
        frame = self._push_call(thread, qualified, args)
        if frame is None:
            # Native fast path: _push_call already ran it.
            return self._sync_results.pop(thread.thread_id, None)
        marks = self._sync_marks.setdefault(thread.thread_id, [])
        marks.append(frame.depth)
        base = frame.depth
        while thread.stack.depth > base:
            self.step_n(thread, 4096, stop_depth=base)
        return self._sync_results.pop(thread.thread_id, None)

    # ------------------------------------------------------------------
    # Invocation plumbing
    # ------------------------------------------------------------------

    def _push_call(self, thread: JThread, qualified: str,
                   args: List[object]):
        method = self.runtime.program.resolve(qualified)
        if len(args) != method.nargs:
            raise VerifyError(
                f"{qualified} expects {method.nargs} args, got {len(args)}"
            )
        if method.native is not None:
            result = self._run_native(thread, method, list(args))
            self._sync_results[thread.thread_id] = (
                None if result is VOID else result
            )
            return None
        return self._push_frame(thread, method, list(args))

    def _push_frame(self, thread: JThread, method: JMethod, args: List[object]):
        frame = self.runtime.push_frame(thread, method, nlocals=method.nlocals)
        for i, value in enumerate(args):
            frame.locals[i] = value
        return frame

    def _run_native(self, thread: JThread, method: JMethod,
                    args: List[object]) -> object:
        runtime = self.runtime
        plan = runtime.config.faults
        if plan is not None and plan.should_fire("native.call"):
            report = inject(
                runtime, "native.call", "escape",
                f"injected native-call failure in {method.qualified_name}",
                method=method.qualified_name, thread=thread.name,
            )
            raise NativeCallFault(report)
        env = NativeEnv(self.runtime, thread)
        result = method.native(env, args)
        if isinstance(result, Handle):
            # A reference crossing the native boundary cannot be tied to a
            # frame the collector can see (section 3.3).
            if self.runtime.collector is not None:
                self.runtime.collector.on_native_escape(result)
        return result

    def _return(self, thread: JThread, value: object) -> None:
        frame = self.runtime.pop_frame(thread)
        marks = self._sync_marks.get(thread.thread_id)
        if marks and marks[-1] == frame.depth:
            marks.pop()
            self._sync_results[thread.thread_id] = (
                None if value is VOID else value
            )
            return
        if thread.stack.frames:
            if value is not VOID:
                thread.stack.frames[-1].stack.append(value)
        else:
            thread.result = None if value is VOID else value

    def _resolve_static(self, operand) -> Tuple[JClass, str]:
        """Resolve (and cache) a getstatic/putstatic operand."""
        if type(operand) is tuple:
            cls_name, field = operand
        else:
            cls_name, field = operand.rsplit(".", 1)
        ref = (self.runtime.program.lookup(cls_name), field)
        self._static_refs[operand] = ref
        return ref

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def _step_n_faulted(self, thread: JThread, budget: int,
                        stop_depth: int = 0) -> int:
        """``step_n`` wrapper installed when ``interp.step`` is armed.

        Runs the real loop in chunks sized to the next firing point; at the
        firing point it raises a :class:`TrapFault` carrying a crash dump —
        the deterministic analogue of hitting a corrupt opcode.
        """
        runtime = self.runtime
        plan = runtime.config.faults
        inner = self._inner_step_n
        total = 0
        while total < budget:
            gap = plan.hits_until_fire("interp.step")
            if gap is None:
                return total + inner(thread, budget - total, stop_depth)
            if gap == 0:
                firing = plan.consume_fire("interp.step")
                report = inject(
                    runtime, "interp.step", "trap",
                    f"injected trap at instruction "
                    f"{self.instructions_executed} (firing {firing})",
                    thread=thread.name, depth=thread.stack.depth,
                )
                raise TrapFault(report)
            chunk = min(budget - total, gap)
            executed = inner(thread, chunk, stop_depth)
            plan.charge("interp.step", executed)
            total += executed
            if executed < chunk:
                # The thread drained to stop_depth; no more instructions.
                return total
        return total

    def _step_n_profiled(self, thread: JThread, budget: int,
                         stop_depth: int = 0) -> int:
        """``step_n`` wrapper installed when the profiler is enabled.

        One clock pair per call of the selected loop, charged to the
        ``interpret`` phase and to the entry depth — the per-depth profile
        is a poor man's flamegraph over the shadow stack at quantum
        resolution, not per instruction.  A raising loop is not charged.
        """
        profile_started = perf_counter()
        profile_depth = len(thread.stack.frames)
        executed = self._unprofiled_step_n(thread, budget, stop_depth)
        elapsed = perf_counter() - profile_started
        profiler = self.runtime.profiler
        profiler.add(PHASE_INTERPRET, elapsed)
        profiler.charge_depth(profile_depth, elapsed)
        return executed

    def step_n(self, thread: JThread, budget: int, stop_depth: int = 0) -> int:
        """Execute up to ``budget`` instructions on ``thread``.

        Returns the number of instructions actually executed (less than the
        budget when the thread's stack drains down to ``stop_depth`` — used
        by :meth:`call_sync` so a native callback doesn't run past its own
        caller's frame).
        """
        runtime = self.runtime
        executed = 0
        frames = thread.stack.frames
        handlers = _HANDLERS
        op_count = bc.OP_COUNT
        counts = self.op_counts
        if not runtime._tick_per_op and counts is None:
            # No periodic-GC trigger, heartbeat or opcode histogram:
            # ``tick`` is pure accounting, so charge the whole quantum in
            # one call instead of once per instruction.
            # Implicit end-of-code returns are not ticked (matching the
            # per-instruction loop below, which ticks only decoded
            # instructions); the flush happens even if a handler raises, so
            # the op count includes the faulting instruction exactly as the
            # per-instruction loop would.
            ticked = 0
            try:
                while executed < budget and len(frames) > stop_depth:
                    frame = frames[-1]
                    code = frame.method.code
                    pc = frame.pc
                    if pc >= len(code):
                        # Fell off the end: implicit return void.
                        self._return(thread, VOID)
                        executed += 1
                        continue
                    op, a, b = code[pc]
                    frame.pc = pc + 1
                    executed += 1
                    ticked += 1
                    if op >= op_count or op < 0:
                        raise VerifyError(f"unknown opcode {op}")
                    handlers[op](self, runtime, thread, frame, a, b)
            finally:
                if ticked:
                    runtime.tick(ticked)
        else:
            # Per-instruction ticking; in counting mode (no periodic
            # trigger) ``tick()`` is a pure counter bump, so the results
            # stay bit-identical to the batched loop above.
            while executed < budget and len(frames) > stop_depth:
                frame = frames[-1]
                code = frame.method.code
                pc = frame.pc
                if pc >= len(code):
                    self._return(thread, VOID)
                    executed += 1
                    continue
                op, a, b = code[pc]
                frame.pc = pc + 1
                executed += 1
                runtime.tick()
                if op >= op_count or op < 0:
                    raise VerifyError(f"unknown opcode {op}")
                if counts is not None:
                    counts[op] += 1
                handlers[op](self, runtime, thread, frame, a, b)
        self.instructions_executed += executed
        return executed

    # ------------------------------------------------------------------
    # Closure dispatch (see repro.jvm.closurecode)
    # ------------------------------------------------------------------

    def _compiled_for(self, method: JMethod):
        """Closure-compiled form of ``method`` (compiled once, then cached).

        Compilation is charged to the profiler's ``compile`` phase so the
        one-time cost is visible separately from interpretation.
        """
        try:
            return self._ccache[method]
        except KeyError:
            pass
        from .closurecode import compile_method

        started = perf_counter()
        compiled = compile_method(self, method)
        elapsed = perf_counter() - started
        self.compile_seconds += elapsed
        self.methods_compiled += 1
        profiler = self.runtime.profiler
        if profiler.enabled:
            profiler.add(PHASE_COMPILE, elapsed)
        self._ccache[method] = compiled
        return compiled

    def _py_compiled_for(self, method: JMethod):
        """Generated-Python form of ``method`` (compiled once, then cached).

        The closure form is built first — it is the deopt target and owns
        the quickening cells the codegen reads — and keeps its
        ``PHASE_COMPILE`` charge; source generation + ``exec`` is charged
        to ``PHASE_CODEGEN`` so warmup cost decomposes per tier.
        """
        try:
            return self._pycache[method]
        except KeyError:
            pass
        closure = self._compiled_for(method)
        from .compiledcode import compile_method_py

        started = perf_counter()
        compiled = compile_method_py(self, method, closure)
        elapsed = perf_counter() - started
        self.codegen_seconds += elapsed
        profiler = self.runtime.profiler
        if profiler.enabled:
            profiler.add(PHASE_CODEGEN, elapsed)
        self._pycache[method] = compiled
        return compiled

    def _py_cached_for(self, method: JMethod):
        """Cache-only twin of :meth:`_py_compiled_for`: adopt a
        previously generated form (in-memory or on-disk) without ever
        running the codegen, or return ``None``.  The binding rebuild a
        hit still pays is charged to ``PHASE_CODEGEN`` like any other
        warmup cost."""
        closure = self._compiled_for(method)
        from .compiledcode import cached_method_py

        started = perf_counter()
        compiled = cached_method_py(self, method, closure)
        elapsed = perf_counter() - started
        if compiled is None:
            return None
        self.codegen_seconds += elapsed
        profiler = self.runtime.profiler
        if profiler.enabled:
            profiler.add(PHASE_CODEGEN, elapsed)
        self._pycache[method] = compiled
        return compiled

    #: VM call depth beyond which :meth:`_call_tiered` refuses and the
    #: invoke falls back to the driver bounce.  Threaded calls nest two
    #: Python frames per VM frame, so this keeps deep recursion (raytrace)
    #: far from Python's own recursion limit; past the guard the *oldest*
    #: refusing driver level drives deeper frames iteratively.
    CALL_THREAD_MAX_DEPTH = 64

    def _call_tiered(self, frame, thread: JThread, budget: int,
                     nout) -> Tuple[int, bool]:
        """Drive the frame an invoke site just pushed, without leaving
        generated code: bound as ``_call`` into generated methods, so a VM
        call costs one Python call instead of two driver round-trips.

        ``frame`` is the *caller*; if it is still on top the invoke was a
        native that completed inline and there is nothing to drive.
        Returns ``(executed, done)``.  ``done=False`` hands control back
        to :meth:`_step_n_tiered` with identical semantics — budget
        exhausted, a deopt pc needing the closure tail, the recursion
        guard, or a callee with no generated form yet.  That last refusal
        keeps a promoted caller from codegenning a cold callee eagerly
        (exactly the warmup cost tiering exists to avoid): the driver's
        cold path runs it in the closure tier and counts its hotness, or,
        under ``compiled``, promotes it on that first visit.  Ticking
        stays the driver's job; implicit end-of-code returns accumulate
        in ``nout[1]`` (consumed there).
        """
        frames = thread.stack.frames
        if frames[-1] is frame:
            return 0, True
        stop_depth = len(frames) - 1
        if stop_depth >= self.CALL_THREAD_MAX_DEPTH:
            return 0, False
        executed = 0
        pycache = self._pycache
        while len(frames) > stop_depth:
            if executed >= budget:
                return executed, False
            callee = frames[-1]
            comp = pycache.get(callee.method)
            if comp is None:
                return executed, False
            pc = callee.pc
            if pc not in comp.leaders:
                return executed, False
            nout[0] = 0
            try:
                k, npc = comp.run(callee, thread, budget - executed, nout)
            except BaseException:
                nout[0] += executed
                raise
            executed += k
            if npc == -2:
                nout[1] += 1
                continue
            if npc < 0:
                continue
            callee.pc = npc
            return executed, False
        return executed, True

    #: Promoted-method driver visits after which the one-shot adaptive-cap
    #: recompile decision is taken (deopt-free by then -> lifted caps).
    RECOMPILE_AFTER_VISITS = 32

    def _recompile_lifted(self, method: JMethod):
        """Recompile a promoted, deopt-free method with a lifted trace cap.

        The hotness profile showing zero guard deopts over
        :data:`RECOMPILE_AFTER_VISITS` driver visits means the method is
        straight-line/counted-loop shaped: no polymorphic call sites, no
        failing speculation.  Such methods are recompiled once with
        ``MAX_TRACE`` lifted so goto-threading fuses longer traces (one
        upfront budget guard per trace instead of per block).  The trace
        cap stays bounded by the scheduler quantum — a trace longer than
        the driving budget could never pass the generated all-or-nothing
        budget guard and would deopt to closure slots forever.  The
        *block* cap deliberately stays at ``MAX_BLOCK``: it is the
        refusal granularity, and every quantum boundary runs up to a
        block's worth of instructions through closure slots twice (the
        refused tail, then the mid-block catch-up at the next visit), so
        doubling it measurably pushes ~10% of a tight kernel's
        instructions onto the slow path.  Counter parity is unaffected:
        caps only move where generated code *refuses*, and every refusal
        path charges identically to the closure tier.
        """
        from .compiledcode import compile_method_py

        closure = self._compiled_for(method)
        quantum = self.runtime.config.quantum
        max_trace = min(max(96, quantum), 256)
        started = perf_counter()
        compiled = compile_method_py(
            self, method, closure, max_trace=max_trace,
        )
        elapsed = perf_counter() - started
        self.codegen_seconds += elapsed
        self.methods_recompiled += 1
        profiler = self.runtime.profiler
        if profiler.enabled:
            profiler.add(PHASE_CODEGEN, elapsed)
        self._pycache[method] = compiled
        return compiled

    def _step_n_tiered(self, thread: JThread, budget: int,
                       stop_depth: int = 0) -> int:
        """The tiered-dispatch loop (``tiered`` and ``compiled``):
        profile-guided closure-to-generated-code promotion.

        Cold methods run the closure inner loop (as
        :meth:`_step_n_closure`) while a hotness score
        accumulates: +1 per driver visit, +``promote_backedge_weight``
        per backward branch observed in the segment.  When the score
        reaches ``promote_after`` (1 under ``compiled``, so every method
        is promoted on its first visit), the method is promoted at its
        next call boundary: codegenned (:mod:`repro.jvm.compiledcode`)
        and run as generated straight-line Python from then on, falling
        back to single-stepped closure slots at non-leader pcs — the
        deopt path for guard failures, spawns, quantum tails, and sliced
        budgets.  A promoted method that stays deopt-free for
        :data:`RECOMPILE_AFTER_VISITS` visits is recompiled once with
        lifted trace caps (:meth:`_recompile_lifted`).

        The generated ``run`` returns ``(k, next_pc)`` with ``k``
        instructions retired; ``-1``/``-2`` sentinels and tick accounting
        follow the closure loop's protocol exactly (``-2`` — the implicit
        end-of-code return — is counted but never ticked).  On an
        exception, ``run`` stores its retired count in the shared
        ``_nout`` cell so a faulting instruction is charged exactly as in
        the other tiers.

        Soundness: closure slots and generated code are counter-identical
        on every program (the parity suite's oracle), so *any* per-method
        interleaving of the two is counter-identical too — hotness only
        decides which tier spends the wall time.  The score itself is
        derived from driver visits, never from ``runtime.ops``, and is
        read by nothing but this loop.
        """
        runtime = self.runtime
        executed = 0
        frames = thread.stack.frames
        ccache = self._ccache
        compiled_for = self._compiled_for
        pycache = self._pycache
        py_for = self._py_compiled_for
        py_cached_for = self._py_cached_for
        probed = self._cache_probed
        hot = self._hotness
        threshold = self._promote_after
        bweight = self._backedge_weight
        pvisits = self._promoted_visits
        deopts = self._deopts
        recompiled = self._recompiled
        nout = self._nout
        unticked = 0
        try:
            while executed < budget and len(frames) > stop_depth:
                frame = frames[-1]
                method = frame.method
                comp = pycache.get(method)
                if comp is None:
                    score = hot.get(method, 0) + 1
                    if score == 1 and method not in probed:
                        # First visit ever: probe the codegen caches once.
                        # The threshold exists to decide whether codegen
                        # pays for itself; a warm cache (bench repeats,
                        # warm pool workers, repeated serve requests)
                        # makes it free, so a hit promotes immediately
                        # instead of re-earning the profile.  Pure
                        # wall-time policy — parity is tier-invariant.
                        probed.add(method)
                        comp = py_cached_for(method)
                        if comp is not None:
                            self.methods_promoted += 1
                    if comp is None and score >= threshold:
                        # Promotion at a call boundary: codegen now and
                        # fall through to the compiled protocol for this
                        # very visit.  The mid-method case (a quantum
                        # tail left pc at a non-leader) is covered by the
                        # closure segment below, exactly like a deopt.
                        comp = py_for(method)
                        hot.pop(method, None)
                        self.methods_promoted += 1
                    elif comp is None:
                        # Cold: closure inner loop + backedge profiling.
                        cm = ccache.get(method) or compiled_for(method)
                        ccode = cm.ccode
                        pc = frame.pc
                        if pc > cm.ilen:
                            # Wild branch past the end: implicit return,
                            # as in every other tier.
                            pc = cm.ilen
                        limit = budget - executed
                        n = 0
                        back = 0
                        try:
                            while n < limit:
                                n += 1
                                prev = pc
                                pc = ccode[pc](frame, thread)
                                if pc < 0:
                                    if pc == -2:
                                        unticked += 1
                                    break
                                if pc <= prev:
                                    back += 1
                        finally:
                            executed += n
                        if pc >= 0:
                            frame.pc = pc
                        if back:
                            score += back * bweight
                        hot[method] = score
                        continue
                # Promoted: generated code plus deopt bookkeeping for the
                # adaptive-cap recompile.  Once the one-shot decision is
                # taken the method is *settled* and every remaining visit
                # skips the bookkeeping — the deopt record has nothing
                # left to gate.
                settled = method in recompiled
                if not settled:
                    v = pvisits.get(method, 0) + 1
                    if v >= self.RECOMPILE_AFTER_VISITS:
                        recompiled.add(method)
                        settled = True
                        pvisits.pop(method, None)
                        if not deopts.get(method):
                            comp = self._recompile_lifted(method)
                    else:
                        pvisits[method] = v
                leaders = comp.leaders
                pc = frame.pc
                if pc in leaders:
                    nout[0] = 0
                    try:
                        k, npc = comp.run(frame, thread, budget - executed,
                                          nout)
                    except BaseException:
                        executed += nout[0]
                        u = nout[1]
                        if u:
                            unticked += u
                            nout[1] = 0
                        raise
                    executed += k
                    u = nout[1]
                    if u:
                        # Implicit returns retired inside threaded calls:
                        # counted in k, excluded from the tick (read and
                        # re-zeroed here so a sync-nested driver never
                        # consumes another level's increments).
                        unticked += u
                        nout[1] = 0
                    if npc == -2:
                        unticked += 1
                        continue
                    if npc < 0:
                        continue
                    frame.pc = npc
                    if not settled and npc not in leaders:
                        # Refusals hand back leader pcs; a non-leader can
                        # only be a guard deopt mid-block.  Recorded for
                        # the recompile decision, never for counters.
                        deopts[method] = deopts.get(method, 0) + 1
                    if executed >= budget:
                        continue
                # Closure-dispatched segment: the deopt path and the
                # quantum tail.  Same inner loop as _step_n_closure plus
                # a block-fit check to hop back into generated code: only
                # break at a leader whose whole block is affordable, so
                # ``run`` is never re-entered just to refuse again.
                cm = comp.closure
                ccode = cm.ccode
                blen = comp.blen
                pc = frame.pc
                if pc > cm.ilen:
                    pc = cm.ilen
                limit = budget - executed
                n = 0
                try:
                    while n < limit:
                        n += 1
                        pc = ccode[pc](frame, thread)
                        if pc < 0:
                            if pc == -2:
                                unticked += 1
                            break
                        if pc in leaders and limit - n >= blen[pc]:
                            break
                finally:
                    executed += n
                if pc >= 0:
                    frame.pc = pc
        finally:
            ticked = executed - unticked
            if ticked:
                runtime.tick(ticked)
        self.instructions_executed += executed
        return executed

    def _step_n_closure(self, thread: JThread, budget: int,
                        stop_depth: int = 0) -> int:
        """The closure-dispatch loop (no periodic-GC trigger): the hot path
        is ``pc = ccode[pc](frame, thread)`` — zero decode, zero per-step
        attribute traffic.

        Tick accounting matches the batched table loop: decoded
        instructions (including a faulting one) tick in one flush per
        quantum; implicit end-of-code returns (the ``-2`` sentinel) are
        executed but never ticked.
        """
        runtime = self.runtime
        executed = 0
        frames = thread.stack.frames
        cache = self._ccache
        compiled_for = self._compiled_for
        unticked = 0
        try:
            while executed < budget and len(frames) > stop_depth:
                frame = frames[-1]
                method = frame.method
                compiled = cache.get(method) or compiled_for(method)
                ccode = compiled.ccode
                pc = frame.pc
                if pc > compiled.ilen:
                    # Wild branch past the end (hand-built code): the other
                    # tiers treat any pc >= len(code) as the implicit return.
                    pc = compiled.ilen
                limit = budget - executed
                n = 0
                try:
                    while n < limit:
                        n += 1
                        pc = ccode[pc](frame, thread)
                        if pc < 0:
                            if pc == -2:
                                unticked += 1
                            break
                finally:
                    executed += n
                if pc >= 0:
                    frame.pc = pc
        finally:
            ticked = executed - unticked
            if ticked:
                runtime.tick(ticked)
        self.instructions_executed += executed
        return executed

    def _step_n_closure_per_op(self, thread: JThread, budget: int,
                               stop_depth: int = 0) -> int:
        """Closure dispatch one instruction at a time: the loop every
        closure-family tier runs when a periodic-GC trigger or heartbeat
        is armed, or when the per-opcode histogram is on.

        Mirrors the table loop's per-instruction ordering exactly — pc
        advanced, ``executed`` charged, ``tick()``, then the instruction —
        so collections trigger at identical instruction boundaries.
        """
        runtime = self.runtime
        executed = 0
        frames = thread.stack.frames
        cache = self._ccache
        compiled_for = self._compiled_for
        counts = self.op_counts
        op_count = bc.OP_COUNT
        while executed < budget and len(frames) > stop_depth:
            frame = frames[-1]
            method = frame.method
            compiled = cache.get(method) or compiled_for(method)
            pc = frame.pc
            if pc >= compiled.ilen:
                # Fell off the end: implicit return void (not ticked).
                self._return(thread, VOID)
                executed += 1
                continue
            frame.pc = pc + 1
            executed += 1
            runtime.tick()
            if counts is not None:
                op = compiled.opmap[pc]
                if 0 <= op < op_count:
                    # Unknown opcodes are not counted (the compiled slot
                    # raises VerifyError below, matching the table loop's
                    # check order).
                    counts[op] += 1
            npc = compiled.ccode[pc](frame, thread)
            if npc >= 0:
                frame.pc = npc
        self.instructions_executed += executed
        return executed

    def opcode_histogram(self) -> Dict[str, int]:
        """Mnemonic -> execution count (``count_opcodes`` runs only)."""
        counts = self.op_counts
        if not counts:
            return {}
        names = bc.OPCODE_NAMES
        return {names[op]: n for op, n in enumerate(counts) if n}

    # ------------------------------------------------------------------

    def _invoke(self, thread: JThread, frame, method: JMethod) -> None:
        nargs = method.nargs
        args = frame.stack[len(frame.stack) - nargs:] if nargs else []
        del frame.stack[len(frame.stack) - nargs:]
        if method.native is not None:
            # Convention: natives return VOID for "no value"; anything else
            # (including None, a legitimate null) is pushed for the caller.
            result = self._run_native(thread, method, args)
            if result is not VOID:
                frame.stack.append(result)
            return
        self._push_frame(thread, method, args)

    def _instanceof(self, obj, cls_name: str) -> int:
        if obj is None:
            return 0
        if not isinstance(obj, Handle):
            return 0
        cls = obj.cls
        while cls is not None:
            if cls.name == cls_name:
                return 1
            cls = cls.superclass
        return 0

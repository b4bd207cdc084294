"""Closure-compiled dispatch.

``RuntimeConfig(dispatch="closure")`` — also the cold and deopt tier of
``tiered`` and ``compiled`` — compiles each method's bytecode once per
runtime, at its first invocation, into a flat list of zero-decode Python
closures: one slot per pc plus a sentinel slot for the implicit
end-of-code return.  Every operand, constant, and runtime
service is pre-bound into closure cells, so the driving loop in
:meth:`~repro.jvm.interpreter.Interpreter._step_n_closure` reduces to::

    pc = ccode[pc](frame, thread)

with no opcode indexing, no ``(op, a, b)`` unpacking, and no per-step
attribute traffic.  A closure returns the next pc, or a negative sentinel:

* ``-1`` — the frame changed (invoke/return): the driving loop re-reads the
  top frame and resumes at its saved ``pc``.
* ``-2`` — the sentinel slot's implicit return fired: like ``-1``, but the
  driving loop must not *tick* this instruction — every tier ticks
  only decoded instructions, never the implicit end-of-code return.

One further technique rides on top, semantics-preserving (the opcode-parity
suite in ``tests/jvm/test_dispatch.py`` is the oracle):

**Quickening.**  ``getstatic``/``putstatic``/``invokestatic``/``new``
resolve their symbolic operand on *first execution*, then overwrite their
own slot in the (mutable) compiled list with a specialized closure holding
the resolved class/method — replacing the table tier's per-interpreter
``_static_refs`` resolution cache with a zero-lookup fast path.
``invokevirtual`` quickens to a monomorphic inline cache keyed on the
receiver's class.  First-execution timing is what makes this sound: an
unreachable bad reference never raises, exactly as in the other tiers, and
a rewrite never changes which runtime services run or in what order — it
only skips the redundant name-to-object resolution that precedes them.
(Like real JVM quickening, this assumes method tables are frozen once a
call site has executed; classes here are append-only at load time.)
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Tuple

from . import bytecode as bc
from .errors import NullPointerError, VerifyError
from .heap import Handle
from .model import JMethod, Program

# Imported lazily by compile_method (interpreter.py imports this module
# from inside its compile hook, so a module-level import would be cycle).
VOID = None
_h_spawn = None
_div_zero = None


def _bind_interpreter_symbols() -> None:
    global VOID, _h_spawn, _div_zero
    if VOID is None:
        from . import interpreter as _interp_mod

        VOID = _interp_mod.VOID
        _h_spawn = _interp_mod._h_spawn
        _div_zero = _interp_mod._div_zero


class QuickeningState:
    """Shared per-(runtime, method) quickening cells.

    Both the closure tier and the compiled tier (:mod:`repro.jvm.
    compiledcode`) speculate on the same resolution results: resolved
    statics/classes/methods for ``getstatic``/``putstatic``/``new``/
    ``invokestatic``, and the monomorphic inline cache for
    ``invokevirtual``.  Keeping the cells *outside* the closures (one
    one-element list per call site) lets either tier's first execution
    feed the other: the closure generic slot resolves and fills the cell,
    the compiled tier's generated code reads the cell behind a guard and
    deopts back to the closure slot while it is still empty.  Resolution
    is not counter-observable (it precedes the same runtime-service calls
    in the same order), so sharing never perturbs parity.
    """

    __slots__ = ("cells", "vcalls")

    def __init__(self) -> None:
        #: pc -> ``[resolved-or-None]``: ``statics.get`` for getstatic,
        #: the JClass for putstatic/new, the JMethod for invokestatic.
        self.cells: dict = {}
        #: pc -> ``([cache_cls], [cache_method])`` for invokevirtual.
        self.vcalls: dict = {}

    def cell(self, pc: int) -> list:
        cell = self.cells.get(pc)
        if cell is None:
            cell = self.cells[pc] = [None]
        return cell

    def vcall(self, pc: int) -> Tuple[list, list]:
        pair = self.vcalls.get(pc)
        if pair is None:
            pair = self.vcalls[pc] = ([None], [None])
        return pair


class CompiledMethod(NamedTuple):
    """One method's compiled form (per-runtime, cached by the interpreter)."""

    #: pc -> closure; ``len(code) + 1`` slots (the last is the implicit
    #: return sentinel).  A mutable list: quickening rewrites slots in place.
    ccode: List[Callable]
    #: pc -> opcode, for the per-opcode histogram loops (counting mode).
    opmap: Tuple[int, ...]
    #: ``len(method.code)`` — the sentinel slot's index.
    ilen: int
    #: Shared quickening cells (see :class:`QuickeningState`); the compiled
    #: tier's codegen reads these as speculative constants behind guards.
    quick: QuickeningState


def compile_method(interp, method: JMethod) -> CompiledMethod:
    """Compile ``method`` into a :class:`CompiledMethod` for ``interp``.

    Closures bind the interpreter's runtime services, so compiled code is
    per-runtime (the interpreter caches it keyed by method identity).
    """
    _bind_interpreter_symbols()
    runtime = interp.runtime
    code = method.code
    ilen = len(code)
    quick = QuickeningState()
    ccode: List[Callable] = [None] * (ilen + 1)
    for pc, (op, a, b) in enumerate(code):
        ccode[pc] = _compile_one(interp, runtime, ccode, quick, pc, op, a, b)
    ccode[ilen] = _make_implicit_return(interp)
    opmap = tuple(op for op, _, _ in code)
    return CompiledMethod(ccode, opmap, ilen, quick)


# ---------------------------------------------------------------------------
# Per-opcode closure factories
#
# Each branch returns a closure ``(frame, thread) -> next_pc`` reproducing
# the table handler's semantics exactly: same runtime-service calls in the
# same order, same error types and messages, same stack discipline.  Checks
# the table tier performs per execution either stay per execution or are
# provably invariant for the bound operands (noted inline).
# ---------------------------------------------------------------------------


def _compile_one(interp, runtime, ccode, quick, pc, op, a, b) -> Callable:
    nxt = pc + 1

    if op == bc.CONST:
        def op_const(frame, thread):
            frame.stack.append(a)
            return nxt
        return op_const

    if op == bc.LOAD:
        def op_load(frame, thread):
            frame.stack.append(frame.locals[a])
            return nxt
        return op_load

    if op == bc.STORE:
        def op_store(frame, thread):
            frame.locals[a] = frame.stack.pop()
            return nxt
        return op_store

    if op == bc.ACONST_NULL:
        def op_null(frame, thread):
            frame.stack.append(None)
            return nxt
        return op_null

    if op == bc.LDC_STR:
        new_string = runtime.new_string

        def op_ldc(frame, thread):
            frame.stack.append(new_string(a, thread))
            return nxt
        return op_ldc

    if op == bc.IINC:
        def op_iinc(frame, thread):
            frame.locals[a] += b
            return nxt
        return op_iinc

    if op == bc.DUP:
        def op_dup(frame, thread):
            stack = frame.stack
            stack.append(stack[-1])
            return nxt
        return op_dup

    if op == bc.POP:
        def op_pop(frame, thread):
            frame.stack.pop()
            return nxt
        return op_pop

    if op == bc.SWAP:
        def op_swap(frame, thread):
            stack = frame.stack
            stack[-1], stack[-2] = stack[-2], stack[-1]
            return nxt
        return op_swap

    if op == bc.NEW:
        # Quickened: the class-name lookup happens on first execution (so a
        # never-executed bad operand never raises, as in the other tiers),
        # then the slot is rewritten with the resolved JClass bound in.
        # The shared cell lets the compiled tier pick the class up too.
        allocate = runtime.allocate
        lookup = runtime.program.lookup
        cell = quick.cell(pc)

        def op_new_generic(frame, thread):
            cls = cell[0] = lookup(a)

            def op_new(frame, thread):
                frame.stack.append(allocate(cls, thread))
                return nxt
            ccode[pc] = op_new
            return op_new(frame, thread)
        return op_new_generic

    if op == bc.NEWARRAY:
        # The array pseudo-class is created by Program.__init__ and cannot
        # be redefined, so binding it at compile time is invariant.
        allocate = runtime.allocate
        array_cls = runtime.program.classes[Program.ARRAY]

        def op_newarray(frame, thread):
            stack = frame.stack
            stack[-1] = allocate(array_cls, thread, length=stack[-1])
            return nxt
        return op_newarray

    if op == bc.GETFIELD:
        load_field = runtime.load_field

        def op_getfield(frame, thread):
            stack = frame.stack
            obj = stack.pop()
            if obj is None:
                raise NullPointerError(f"getfield {a} on null")
            stack.append(load_field(obj, a, thread))
            return nxt
        return op_getfield

    if op == bc.PUTFIELD:
        store_field = runtime.store_field

        def op_putfield(frame, thread):
            stack = frame.stack
            value = stack.pop()
            obj = stack.pop()
            if obj is None:
                raise NullPointerError(f"putfield {a} on null")
            store_field(obj, a, value, thread)
            return nxt
        return op_putfield

    if op == bc.GETSTATIC:
        return _q_getstatic(runtime, ccode, quick, pc, a, nxt)

    if op == bc.PUTSTATIC:
        return _q_putstatic(runtime, ccode, quick, pc, a, nxt)

    if op == bc.AALOAD:
        load_element = runtime.load_element

        def op_aaload(frame, thread):
            stack = frame.stack
            index = stack.pop()
            array = stack.pop()
            if array is None:
                raise NullPointerError("aaload on null array")
            stack.append(load_element(array, index, thread))
            return nxt
        return op_aaload

    if op == bc.AASTORE:
        store_element = runtime.store_element

        def op_aastore(frame, thread):
            stack = frame.stack
            value = stack.pop()
            index = stack.pop()
            array = stack.pop()
            if array is None:
                raise NullPointerError("aastore on null array")
            store_element(array, index, value, thread)
            return nxt
        return op_aastore

    if op == bc.ARRAYLENGTH:
        access = runtime.access

        def op_arraylength(frame, thread):
            stack = frame.stack
            array = stack.pop()
            if array is None:
                raise NullPointerError("arraylength on null")
            access(array, thread)
            stack.append(array.length)
            return nxt
        return op_arraylength

    if op == bc.INSTANCEOF:
        instanceof = interp._instanceof

        def op_instanceof(frame, thread):
            stack = frame.stack
            stack[-1] = instanceof(stack[-1], a)
            return nxt
        return op_instanceof

    if op == bc.INTERN:
        access = runtime.access
        intern = runtime.intern

        def op_intern(frame, thread):
            stack = frame.stack
            string = stack.pop()
            if string is None:
                raise NullPointerError("intern on null")
            access(string, thread)
            stack.append(intern(string))
            return nxt
        return op_intern

    if op == bc.INVOKESTATIC:
        return _q_invokestatic(interp, ccode, quick, pc, a, nxt)

    if op == bc.INVOKEVIRTUAL:
        return _q_invokevirtual(interp, runtime, quick, pc, a, b, nxt)

    if op == bc.RETURN:
        _return = interp._return
        void = VOID

        def op_return(frame, thread):
            _return(thread, void)
            return -1
        return op_return

    if op == bc.RETVAL:
        _return = interp._return
        return_reference = runtime.return_reference

        def op_retval(frame, thread):
            value = frame.stack.pop()
            if isinstance(value, Handle):
                return_reference(value, thread)
            _return(thread, value)
            return -1
        return op_retval

    if op == bc.SPAWN:
        spawn = _h_spawn

        def op_spawn(frame, thread):
            spawn(interp, runtime, thread, frame, a, b)
            return nxt
        return op_spawn

    if op == bc.ADD:
        def op_add(frame, thread):
            stack = frame.stack
            y = stack.pop()
            stack[-1] = stack[-1] + y
            return nxt
        return op_add

    if op == bc.SUB:
        def op_sub(frame, thread):
            stack = frame.stack
            y = stack.pop()
            stack[-1] = stack[-1] - y
            return nxt
        return op_sub

    if op == bc.MUL:
        def op_mul(frame, thread):
            stack = frame.stack
            y = stack.pop()
            stack[-1] = stack[-1] * y
            return nxt
        return op_mul

    if op == bc.DIV:
        div_zero = _div_zero

        def op_div(frame, thread):
            stack = frame.stack
            y = stack.pop()
            x = stack.pop()
            if isinstance(x, int) and isinstance(y, int):
                stack.append(int(x / y) if y != 0 else div_zero())
            else:
                stack.append(x / y)
            return nxt
        return op_div

    if op == bc.MOD:
        div_zero = _div_zero

        def op_mod(frame, thread):
            stack = frame.stack
            y = stack.pop()
            x = stack.pop()
            stack.append(x - int(x / y) * y if y != 0 else div_zero())
            return nxt
        return op_mod

    if op == bc.NEG:
        def op_neg(frame, thread):
            stack = frame.stack
            stack[-1] = -stack[-1]
            return nxt
        return op_neg

    if op == bc.GOTO:
        def op_goto(frame, thread):
            return a
        return op_goto

    if op == bc.IFZERO:
        def op_ifzero(frame, thread):
            return a if frame.stack.pop() == 0 else nxt
        return op_ifzero

    if op == bc.IFNZERO:
        def op_ifnzero(frame, thread):
            return a if frame.stack.pop() != 0 else nxt
        return op_ifnzero

    if op == bc.IFNULL:
        def op_ifnull(frame, thread):
            return a if frame.stack.pop() is None else nxt
        return op_ifnull

    if op == bc.IFNONNULL:
        def op_ifnonnull(frame, thread):
            return a if frame.stack.pop() is not None else nxt
        return op_ifnonnull

    if op == bc.IF_ICMPEQ:
        def op_icmpeq(frame, thread):
            stack = frame.stack
            y = stack.pop()
            return a if stack.pop() == y else nxt
        return op_icmpeq

    if op == bc.IF_ICMPNE:
        def op_icmpne(frame, thread):
            stack = frame.stack
            y = stack.pop()
            return a if stack.pop() != y else nxt
        return op_icmpne

    if op == bc.IF_ICMPLT:
        def op_icmplt(frame, thread):
            stack = frame.stack
            y = stack.pop()
            return a if stack.pop() < y else nxt
        return op_icmplt

    if op == bc.IF_ICMPLE:
        def op_icmple(frame, thread):
            stack = frame.stack
            y = stack.pop()
            return a if stack.pop() <= y else nxt
        return op_icmple

    if op == bc.IF_ICMPGT:
        def op_icmpgt(frame, thread):
            stack = frame.stack
            y = stack.pop()
            return a if stack.pop() > y else nxt
        return op_icmpgt

    if op == bc.IF_ICMPGE:
        def op_icmpge(frame, thread):
            stack = frame.stack
            y = stack.pop()
            return a if stack.pop() >= y else nxt
        return op_icmpge

    if op == bc.IF_ACMPEQ:
        def op_acmpeq(frame, thread):
            stack = frame.stack
            y = stack.pop()
            return a if stack.pop() is y else nxt
        return op_acmpeq

    if op == bc.IF_ACMPNE:
        def op_acmpne(frame, thread):
            stack = frame.stack
            y = stack.pop()
            return a if stack.pop() is not y else nxt
        return op_acmpne

    # Unknown opcode: raise with first-execution timing, like both other
    # tiers — a method containing an unreachable bad opcode must still run.
    def op_unknown(frame, thread):
        raise VerifyError(f"unknown opcode {op}")
    return op_unknown


def _make_implicit_return(interp) -> Callable:
    """The sentinel slot at ``pc == len(code)``: implicit return void.

    Counted against the budget (like the other tiers) but reported with
    ``-2`` so the driving loop excludes it from ``runtime.tick`` — only
    decoded instructions tick.
    """
    _return = interp._return
    void = VOID

    def op_implicit_return(frame, thread):
        _return(thread, void)
        return -2
    return op_implicit_return


# ---------------------------------------------------------------------------
# Quickening closures
# ---------------------------------------------------------------------------


def _split_static_ref(operand) -> Tuple[str, str]:
    # The assembler pre-splits to a (class, field) tuple; hand-built code
    # may still carry legacy "Class.field" strings.
    if type(operand) is tuple:
        return operand
    return tuple(operand.rsplit(".", 1))


def _q_getstatic(runtime, ccode, quick, pc, operand, nxt) -> Callable:
    lookup = runtime.program.lookup
    cls_name, field = _split_static_ref(operand)
    cell = quick.cell(pc)

    def op_getstatic_generic(frame, thread):
        cls = lookup(cls_name)
        # runtime.load_static is a plain table.get; binding the class's
        # (identity-stable, mutated-in-place) statics dict keeps the
        # semantics while dropping both the lookup and the call.
        statics_get = cell[0] = cls.statics.get

        def op_getstatic(frame, thread):
            frame.stack.append(statics_get(field))
            return nxt
        ccode[pc] = op_getstatic
        return op_getstatic(frame, thread)
    return op_getstatic_generic


def _q_putstatic(runtime, ccode, quick, pc, operand, nxt) -> Callable:
    lookup = runtime.program.lookup
    store_static = runtime.store_static
    cls_name, field = _split_static_ref(operand)
    cell = quick.cell(pc)

    def op_putstatic_generic(frame, thread):
        cls = cell[0] = lookup(cls_name)

        def op_putstatic(frame, thread):
            # Must stay a runtime.store_static call: putstatic is a CG
            # event (pin to frame 0 / putstatic_events counter).
            store_static(field, frame.stack.pop(), cls)
            return nxt
        ccode[pc] = op_putstatic
        return op_putstatic(frame, thread)
    return op_putstatic_generic


def _q_invokestatic(interp, ccode, quick, pc, qualified, nxt) -> Callable:
    resolve = interp.runtime.program.resolve
    invoke = interp._invoke
    cell = quick.cell(pc)

    def op_invokestatic_generic(frame, thread):
        method = cell[0] = resolve(qualified)

        def op_invokestatic(frame, thread):
            frame.pc = nxt
            invoke(thread, frame, method)
            return -1
        ccode[pc] = op_invokestatic
        return op_invokestatic(frame, thread)
    return op_invokestatic_generic


def _q_invokevirtual(interp, runtime, quick, pc, name, nargs, nxt) -> Callable:
    access = runtime.access
    invoke = interp._invoke
    if nargs < 1:
        def op_invokevirtual_bad(frame, thread):
            raise VerifyError("invokevirtual needs a receiver")
        return op_invokevirtual_bad

    # Monomorphic inline cache: receiver class -> resolved method.  The
    # nargs check runs on every cache fill; a hit reuses a (class, method)
    # pair that already passed it, so the table tier's per-execution check
    # is preserved in effect.  The cells live in the shared QuickeningState
    # so the compiled tier can guard on the same cache.
    cache_cls, cache_method = quick.vcall(pc)

    def op_invokevirtual(frame, thread):
        receiver = frame.stack[-nargs]
        if receiver is None:
            raise NullPointerError(f"invokevirtual {name} on null")
        access(receiver, thread)
        cls = receiver.cls
        if cls is cache_cls[0]:
            method = cache_method[0]
        else:
            method = cls.resolve_method(name)
            if method.nargs != nargs:
                raise VerifyError(
                    f"{method.qualified_name} takes "
                    f"{method.nargs} args, call site passes {nargs}"
                )
            cache_cls[0] = cls
            cache_method[0] = method
        frame.pc = nxt
        invoke(thread, frame, method)
        return -1
    return op_invokevirtual

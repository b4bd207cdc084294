"""Dispatch parity: table vs closure vs compiled vs tiered.

The interpreter ships four dispatch tiers: the opcode-indexed handler
table (``dispatch="table"``, the reference implementation), the
closure-compiled tier (``"closure"``) with quickening, the tiered tier
(``"tiered"``, the default) that starts every method on the closure tier
and promotes it at a call boundary, once a hotness counter crosses
``promote_after``, to generated Python source that deopts to closure
slots at guard failures and quantum tails, and the compiled tier
(``"compiled"``): tiered, promoted on first visit.  These tests run the
same programs under all four and require identical results, instruction
counts, and VM state — and the parity corpus must collectively exercise
*every* opcode, so a new opcode cannot be added to one tier and
forgotten in the others.

The closure tier gets extra scrutiny: quickening must rewrite slots in
place without changing observable behaviour, and no instruction may skid
across a scheduler quantum, however small.  The compiled tier gets its
own: deopt mid-block, deopt at a quantum boundary, and generated-code
reuse across invocations must all be invisible.  A last table pins which
step loop each dispatch value installs.
"""

import pytest

from repro import CGPolicy, Runtime, RuntimeConfig, assemble
from repro.api import config_for
from repro.jvm import bytecode as bc
from repro.jvm.interpreter import Interpreter
from repro.jvm.errors import VerifyError
from repro.workloads.base import get_workload

DISPATCHES = ("table", "closure", "compiled", "tiered")

MAIN = "class Main\nmethod Main.main(0)\n"

#: Each program is (source, entry_args, expected_result).  Together they
#: must cover the full opcode set (checked by test_corpus_covers_every_opcode).
PARITY_PROGRAMS = [
    # const/store/load/iinc/add/sub/mul/div/mod/neg/dup/pop/swap/goto/retval
    (
        MAIN
        + "    const 10\n    store 0\n    load 0\n    const 3\n    sub\n"
        + "    const 5\n    add\n    const 2\n    mul\n    const 4\n    div\n    const 100\n"
        + "    swap\n    pop\n    dup\n    pop\n    neg\n    store 1\n"
        + "    iinc 1 50\n    goto end\n    const -999\nend:\n"
        + "    load 1\n    const 7\n    mod\n    retval\n",
        [],
        -1,  # Java mod keeps the dividend sign: (-100 + 50) mod 7
    ),
    # all integer conditionals + ifzero/ifnzero
    (
        MAIN
        + "    const 0\n    store 0\n"
        + "    const 1\n    const 2\n    if_icmplt a\n    goto fail\n"
        + "a:\n    const 2\n    const 2\n    if_icmple b\n    goto fail\n"
        + "b:\n    const 3\n    const 2\n    if_icmpgt c\n    goto fail\n"
        + "c:\n    const 2\n    const 2\n    if_icmpge d\n    goto fail\n"
        + "d:\n    const 5\n    const 5\n    if_icmpeq e\n    goto fail\n"
        + "e:\n    const 5\n    const 6\n    if_icmpne f\n    goto fail\n"
        + "f:\n    const 0\n    ifzero g\n    goto fail\n"
        + "g:\n    const 9\n    ifnzero ok\n    goto fail\n"
        + "fail:\n    const 0\n    retval\n"
        + "ok:\n    const 1\n    retval\n",
        [],
        1,
    ),
    # heap opcodes: new/newarray/putfield/getfield/aastore/aaload/arraylength
    # + reference conditionals + aconst_null + instanceof + return/implicit
    (
        "class Node\nfield next\n"
        + MAIN
        + "    new Node\n    store 0\n"
        + "    load 0\n    instanceof Node\n    ifnzero t1\n"
        + "    const 0\n    retval\nt1:\n"
        + "    aconst_null\n    ifnull t2\n    const 0\n    retval\nt2:\n"
        + "    load 0\n    ifnonnull t3\n    const 0\n    retval\nt3:\n"
        + "    load 0\n    load 0\n    if_acmpeq t4\n    const 0\n    retval\n"
        + "t4:\n    load 0\n    aconst_null\n    if_acmpne t5\n"
        + "    const 0\n    retval\nt5:\n"
        + "    const 3\n    newarray\n    store 1\n"
        + "    load 1\n    const 0\n    load 0\n    aastore\n"
        + "    load 1\n    const 0\n    aaload\n    const 41\n"
        + "    invokestatic Main.wrap\n    getfield next\n    pop\n"
        + "    load 1\n    arraylength\n    retval\n"
        + "method Main.wrap(2)\n"
        + "    load 0\n    load 1\n    putfield next\n    load 0\n    retval\n"
        + "method Main.unused(0)\n    return\n",
        [],
        3,
    ),
    # statics, strings, virtual calls, spawn
    (
        "class Config\nstatic limit\n"
        + "class Worker\nfield tag\n"
        + "method Worker.poke(1)\n"
        + "    load 0\n    getfield tag\n    pop\n    return\n"
        + "method Worker.answer(1)\n    const 42\n    retval\n"
        + MAIN
        + "    const 99\n    putstatic Config.limit\n"
        + '    ldc_str "hello"\n    intern\n    pop\n'
        + "    new Worker\n    store 0\n"
        + "    load 0\n    spawn poke 1\n"
        + "    load 0\n    invokevirtual answer 1\n"
        + "    getstatic Config.limit\n    sub\n    retval\n",
        [],
        42 - 99,
    ),
]


def run_one(source, args, dispatch, **config_kwargs):
    config_kwargs.setdefault("cg", CGPolicy(paranoid=True))
    program = assemble(source)
    rt = Runtime(RuntimeConfig(dispatch=dispatch, **config_kwargs),
                 program=program)
    result = rt.run("Main.main", list(args))
    return result, rt


def snapshot(rt):
    state = [
        rt.interpreter.instructions_executed,
        rt.ops,
        rt.heap.occupancy(),
    ]
    if rt.collector is not None:
        state.append(rt.collector.stats)
        state.append(rt.collector.final_census())
    return tuple(state)


def assert_parity(source, args, expected, **config_kwargs):
    snapshots = {}
    for dispatch in DISPATCHES:
        result, rt = run_one(source, args, dispatch, **config_kwargs)
        assert result == expected, f"{dispatch}: {result} != {expected}"
        snapshots[dispatch] = snapshot(rt)
    reference = snapshots[DISPATCHES[0]]
    for dispatch in DISPATCHES[1:]:
        assert snapshots[dispatch] == reference, dispatch


class TestOpcodeParity:
    @pytest.mark.parametrize("idx", range(len(PARITY_PROGRAMS)))
    def test_program_parity(self, idx):
        source, args, expected = PARITY_PROGRAMS[idx]
        assert_parity(source, args, expected)

    def test_parity_under_periodic_gc(self):
        # gc_period_ops forces the per-instruction tick paths (no
        # batching), and periodic collections mid-program.
        source, args, expected = PARITY_PROGRAMS[2]
        assert_parity(source, args, expected, gc_period_ops=7,
                      heap_words=4096)

    def test_corpus_covers_every_opcode(self):
        seen = set()
        for source, _, _ in PARITY_PROGRAMS:
            program = assemble(source)
            for cls in program.classes.values():
                for method in cls.methods.values():
                    for op, _, _ in method.code:
                        seen.add(op)
        missing = [bc.OPCODE_NAMES[op] for op in range(bc.OP_COUNT)
                   if op not in seen]
        assert not missing, f"parity corpus never exercises: {missing}"

    def test_unknown_opcode_every_dispatch(self):
        for dispatch in DISPATCHES:
            program = assemble(MAIN + "    const 1\n    retval\n")
            method = program.lookup("Main").methods["main"]
            method.code[0] = (bc.OP_COUNT + 5, None, None)
            rt = Runtime(RuntimeConfig(dispatch=dispatch), program=program)
            with pytest.raises(VerifyError, match="unknown opcode"):
                rt.run("Main.main", [])


QUICKEN_SOURCE = (
    "class Config\nstatic limit\n"
    + "class Worker\n"
    + "method Worker.answer(1)\n    const 21\n    retval\n"
    + "method Main.twice(1)\n    load 0\n    const 2\n    mul\n    retval\n"
    + MAIN
    + "    const 7\n    putstatic Config.limit\n"
    + "    new Worker\n"
    + "    invokevirtual answer 1\n"
    + "    invokestatic Main.twice\n"
    + "    getstatic Config.limit\n"
    + "    sub\n    retval\n"
)


class TestQuickening:
    """First execution rewrites a slot with its specialized closure."""

    def test_slots_rewritten_after_first_execution(self):
        result, rt = run_one(QUICKEN_SOURCE, [], "closure")
        assert result == 42 - 7
        method = rt.program.lookup("Main").methods["main"]
        compiled = rt.interpreter._ccache[method]
        quickened = {bc.GETSTATIC: "op_getstatic",
                     bc.PUTSTATIC: "op_putstatic",
                     bc.INVOKESTATIC: "op_invokestatic",
                     bc.NEW: "op_new"}
        for pc, (op, _, _) in enumerate(method.code):
            want = quickened.get(op)
            if want is None:
                continue
            got = compiled.ccode[pc].__name__
            assert got == want, (
                f"pc {pc} ({bc.OPCODE_NAMES[op]}) still generic: {got}"
            )
            assert not got.endswith("_generic")

    def test_rerun_reuses_quickened_code(self):
        # Second invocation goes straight through the rewritten slots and
        # must produce the same answer (the cache is per-method identity).
        program = assemble(QUICKEN_SOURCE)
        rt = Runtime(RuntimeConfig(dispatch="closure"), program=program)
        first = rt.run("Main.main", [])
        method = rt.program.lookup("Main").methods["main"]
        compiled = rt.interpreter._ccache[method]
        slots_after_first = list(compiled.ccode)
        second = rt.run("Main.main", [])
        assert first == second == 35
        # No re-quickening churn: the slots are stable after one pass.
        assert list(compiled.ccode) == slots_after_first

    def test_unreachable_bad_reference_never_raises(self):
        # Resolution happens at first *execution*, not at compile time, so
        # a dead getstatic naming a missing class must stay harmless.
        source = (
            MAIN
            + "    goto ok\n"
            + "    getstatic NoSuchClass.field\n"
            + "ok:\n    const 5\n    retval\n"
        )
        for dispatch in DISPATCHES:
            result, _ = run_one(source, [], dispatch)
            assert result == 5


PAIRED_LOOP = (
    "class Pair\nfield a\nfield b\n"
    + MAIN
    + "    new Pair\n    store 0\n"
    + "    load 0\n    const 11\n    putfield a\n"
    + "    load 0\n    const 31\n    putfield b\n"
    + "    const 0\n    store 1\n"
    + "    const 0\n    store 2\n"
    + "loop:\n"
    + "    load 1\n    const 200\n    if_icmpge done\n"
    # load+getfield, const+add, load+load: hot adjacent pairs, so small
    # quanta split the loop body between the two halves of each.
    + "    load 0\n    getfield a\n"
    + "    load 2\n    add\n"
    + "    const 3\n    add\n"
    + "    store 2\n"
    + "    load 0\n    load 0\n    if_acmpeq same\n"
    + "same:\n"
    + "    iinc 1 1\n    goto loop\n"
    + "done:\n"
    + "    load 2\n    retval\n"
)

PAIRED_EXPECTED = 200 * (11 + 3)


class TestSuperinstructions:
    """Quantum splits inside instruction pairs (the shapes a
    superinstruction pass would fuse) never skid: every tier charges and
    interleaves one instruction at a time."""

    @pytest.mark.parametrize("quantum", [1, 2, 3, 7, 100])
    def test_quantum_split_never_skids(self, quantum):
        # Whatever the quantum, every tier agrees with table bit for bit.
        assert_parity(PAIRED_LOOP, [], PAIRED_EXPECTED, quantum=quantum)

    def test_quantum_split_with_threads(self):
        # Round-robin across a spawned allocator thread: the quantum
        # boundary now also decides interleaving, so any skid past a
        # pair would shift CG events between threads.
        source = (
            "class Node\nfield next\n"
            + "class Worker\n"
            + "method Worker.churn(2)\n"
            + "    const 0\n    store 2\n"
            + "wloop:\n"
            + "    load 2\n    load 1\n    if_icmpge wdone\n"
            + "    new Node\n    pop\n"
            + "    iinc 2 1\n    goto wloop\n"
            + "wdone:\n    return\n"
            + MAIN
            + "    new Worker\n    const 40\n    spawn churn 2\n"
            + "    const 0\n    store 0\n"
            + "    const 0\n    store 1\n"
            + "loop:\n"
            + "    load 0\n    const 150\n    if_icmpge done\n"
            + "    load 1\n    const 2\n    add\n    store 1\n"
            + "    iinc 0 1\n    goto loop\n"
            + "done:\n    load 1\n    retval\n"
        )
        assert_parity(source, [], 300, quantum=7, heap_words=4096)


class TestWorkloadDifferential:
    """Full workloads under all dispatch configs must agree exactly."""

    @pytest.mark.parametrize("name", ["jess", "raytrace"])
    def test_workload_identical(self, name):
        snapshots = {}
        for dispatch in DISPATCHES:
            wl = get_workload(name, seed=2000)
            config = config_for("cg", wl.heap_words(1))
            config.dispatch = dispatch
            rt = Runtime(config)
            wl.execute(rt, 1)
            snapshots[dispatch] = (
                rt.collector.stats,
                rt.collector.final_census(),
                rt.interpreter.instructions_executed,
                rt.heap.occupancy(),
                rt.ops,
            )
        for dispatch in DISPATCHES[1:]:
            assert snapshots[dispatch] == snapshots["table"], dispatch

    @pytest.mark.parametrize(
        "name", ["bc-arith", "bc-list", "bc-calls", "bc-loop"])
    def test_bytecode_workload_identical(self, name):
        # The bc-* workloads are pure assembled bytecode, so every executed
        # instruction flows through the dispatch loop under test.
        snapshots = {}
        for dispatch in DISPATCHES:
            wl = get_workload(name, seed=2000)
            config = config_for("cg", wl.heap_words(1))
            config.dispatch = dispatch
            rt = Runtime(config)
            wl.execute(rt, 1)
            snapshots[dispatch] = (
                rt.collector.stats,
                rt.collector.final_census(),
                rt.interpreter.instructions_executed,
                rt.heap.occupancy(),
                rt.ops,
            )
        for dispatch in DISPATCHES[1:]:
            assert snapshots[dispatch] == snapshots["table"], dispatch


POLY_SOURCE = (
    # Two unrelated receiver classes at one invokevirtual site: the
    # compiled tier's monomorphic class guard fails on every other call,
    # deopting to the closure slots mid-block at the current pc.
    "class Square\n"
    + "method Square.area(1)\n    const 4\n    retval\n"
    + "class Circle\n"
    + "method Circle.area(1)\n    const 3\n    retval\n"
    + MAIN
    + "    new Square\n    store 2\n"
    + "    new Circle\n    store 3\n"
    + "    const 0\n    store 0\n"
    + "    const 0\n    store 1\n"
    + "loop:\n"
    + "    load 0\n    const 60\n    if_icmpge done\n"
    + "    load 0\n    const 2\n    mod\n    ifzero even\n"
    + "    load 3\n    goto call\n"
    + "even:\n    load 2\n"
    + "call:\n    invokevirtual area 1\n"
    + "    load 1\n    add\n    store 1\n"
    + "    iinc 0 1\n    goto loop\n"
    + "done:\n    load 1\n    retval\n"
)

POLY_EXPECTED = 30 * 4 + 30 * 3


class TestCompiledDeopt:
    """Guard failures and quantum tails must be invisible in the results."""

    def test_polymorphic_guard_deopt_mid_block(self):
        # The call site alternates Square/Circle, so whichever class the
        # site quickens to, half the calls fail the guard and finish the
        # block on the closure tier.  All four tiers still agree exactly.
        assert_parity(POLY_SOURCE, [], POLY_EXPECTED)

    def test_deopt_site_stays_on_generated_code(self):
        # A failed guard deopts *that execution*, not the method: the
        # cached PyCompiledMethod must survive the polymorphic site.
        result, rt = run_one(POLY_SOURCE, [], "compiled")
        assert result == POLY_EXPECTED
        method = rt.program.lookup("Main").methods["main"]
        assert method in rt.interpreter._pycache
        comp = rt.interpreter._pycache[method]
        assert rt.run("Main.main", []) == POLY_EXPECTED
        assert rt.interpreter._pycache[method] is comp

    @pytest.mark.parametrize("quantum", [1, 2, 3, 7])
    def test_guard_deopt_at_quantum_boundary(self, quantum):
        # Tiny quanta force the driver's closure tail at nearly every
        # block boundary, so deopted instructions and generated-code
        # instructions interleave within a single slice.  Tick totals and
        # heap state still match the table tier bit for bit.
        assert_parity(POLY_SOURCE, [], POLY_EXPECTED, quantum=quantum)

    def test_deopt_at_fused_pair_boundary(self):
        # A quantum of 1 deopts generated code to the closure slots between
        # the two halves of every adjacent pair; none may skid.
        assert_parity(PAIRED_LOOP, [], PAIRED_EXPECTED, quantum=1)

    def test_codegen_cache_shared_across_runtimes(self):
        # Identical bytecode in a fresh runtime reuses the cached
        # generated source and code object; only the quickening-cell
        # bindings are rebuilt per runtime.
        result1, rt1 = run_one(POLY_SOURCE, [], "compiled")
        m1 = rt1.program.lookup("Main").methods["main"]
        comp1 = rt1.interpreter._pycache[m1]
        result2, rt2 = run_one(POLY_SOURCE, [], "compiled")
        m2 = rt2.program.lookup("Main").methods["main"]
        comp2 = rt2.interpreter._pycache[m2]
        assert result1 == result2 == POLY_EXPECTED
        assert comp2.source is comp1.source  # cache hit, not a regen
        assert comp2.run.__code__ is comp1.run.__code__
        assert comp2.run is not comp1.run  # bindings are per-runtime


HOT_LOOP = (
    MAIN
    + "    const 0\n    store 0\n"
    + "    const 0\n    store 1\n"
    + "loop:\n"
    + "    load 0\n    const 120\n    if_icmpge done\n"
    + "    load 0\n    invokestatic Main.step\n"
    + "    load 1\n    add\n    store 1\n"
    + "    iinc 0 1\n    goto loop\n"
    + "done:\n    load 1\n    retval\n"
    + "method Main.step(1)\n"
    + "    load 0\n    const 2\n    mul\n    retval\n"
)

HOT_EXPECTED = sum(2 * i for i in range(120))


class TestTieredPromotion:
    """Promotion timing is a performance decision, never a semantic one."""

    @pytest.mark.parametrize("promote_after", [1, 2, 5, 16, 1_000_000])
    def test_promotion_boundary_parity(self, promote_after):
        # Sweep the threshold across "promote on first visit", "promote
        # mid-run", and "never promote": counters must be bit-identical
        # to the table tier at every boundary.
        ref_result, ref_rt = run_one(HOT_LOOP, [], "table")
        assert ref_result == HOT_EXPECTED
        result, rt = run_one(HOT_LOOP, [], "tiered",
                             promote_after=promote_after)
        assert result == HOT_EXPECTED
        assert snapshot(rt) == snapshot(ref_rt), promote_after

    def test_hot_methods_actually_promote(self):
        result, rt = run_one(HOT_LOOP, [], "tiered", promote_after=4)
        assert result == HOT_EXPECTED
        interp = rt.interpreter
        assert interp.methods_promoted > 0
        # Promoted methods live in the compiled-tier cache; the callee
        # Main.step is called 120 times so it must be among them.
        step = rt.program.lookup("Main").methods["step"]
        assert step in interp._pycache

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_compiled_promotes_every_method_on_first_visit(self, cache):
        # ``compiled`` is tiered with a promotion threshold of 1, whatever
        # promote_after says: each executed bytecode method is promoted
        # at its first driver visit (by codegen when cold, by the cache
        # probe when warm), so no hotness profile survives the run.
        from repro.jvm.compiledcode import clear_codegen_caches

        clear_codegen_caches()
        if cache == "warm":
            run_one(HOT_LOOP, [], "compiled")
        result, rt = run_one(HOT_LOOP, [], "compiled",
                             promote_after=1_000_000)
        assert result == HOT_EXPECTED
        interp = rt.interpreter
        visited = {m.qualified_name for m in interp._ccache}
        assert visited == {"Main.main", "Main.step"}
        assert interp.methods_promoted == len(visited)
        assert {m.qualified_name for m in interp._pycache} == visited
        assert not interp._hotness
        if cache == "cold":
            assert interp.methods_codegenned >= len(visited)
        else:
            assert interp.methods_codegenned == 0

    def test_cold_run_never_promotes(self):
        # "Cold" means cold caches too: a warm codegen cache would
        # short-circuit the threshold (promotion is free on a hit), so
        # drop it to observe the pure profile-gated behaviour.
        from repro.jvm.compiledcode import clear_codegen_caches

        clear_codegen_caches()
        result, rt = run_one(HOT_LOOP, [], "tiered", promote_after=1_000_000)
        assert result == HOT_EXPECTED
        interp = rt.interpreter
        assert interp.methods_promoted == 0
        assert not interp._pycache

    def test_warm_cache_promotes_on_first_visit(self):
        # A prior run leaves the generated form in the cross-runtime
        # codegen cache; a fresh tiered runtime then promotes at each
        # method's first driver visit — no re-profiling, no codegen —
        # with counters identical to the cold run.
        cold_result, cold_rt = run_one(HOT_LOOP, [], "tiered",
                                       promote_after=4)
        result, rt = run_one(HOT_LOOP, [], "tiered",
                             promote_after=1_000_000)
        assert result == cold_result == HOT_EXPECTED
        interp = rt.interpreter
        assert interp.methods_promoted > 0
        assert interp.methods_codegenned == 0
        assert snapshot(rt) == snapshot(cold_rt)

    @pytest.mark.parametrize("quantum", [1, 3, 7])
    def test_promotion_with_tiny_quanta(self, quantum):
        # Promotion decisions land at driver visits, so tiny quanta give
        # many more decision points; parity must hold regardless.
        ref_result, ref_rt = run_one(HOT_LOOP, [], "table", quantum=quantum)
        result, rt = run_one(HOT_LOOP, [], "tiered", quantum=quantum,
                             promote_after=3)
        assert result == ref_result == HOT_EXPECTED
        assert snapshot(rt) == snapshot(ref_rt)

    def test_polymorphic_deopts_recorded(self):
        # An alternating-receiver call site placed *mid-block* (POLY_SOURCE
        # puts its site at a branch target, i.e. a block leader, whose
        # guard deopts re-enter rather than record): the per-method deopt
        # counter must see the mid-block deopts because they gate adaptive
        # recompilation — and parity must still hold.
        source = (
            "class Square\n"
            + "method Square.area(1)\n    const 4\n    retval\n"
            + "class Circle\n"
            + "method Circle.area(1)\n    const 3\n    retval\n"
            + MAIN
            + "    new Square\n    store 2\n"
            + "    new Circle\n    store 3\n"
            + "    const 0\n    store 0\n"
            + "    const 0\n    store 1\n"
            + "loop:\n"
            + "    load 0\n    const 60\n    if_icmpge done\n"
            + "    load 0\n    const 2\n    mod\n    ifzero even\n"
            + "    load 3\n    store 4\n    goto call\n"
            + "even:\n    load 2\n    store 4\n"
            + "call:\n    load 4\n    invokevirtual area 1\n"
            + "    load 1\n    add\n    store 1\n"
            + "    iinc 0 1\n    goto loop\n"
            + "done:\n    load 1\n    retval\n"
        )
        ref_result, ref_rt = run_one(source, [], "table")
        result, rt = run_one(source, [], "tiered", promote_after=2)
        assert result == ref_result == POLY_EXPECTED
        assert snapshot(rt) == snapshot(ref_rt)
        assert sum(rt.interpreter._deopts.values()) > 0

    def test_adaptive_recompile_fires_on_clean_methods(self):
        # Enough driver visits with zero deopts triggers the one-shot
        # lifted-caps recompile; counters stay identical to the table
        # tier and the recompiled flag is recorded.
        source = (
            MAIN
            + "    const 0\n    store 0\n    const 0\n    store 1\n"
            + "loop:\n"
            + "    load 0\n    const 4000\n    if_icmpge done\n"
            + "    load 1\n    const 3\n    add\n    store 1\n"
            + "    iinc 0 1\n    goto loop\n"
            + "done:\n    load 1\n    retval\n"
        )
        expected = 4000 * 3
        ref_result, ref_rt = run_one(source, [], "table", quantum=64)
        result, rt = run_one(source, [], "tiered", quantum=64,
                             promote_after=2)
        assert result == ref_result == expected
        assert snapshot(rt) == snapshot(ref_rt)
        assert rt.interpreter.methods_recompiled > 0


#: (dispatch, mode) -> the step loop ``Interpreter.__init__`` installs.
#: Modes: "batched" (nothing observes single instructions), and the three
#: that need every instruction ticked or counted one at a time.
_PER_OP_MODES = ("gc_period_ops", "heartbeat_every", "count_opcodes")
EXPECTED_LOOPS = {
    ("table", "batched"): "step_n",
    ("closure", "batched"): "_step_n_closure",
    ("compiled", "batched"): "_step_n_tiered",
    ("tiered", "batched"): "_step_n_tiered",
    **{("table", mode): "step_n" for mode in _PER_OP_MODES},
    **{(dispatch, mode): "_step_n_closure_per_op"
       for dispatch in ("closure", "compiled", "tiered")
       for mode in _PER_OP_MODES},
}


class TestLoopSelection:
    @pytest.mark.parametrize("dispatch,mode", sorted(EXPECTED_LOOPS))
    def test_installed_loop(self, dispatch, mode, tmp_path):
        kwargs = {
            "batched": {},
            "gc_period_ops": {"gc_period_ops": 1000},
            "heartbeat_every": {"heartbeat_every": 1000,
                                "heartbeat_spool": str(tmp_path)},
            "count_opcodes": {"count_opcodes": True},
        }[mode]
        rt = Runtime(RuntimeConfig(dispatch=dispatch, **kwargs))
        try:
            step_n = rt.interpreter.step_n
            assert step_n.__func__ is getattr(
                Interpreter, EXPECTED_LOOPS[dispatch, mode])
        finally:
            if rt.heartbeat is not None:
                rt.heartbeat.close(rt)

    def test_chain_is_not_a_dispatch_value(self, monkeypatch):
        with pytest.raises(ValueError, match="dispatch"):
            RuntimeConfig(dispatch="chain")
        monkeypatch.setenv("REPRO_DISPATCH", "chain")
        with pytest.raises(ValueError, match="dispatch"):
            RuntimeConfig()

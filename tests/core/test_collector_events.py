"""Unit tests for each collector event (thesis section 3.1.3)."""

import pytest

from repro import CGPolicy, Mutator, UseAfterCollect
from repro.core.stats import (
    CAUSE_INTERN,
    CAUSE_NATIVE,
    CAUSE_PUTSTATIC,
    CAUSE_ROOTLESS,
    CAUSE_SHARED,
)
from repro.jvm.errors import IllegalStateError
from tests.conftest import assert_clean, make_runtime


class TestAlloc:
    def test_new_object_depends_on_current_frame(self, rt, m):
        with m.frame() as f:
            h = m.new("Node")
            block = rt.collector.equilive.block_of(h)
            assert block.frame is f
            assert block.members == [h]
            m.drop(h)

    def test_alloc_counts(self, rt, m):
        with m.frame():
            for _ in range(3):
                m.drop(m.new("Node"))
        assert rt.collector.stats.objects_created == 3

    def test_alloc_outside_any_frame_is_pinned(self, rt):
        # Class-loading-time allocation (section 3.2): no frame in scope.
        h = rt.allocate("Node", rt.main_thread)
        block = rt.collector.equilive.block_of(h)
        assert block.is_static


class TestStore:
    def test_store_null_is_noop(self, rt, m):
        with m.frame():
            a = m.new("Node")
            before = rt.collector.stats.contaminations
            m.putfield(a, "next", None)
            assert rt.collector.stats.contaminations == before
            m.drop(a)

    def test_store_within_same_block_is_noop(self, rt, m):
        with m.frame():
            a, b = m.new("Node"), m.new("Node")
            m.putfield(a, "next", b)
            before = rt.collector.stats.contaminations
            m.putfield(b, "next", a)  # cyclic: already equilive
            assert rt.collector.stats.contaminations == before
            m.drop(a)

    def test_store_merges_blocks_symmetrically(self, rt, m):
        with m.frame():
            a, b = m.new("Node"), m.new("Node")
            m.putfield(a, "next", b)
            eq = rt.collector.equilive
            assert eq.block_of(a) is eq.block_of(b)
            m.drop(a)

    def test_merged_block_takes_older_frame(self, rt, m):
        with m.frame() as outer:
            a = m.new("Node")
            m.set_local(0, a)
            with m.frame() as inner:
                b = m.new("Node")
                m.putfield(b, "next", a)
                block = rt.collector.equilive.block_of(b)
                assert block.frame is outer
            # Inner popped: block survives (depends on outer).
            a.check_live()
        assert rt.collector.stats.objects_popped == 2

    def test_store_into_array_contaminates(self, rt, m):
        with m.frame() as outer:
            arr = m.new_array(4)
            m.set_local(0, arr)
            with m.frame():
                x = m.new("Node")
                m.aastore(arr, 0, x)
                eq = rt.collector.equilive
                assert eq.block_of(arr) is eq.block_of(x)
            x.check_live()  # array anchored in outer frame
        assert_clean(rt)

    def test_store_counts_even_for_primitives(self, rt, m):
        with m.frame():
            a = m.new("Node")
            before = rt.collector.stats.store_events
            m.putfield(a, "payload", 7)
            assert rt.collector.stats.store_events == before + 1
            m.drop(a)


class TestPutstatic:
    def test_putstatic_pins(self, rt, m):
        with m.frame():
            a = m.new("Node")
            m.putstatic("root", a)
            block = rt.collector.equilive.block_of(a)
            assert block.is_static
            assert block.static_cause == CAUSE_PUTSTATIC
            assert a.pinned_cause == CAUSE_PUTSTATIC
        # Survives the pop.
        a.check_live()

    def test_putstatic_pins_whole_block(self, rt, m):
        with m.frame():
            a, b = m.new("Node"), m.new("Node")
            m.putfield(a, "next", b)
            m.putstatic("root", a)
            assert b.pinned_cause == CAUSE_PUTSTATIC
        b.check_live()

    def test_putstatic_null_counts_but_pins_nothing(self, rt, m):
        with m.frame():
            before = rt.collector.stats.putstatic_events
            m.putstatic("root", None)
            assert rt.collector.stats.putstatic_events == before + 1

    def test_contaminating_static_object_spreads_pin(self, rt, m):
        # x.f = y where x is static: y must live forever too.
        with m.frame():
            x = m.new("Node")
            m.putstatic("root", x)
            x = m.getstatic("root")
            y = m.new("Node")
            m.putfield(x, "next", y)
            assert rt.collector.equilive.block_of(y).is_static
        y.check_live()


class TestAreturn:
    def test_areturn_promotes_to_caller(self, rt, m):
        with m.frame() as outer:
            with m.frame():
                h = m.new("Node")
                m.areturn(h)
            assert rt.collector.equilive.block_of(h).frame is outer
            h.check_live()
            m.drop(h)
        assert h.freed

    def test_areturn_does_not_demote_older_block(self, rt, m):
        with m.frame() as a_frame:
            a = m.new("Node")
            m.set_local(0, a)
            with m.frame():
                with m.frame():
                    # Return a (anchored two frames up) to the middle frame:
                    # its dependence must stay on the oldest frame.
                    m.areturn(a)
                assert rt.collector.equilive.block_of(a).frame is a_frame
                m.consume_from_caller(a)

    def test_areturn_to_the_blocks_own_frame_leaves_it(self, rt, m):
        with m.frame() as outer:
            h = m.new("Node")
            m.set_local(0, h)
            block = rt.collector.equilive.block_of(h)
            with m.frame():
                # The caller is the block's own frame: neither older nor
                # younger, so nothing moves.
                m.areturn(h)
            assert block.frame is outer
            assert list(outer.cg_blocks) == [block]
            m.consume_from_caller(h)
        assert h.freed

    def test_areturn_off_thread_bottom_pins_rootless(self, rt, m):
        with m.frame():
            h = m.new("Node")
            m.areturn(h)  # depth-0 frame: no caller
        assert h.pinned_cause == CAUSE_ROOTLESS
        h.check_live()

    def test_areturn_static_block_unchanged(self, rt, m):
        with m.frame():
            with m.frame():
                h = m.new("Node")
                m.putstatic("root", h)
                m.areturn(h)
            block = rt.collector.equilive.block_of(h)
            assert block.is_static
            m.consume_from_caller(h)

    def test_areturn_to_another_threads_frame_is_rejected(self, rt, m):
        # Frame age is undefined across threads; such a block should have
        # been pinned static first (section 3.3).
        other = rt.new_thread("t1")
        with m.frame():
            h = m.new("Node")
            rt.push_frame(other)
            caller = rt.push_frame(other)
            with pytest.raises(IllegalStateError, match="across threads"):
                rt.collector.on_areturn(h, caller)
            rt.pop_frame(other)
            rt.pop_frame(other)
            m.drop(h)


class TestThreadSharing:
    def test_second_thread_access_pins(self, rt, m):
        with m.frame():
            h = m.new("Node")
            m.set_local(0, h)
            other = m.spawn()
            with other.frame():
                other.touch(h)
            assert h.pinned_cause == CAUSE_SHARED
        h.check_live()

    def test_same_thread_access_does_not_pin(self, rt, m):
        with m.frame():
            h = m.new("Node")
            m.touch(h)
            assert h.pinned_cause is None
            m.drop(h)

    def test_cross_thread_store_pins_the_shared_value(self, rt, m):
        with m.frame():
            a = m.new("Node")
            m.set_local(0, a)
            other = m.spawn()
            with other.frame():
                b = other.new("Node")
                # b (thread 1) stores a reference to a (thread 0): the
                # access check pins a as shared; the section 3.4 optimization
                # then applies — b references a static object, so b itself
                # stays collectable in its own frame.
                other.putfield(b, "next", a)
                eq = rt.collector.equilive
                assert eq.block_of(a).is_static
                assert not eq.block_of(b).is_static
            assert b.freed  # collected when thread 1's frame popped
        assert_clean(rt)

    def test_cross_thread_store_without_opt_pins_both(self):
        rt = make_runtime(cg=CGPolicy(static_opt=False, paranoid=True))
        m = Mutator(rt)
        with m.frame():
            a = m.new("Node")
            m.set_local(0, a)
            other = m.spawn()
            with other.frame():
                b = other.new("Node")
                other.putfield(b, "next", a)
                eq = rt.collector.equilive
                assert eq.block_of(a).is_static
                assert eq.block_of(b).is_static
        assert_clean(rt)

    def test_cross_thread_block_merge_pins_shared(self, rt, m):
        """Two non-static blocks anchored in different threads merging is
        treated as sharing (section 3.3): direct cross-thread contamination
        where the container, not the value, belongs to the other thread."""
        with m.frame():
            a = m.new("Node")
            m.set_local(0, a)
            other = m.spawn()
            with other.frame():
                b = other.new("Node")
                # Thread 0 stores b into a: touches b (allocated by thread
                # 1) -> pin shared; then contamination spreads the pin.
                other.set_local(0, b)
                m.putfield(a, "next", b)
                eq = rt.collector.equilive
                assert eq.block_of(b).is_static
        assert_clean(rt)

    def test_shared_pin_counted_once(self, rt, m):
        with m.frame():
            h = m.new("Node")
            m.set_local(0, h)
            other = m.spawn()
            with other.frame():
                other.touch(h)
                other.touch(h)
                other.touch(h)
            assert rt.collector.stats.static_pins[CAUSE_SHARED] == 1


class TestInternAndNative:
    def test_intern_pins(self, rt, m):
        with m.frame():
            s = m.new_string("spec")
            canon = m.intern(s)
            assert canon is s
            assert s.pinned_cause == CAUSE_INTERN
        s.check_live()

    def test_intern_duplicate_returns_canonical(self, rt, m):
        with m.frame():
            s1 = m.intern(m.new_string("x"))
            s2 = m.intern(m.new_string("x"))
            assert s1 is s2
        # The non-canonical duplicate was collectable.
        assert rt.collector.stats.objects_popped == 1

    def test_native_escape_pins(self, rt, m):
        with m.frame():
            h = m.new("Node")
            rt.collector.on_native_escape(h)
            assert h.pinned_cause == CAUSE_NATIVE
        h.check_live()


class TestFramePop:
    def test_pop_frees_all_dependent_blocks(self, rt, m):
        with m.frame():
            handles = [m.new("Node") for _ in range(4)]
            for h in handles:
                m.root(h)
        assert all(h.freed for h in handles)
        assert rt.collector.stats.objects_popped == 4

    def test_pop_skips_msa_freed_members(self, rt, m):
        with m.frame():
            a, b = m.new("Node"), m.new("Node")
            m.putfield(a, "next", b)
            m.root(a)
            # Simulate the tracing collector reclaiming b out of band.
            m.putfield(a, "next", None)
            rt.heap.free(b, "mark-sweep")
            rt.collector.on_collected_by_msa(b)
        # The pop must free only a, skipping b (already dead).
        assert rt.collector.stats.objects_popped == 1
        assert rt.collector.stats.collected_by_msa == 1
        assert_clean(rt)

    def test_pop_frees_in_block_order_then_member_order(self, rt, m,
                                                        monkeypatch):
        # The next-fit allocator's hint makes alloc_search_steps depend on
        # the order storage comes back, so that order is pinned here.
        freed_addrs = []
        with m.frame() as frame:
            lone = m.new("Node")
            m.root(lone)
            a, b, c = m.new("Node"), m.new("Node"), m.new("Node")
            m.putfield(a, "next", b)
            m.putfield(c, "next", a)  # merged block of three
            m.root(c)
            lone2 = m.new("Node")
            m.root(lone2)
            with m.frame():
                r, q = m.new("Node"), m.new("Node")
                m.putfield(r, "next", q)
                m.areturn(r)  # promoted into the outer frame
            m.consume_from_caller(r)
            m.root(r)
            x, y = m.new("Node"), m.new("Node")
            m.putfield(x, "next", y)
            m.root(x)
            m.putfield(x, "next", None)
            rt.run_gc()  # y is unreachable: MSA frees it, CG keeps it listed
            assert y.freed_by == "mark-sweep" and not x.freed

            blocks = list(frame.cg_blocks)
            assert [set(bl.members) for bl in blocks] == [
                {lone}, {a, b, c}, {lone2}, {r, q}, {x, y},
            ]
            expected = [h.addr for bl in blocks for h in bl.members
                        if not h.freed]
            assert len(expected) == 8
            real_free = rt.heap.free_list.free

            def recording_free(addr, size):
                freed_addrs.append(addr)
                real_free(addr, size)

            monkeypatch.setattr(rt.heap.free_list, "free", recording_free)
        assert freed_addrs == expected
        assert rt.collector.stats.objects_popped == 8
        assert_clean(rt)

    def test_block_size_histogram(self, rt, m):
        with m.frame():
            a, b, c = (m.new("Node") for _ in range(3))
            m.putfield(a, "next", b)  # block of 2
            m.root(a)
            m.root(c)                  # singleton
        hist = rt.collector.stats.block_size_hist
        assert hist[2] == 1
        assert hist[1] == 1

    def test_exact_blocks_are_never_unioned_singletons(self, rt, m):
        with m.frame():
            a, b, c = (m.new("Node") for _ in range(3))
            m.putfield(a, "next", b)
            m.root(a)
            m.root(c)
        st = rt.collector.stats
        assert st.exact_blocks == 1
        assert st.exact_objects == 1

    def test_age_histogram_distance_zero_for_frame_local(self, rt, m):
        with m.frame():
            with m.frame():
                m.root(m.new("Node"))
        assert rt.collector.stats.age_hist[0] == 1

    def test_age_histogram_counts_promotion_distance(self, rt, m):
        with m.frame():
            with m.frame():
                with m.frame():
                    h = m.new("Node")
                    m.areturn(h)
                m.areturn(h)
            m.consume_from_caller(h)
            m.root(h)
        # Born at depth 2, collected when depth-0 frame popped: distance 2.
        assert rt.collector.stats.age_hist[2] == 1

    def test_use_after_collect_oracle(self, rt, m):
        with m.frame():
            with m.frame():
                h = m.new("Node")
                m.root(h)
            with pytest.raises(UseAfterCollect):
                m.touch(h)


class TestFinalCensus:
    def test_census_partitions_population(self):
        rt = make_runtime()
        m = Mutator(rt)
        with m.frame():
            popped = m.new("Node")
            m.root(popped)
            stat = m.new("Node")
            m.putstatic("s", stat)
            shared = m.new("Node")
            m.set_local(0, shared)
            other = m.spawn()
            with other.frame():
                other.touch(shared)
        census = rt.collector.final_census()
        assert census["popped"] == 1
        assert census["static"] == 1
        assert census["thread"] == 1
        total = rt.collector.stats.objects_created
        assert census["popped"] + census["static"] + census["thread"] == total


class TestSetTracer:
    """set_tracer must refresh the cached _trace fast-path flag (the
    collector snapshots ``tracer.enabled`` at construction for speed)."""

    def test_attach_after_construction_records_events(self):
        from repro.obs.events import NULL_TRACER, Tracer

        rt = make_runtime()
        collector = rt.collector
        assert collector.tracer is NULL_TRACER
        assert collector._trace is False

        tracer = Tracer()
        collector.set_tracer(tracer)
        assert collector._trace is True
        assert collector.recycle._tracer is tracer

        m = Mutator(rt)
        with m.frame():
            m.new("Node")
        assert tracer.kind_counts()["new"] >= 1
        assert tracer.kind_counts()["frame_pop"] >= 1

    def test_detach_stops_recording(self):
        from repro.obs.events import NULL_TRACER, Tracer

        rt = make_runtime()
        tracer = Tracer()
        rt.collector.set_tracer(tracer)
        rt.collector.set_tracer(None)
        assert rt.collector.tracer is NULL_TRACER
        assert rt.collector._trace is False
        assert rt.collector.recycle._trace is False

        m = Mutator(rt)
        with m.frame():
            m.new("Node")
        assert len(tracer) == 0

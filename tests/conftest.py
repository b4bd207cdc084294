"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import CGPolicy, Mutator, Program, Runtime, RuntimeConfig


def make_runtime(
    heap_words: int = 1 << 16,
    cg: CGPolicy | None = None,
    tracing: str = "marksweep",
    gc_period_ops: int | None = None,
    paranoid: bool = True,
    dispatch: str | None = None,
    **cg_overrides,
) -> Runtime:
    """A runtime with paranoid CG checking on by default (tests only).

    ``dispatch`` defaults to the ``REPRO_DISPATCH`` env knob (falling back
    to the runtime default), so CI can sweep the whole suite across the
    table/closure/compiled/tiered tiers without touching any test.
    """
    if cg is None:
        cg = CGPolicy(paranoid=paranoid, **cg_overrides)
    if dispatch is None:
        dispatch = os.environ.get("REPRO_DISPATCH", "tiered")
    config = RuntimeConfig(
        heap_words=heap_words,
        cg=cg,
        tracing=tracing,
        gc_period_ops=gc_period_ops,
        dispatch=dispatch,
    )
    runtime = Runtime(config)
    define_test_classes(runtime.program)
    return runtime


def define_test_classes(program: Program) -> None:
    """The small class library most tests share."""
    program.define_class("Node", fields=["next", "payload"])
    program.define_class("Pair", fields=["first", "second"])
    program.define_class("Box", fields=["value"])
    program.define_class("Big", fields=[f"f{i}" for i in range(14)])


@pytest.fixture
def rt() -> Runtime:
    return make_runtime()


@pytest.fixture
def rt_no_tracing() -> Runtime:
    return make_runtime(tracing="none")


@pytest.fixture
def m(rt: Runtime) -> Mutator:
    return Mutator(rt)


def assert_clean(runtime: Runtime) -> None:
    """Heap accounting and equilive invariants all hold."""
    runtime.check_heap_accounting()
    runtime.check_cg_invariants()

"""RunResult serialization, the persistent result cache, and prefetch."""

from collections import Counter

from repro.harness import figures as figures_mod
from repro.harness.figures import cached_run, clear_cache, prefetch
from repro.api import (
    result_from_dict,
    result_to_dict,
    run as run_workload,
)


def roundtrip(result):
    import json

    # Through real JSON, so dict keys degrade to strings as they do on disk.
    return result_from_dict(json.loads(json.dumps(result_to_dict(result))))


class TestResultSerialization:
    def test_roundtrip_preserves_everything(self):
        original = run_workload("db", 1, "cg")
        restored = roundtrip(original)
        assert restored.cg_stats == original.cg_stats
        assert restored.census == original.census
        assert restored.gc_work == original.gc_work
        assert restored.cost == original.cost
        assert restored.ops == original.ops
        assert restored.alloc_search_steps == original.alloc_search_steps
        assert restored.peak_live_words == original.peak_live_words
        assert restored.metrics == original.metrics

    def test_counter_keys_restored_as_ints(self):
        original = run_workload("db", 1, "cg")
        restored = roundtrip(original)
        for name in ("block_size_hist", "age_hist"):
            counter = getattr(restored.cg_stats, name)
            assert isinstance(counter, Counter)
            assert all(isinstance(k, int) for k in counter)

    def test_derived_metrics_survive(self):
        original = run_workload("jess", 1, "cg-nogc")
        restored = roundtrip(original)
        assert restored.collectable_pct == original.collectable_pct
        assert restored.exact_pct == original.exact_pct
        assert restored.sim_ms == original.sim_ms

    def test_nogc_run_has_null_cg_stats(self):
        original = run_workload("db", 1, "jdk-nogc")
        restored = roundtrip(original)
        assert restored.cg_stats is None
        assert restored.census == original.census


class TestDiskCache:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()
        figures_mod.set_result_cache(None)

    def test_cache_hit_skips_recompute(self, tmp_path, monkeypatch):
        figures_mod.set_result_cache(str(tmp_path))
        first = cached_run("db", 1, "cg")
        clear_cache()

        def boom(*args, **kwargs):
            raise AssertionError("disk-cached cell was recomputed")

        monkeypatch.setattr(figures_mod, "api_run", boom)
        second = cached_run("db", 1, "cg")
        assert second.cg_stats == first.cg_stats
        assert second.ops == first.ops

    def test_corrupt_entry_recomputes(self, tmp_path):
        figures_mod.set_result_cache(str(tmp_path))
        cached_run("db", 1, "cg")
        for entry in tmp_path.iterdir():
            entry.write_text("{not json")
        clear_cache()
        result = cached_run("db", 1, "cg")
        assert result.workload == "db"

    def test_unwritable_cache_dir_costs_only_the_store(self, tmp_path):
        # The cache path runs through a regular file, so every mkdir/open
        # below it fails; the computed cell must still come back.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        figures_mod.set_result_cache(str(blocker / "cache"))
        result = cached_run("db", 1, "cg")
        assert result.workload == "db"
        assert blocker.read_text() == ""

    def test_disabled_cache_writes_nothing(self, tmp_path):
        figures_mod.set_result_cache(None)
        cached_run("db", 1, "cg")
        assert list(tmp_path.iterdir()) == []


class TestPrefetch:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_prefetch_matches_sequential_results(self):
        baseline = {}
        for name in figures_mod.BENCH_ORDER:
            baseline[name] = cached_run(name, 1, "cg-nogc")
        clear_cache()
        prefetch(["4.2"], jobs=2)
        for name in figures_mod.BENCH_ORDER:
            key = figures_mod.cell_key(name, 1, "cg-nogc")
            assert key in figures_mod._CACHE
            assert figures_mod._CACHE[key].cg_stats == baseline[name].cg_stats

    def test_prefetch_handles_pressured_figures(self):
        prefetch(["4.13"], jobs=2)
        table = figures_mod.ALL_FIGURES["4.13"]()
        assert len(table.rows) == len(figures_mod.BENCH_ORDER)

    def test_prefetch_ignores_unknown_ids(self):
        assert prefetch(["totally-bogus"], jobs=2) == 0

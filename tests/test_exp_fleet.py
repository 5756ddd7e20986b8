"""Tests for ``repro.exp`` — specs, fleets, grids, and the result cache.

The load-bearing guarantees:

* parallel determinism — ``jobs=1`` and ``jobs=4`` produce identical
  ordered summaries and determinism digests for the same task list;
* caching — a second run is served entirely from the cache (zero worker
  invocations) and ``refresh`` bypasses it;
* error transparency — a worker exception surfaces in the parent with
  the original traceback text and the failing task's index.
"""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.exp import (
    CellAggregate,
    ExperimentSpec,
    ExperimentSummary,
    Fleet,
    FleetTaskError,
    GridAxis,
    ResultCache,
    expand_grid,
    flatten_specs,
    parse_parameter_value,
    run_spec,
)

#: Small enough that one run is milliseconds; still drives every subsystem.
TINY = dict(nodes=2, duration=4.0, update_rate=3.0, inquiry_rate=2.0,
            audit_rate=0.2, entities=8, span=2)


def tiny(protocol: str = "3v", **overrides) -> ExperimentSpec:
    return ExperimentSpec(protocol, **{**TINY, **overrides})


def six_task_grid():
    """2 protocols x 3 seeds — the determinism test's task list."""
    return [tiny(protocol, seed=seed)
            for protocol in ("3v", "nocoord") for seed in (0, 1, 2)]


def masked(summaries):
    """Summaries with ``wall_seconds`` zeroed — the one deliberately
    machine-dependent field (excluded from the determinism digest), so
    bit-identity assertions must compare around it."""
    return [dataclasses.replace(s, wall_seconds=0.0) for s in summaries]


class TestSpec:
    def test_digest_stable_and_field_sensitive(self):
        spec = tiny()
        assert spec.digest() == tiny().digest()
        assert spec.digest() != spec.replace(seed=99).digest()

    def test_digest_distinguishes_int_from_float(self):
        # ``nodes 4`` and ``nodes 4.0`` are different specs: integer
        # parameters must stay exact ints end to end.
        assert tiny(nodes=2).digest() != tiny(nodes=2.0).digest()

    def test_run_kwargs_round_trip(self):
        kwargs = tiny().run_kwargs()
        assert "protocol" not in kwargs
        assert kwargs["nodes"] == 2
        assert kwargs["poll_interval"] == 0.5

    def test_parse_parameter_value_types(self):
        assert parse_parameter_value("nodes", "8") == 8
        assert isinstance(parse_parameter_value("nodes", "8"), int)
        assert parse_parameter_value("update-rate", "2.5") == 2.5

    def test_parse_parameter_value_rejects_bad_input(self):
        with pytest.raises(ReproError):
            parse_parameter_value("nodes", "2.5")
        with pytest.raises(ReproError):
            parse_parameter_value("quantumness", "1")


class TestSummary:
    def test_dict_round_trip_and_digest(self):
        summary = run_spec(tiny())
        clone = ExperimentSummary.from_dict(summary.to_dict())
        assert clone == summary
        assert clone.determinism_digest() == summary.determinism_digest()

    def test_rerun_is_bit_identical(self):
        first, second = run_spec(tiny()), run_spec(tiny())
        assert masked([first]) == masked([second])
        assert first.determinism_digest() == second.determinism_digest()


class TestGrid:
    def test_expansion_order_and_replicate_seeds(self):
        axes = [GridAxis("system", "protocol", ("3v", "nocoord")),
                GridAxis("nodes", "nodes", (2, 3))]
        cells = expand_grid(tiny(seed=7), axes, reps=2)
        assert [cell.values for cell in cells] == [
            ("3v", 2), ("3v", 3), ("nocoord", 2), ("nocoord", 3)]
        assert [spec.seed for spec in cells[0].specs] == [7, 8]
        assert len(flatten_specs(cells)) == 8

    def test_explicit_seed_axis_wins_over_reps(self):
        cells = expand_grid(
            tiny(seed=0), [GridAxis("seed", "seed", (40, 41))], reps=3)
        assert all(spec.seed == 40 for spec in cells[0].specs)

    def test_cell_aggregate(self):
        base = run_spec(tiny())
        bumped = dataclasses.replace(
            base, update_throughput=base.update_throughput + 1.0,
            aborted=3, fractured_reads=2, max_remote_wait=0.5,
            audit_clean=False,
        )
        aggregate = CellAggregate.of([base, bumped])
        assert aggregate.reps == 2
        assert aggregate.update_throughput == pytest.approx(
            base.update_throughput + 0.5)
        assert aggregate.aborted == base.aborted + 3
        assert aggregate.fractured_reads == base.fractured_reads + 2
        assert aggregate.max_remote_wait == 0.5
        assert not aggregate.audit_clean


class TestParallelDeterminism:
    def test_jobs1_vs_jobs4_identical(self):
        specs = six_task_grid()
        serial = Fleet(jobs=1).run(specs)
        parallel = Fleet(jobs=4).run(specs)
        assert masked(serial) == masked(parallel)
        assert ([s.determinism_digest() for s in serial]
                == [s.determinism_digest() for s in parallel])
        # Order follows task index, not completion order.
        assert [s.protocol for s in serial] == ["3v"] * 3 + ["nocoord"] * 3
        assert [s.spec_digest for s in serial] == [
            spec.digest() for spec in specs]

    def test_hash_seed_sensitive_protocols_identical(self):
        # 2pc commit rounds and lock release order once iterated raw sets,
        # leaking the per-process hash seed into message send order.
        # Spawned workers draw fresh random hash seeds, so serial vs
        # parallel equality is the regression test for that class of bug.
        specs = ([tiny("2pc", seed=seed) for seed in (0, 1)]
                 + [tiny(correction_rate=1.0, seed=seed) for seed in (0, 1)])
        serial = Fleet(jobs=1).run(specs)
        parallel = Fleet(jobs=2).run(specs)
        assert masked(serial) == masked(parallel)
        assert ([s.determinism_digest() for s in serial]
                == [s.determinism_digest() for s in parallel])


class TestCache:
    def test_second_run_served_from_cache(self, tmp_path):
        specs = six_task_grid()
        first = Fleet(jobs=1, cache=ResultCache(tmp_path))
        results = first.run(specs)
        assert first.stats.executed == 6 and first.stats.cached == 0

        second = Fleet(jobs=1, cache=ResultCache(tmp_path))
        cached = second.run(specs)
        assert second.stats.executed == 0, "expected zero worker invocations"
        assert second.stats.cached == 6
        assert cached == results

        refreshed = Fleet(jobs=1, cache=ResultCache(tmp_path), refresh=True)
        assert masked(refreshed.run(specs)) == masked(results)
        assert refreshed.stats.executed == 6 and refreshed.stats.cached == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny()
        cache.put(spec, run_spec(spec))
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")
        assert cache.get(spec) is None

    def test_eviction_cap(self, tmp_path):
        cache = ResultCache(tmp_path, cap=2)
        summary = run_spec(tiny())
        for seed in range(4):
            cache.put(tiny(seed=seed), summary)
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert cache.stats.evictions == 2

    def test_key_depends_on_spec(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key(tiny(seed=0)) != cache.key(tiny(seed=1))


class TestWorkerErrors:
    def test_serial_error_carries_index_and_traceback(self):
        specs = [tiny(), ExperimentSpec("not-a-protocol", **TINY)]
        with pytest.raises(FleetTaskError) as excinfo:
            Fleet(jobs=1).run(specs)
        assert excinfo.value.index == 1
        assert "unknown protocol" in excinfo.value.traceback_text
        assert "Traceback" in excinfo.value.traceback_text

    def test_multiprocessing_error_carries_index_and_traceback(self):
        specs = [tiny(), ExperimentSpec("not-a-protocol", **TINY)]
        with pytest.raises(FleetTaskError) as excinfo:
            Fleet(jobs=2).run(specs)
        assert excinfo.value.index == 1
        assert "unknown protocol" in excinfo.value.traceback_text
        assert "Traceback" in excinfo.value.traceback_text

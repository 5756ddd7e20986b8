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

from repro.errors import ReproError, SpecError
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
    summarize,
)
from repro.exp.summary import audit_result
from repro.runtime import PROTOCOLS
from repro.sim import Simulator
from repro.workloads import run_recording_experiment

#: Small enough that one run is milliseconds; still drives every subsystem.
TINY = dict(nodes=2, duration=4.0, update_rate=3.0, inquiry_rate=2.0,
            audit_rate=0.2, entities=8, span=2)


#: Wires every counting layer: loss, duplication, node and coordinator
#: crashes, a partition, replication and batched delivery.
EVERY_LAYER = dict(nodes=4, duration=30.0, replication_factor=3,
                   drop_rate=0.05, dup_rate=0.05, crash_count=1,
                   partition_count=1, coordinator_crashes=1,
                   batch_delivery=1, latency_jitter=0.0, fault_seed=5)

PLACEMENT_COUNTERS = {"reads_rerouted", "reads_gated", "writes_skipped",
                      "refresh_ops_applied", "refreshes_completed",
                      "self_refreshes", "unreadable_reads_served"}


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

    def test_integer_parameter_refuses_a_float(self):
        # ``nodes 4.0`` is not a spec: integer parameters must stay exact
        # ints end to end (a float node count reached ``range()``).
        with pytest.raises(SpecError, match=r"^nodes \(--nodes\) must be "
                                            r"an integer, got 2\.0$"):
            tiny(nodes=2.0)

    @pytest.mark.parametrize("changes, expected", [
        ({}, "918a280d217853b2a08b1256e38047977563ac03f9cfc2cad509546da1ca1238"),
        ({"replication_factor": 3},
         "a82ad321746fa1b3c101fdbc495e627ba61b7cc6dc1b1f59d1ebdd95177787c9"),
        ({"replication_factor": 1, "refresh_delay": 99.0},
         "918a280d217853b2a08b1256e38047977563ac03f9cfc2cad509546da1ca1238"),
        ({"partition_count": 1},
         "2cf5af07200b99d10e737c38886df5a81b45e9c83e5a30721a35a4b12e86a83d"),
        ({"coordinator_crashes": 1},
         "f39ed8dda5181c2f64c526ba970833495ec71b6c11ebfda8ae4bbe3792a4558a"),
        ({"stall_budget": 2.5},
         "acfd13c080864a869f393d06d087b1eb15c8f8bbee40a21e73dbcc5aa8aec240"),
    ], ids=["default", "rf3", "rf1-odd-delay", "partition", "coord-crash",
            "stall-budget"])
    def test_digest_is_pinned(self, changes, expected):
        # Every ResultCache address is a digest: a refactor of digest()
        # that moved any of these would orphan every cached fleet result.
        assert ExperimentSpec("3v").replace(**changes).digest() == expected

    def test_an_int_for_a_float_parameter_is_the_same_spec(self, tmp_path):
        # One simulation, one content address: a library caller writing
        # ``duration=20`` must hit what ``duration=20.0`` cached.
        as_int = ExperimentSpec("3v", duration=20, zipf=1, update_rate=0)
        as_float = ExperimentSpec("3v", duration=20.0, zipf=1.0,
                                  update_rate=0.0)
        assert type(as_int.duration) is float
        assert as_int.digest() == as_float.digest()
        cache = ResultCache(tmp_path)
        assert cache.key(as_int) == cache.key(as_float)

    def test_amount_mode_is_refused_at_construction(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(Simulator, "__init__", no_simulation)
        with pytest.raises(SpecError, match=r"^amount_mode \(--amount-mode\)"
                                            r" must be bitmask or money, "
                                            r"got 'bitcoin'$"):
            tiny(amount_mode="bitcoin")
        with pytest.raises(SpecError, match=r"^amount_mode \(--amount-mode\)"):
            run_recording_experiment("3v", **TINY, amount_mode="bitcoin")
        assert tiny(amount_mode="money").amount_mode == "money"

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

    @pytest.mark.parametrize("field, value", [
        # NaN rate: the arrival generator yields NaN forever and the
        # driver lists them, so the run would never terminate.
        ("update_rate", float("nan")),
        # NaN period: the event heap's clock went backwards mid-run.
        ("advancement_period", float("nan")),
        # These two ran silently to a meaningless result.
        ("poll_interval", float("nan")),
        ("zipf", float("nan")),
        # An infinite duration never ends.
        ("duration", float("inf")),
        ("latency_jitter", float("-inf")),
        # An integer parameter given a non-finite float is refused too.
        ("nodes", float("nan")),
    ])
    def test_non_finite_floats_are_refused_before_the_run(
            self, monkeypatch, field, value):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr(Simulator, "__init__", no_simulation)
        with pytest.raises(SpecError, match=rf"^{field} \(--"):
            run_spec(tiny(**{field: value}))
        with pytest.raises(SpecError, match=rf"^{field} \(--"):
            tiny().replace(**{field: value})


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

    @pytest.mark.parametrize("layers", [EVERY_LAYER, TINY],
                             ids=["every-layer", "fault-free-rf1"])
    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_summary_counters_are_the_systems(self, protocol, layers):
        """``System.counters()`` keys are summary fields, a layer the run
        did not wire adds none, and ``summarize`` takes every counter
        from it: each summary counter reads what the method returned
        (here replaced by sentinels), and a missing one reads 0."""
        spec = ExperimentSpec(protocol, **layers)
        result = run_recording_experiment(protocol, **spec.run_kwargs())
        counters = result.system.counters()
        fields = {f.name for f in dataclasses.fields(ExperimentSummary)}
        assert set(counters) <= fields
        if spec.replication_factor == 1:
            assert not set(counters) & PLACEMENT_COUNTERS
        else:
            assert set(counters) >= PLACEMENT_COUNTERS
        coordinator_keys = {name for name in fields
                            if name.startswith("coordinator_")}
        coordinator_keys.add("advancement_runs")
        if PROTOCOLS[protocol].coordinator is None:
            assert not set(counters) & coordinator_keys
        else:
            assert set(counters) >= coordinator_keys

        sentinels = {name: 1000 + index
                     for index, name in enumerate(sorted(counters))}
        result.system.counters = lambda: sentinels
        summary = summarize(spec, result, audit_result(result))
        for name in (PLACEMENT_COUNTERS | coordinator_keys) - set(counters):
            assert getattr(summary, name) == 0, name
        for name, value in sentinels.items():
            assert getattr(summary, name) == value, name


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

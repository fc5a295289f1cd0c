"""Tests for the parallel sweep executor (serial/parallel equivalence,
fallbacks, crash containment, telemetry) and the Table CSV formatting."""

import os
from functools import partial

import pytest

from repro.experiments.e1_correctness import _one as e1_one
from repro.experiments.io import load_sweep_telemetry, save_sweep_telemetry
from repro.experiments.parallel import (
    RunTelemetry,
    collect_telemetry,
    default_workers,
    resolve_seeds,
    run_replicated_sweep,
    run_sweep,
    shared_build,
    shared_build_stats,
)
from repro.experiments.runner import Table, aggregate, sweep_seeds


def _square(seed):
    return {"seed": seed, "slots": seed * seed, "tx_total": seed + 3}


def _boom(seed):
    raise ValueError(f"bad seed {seed}")


def _crash_in_child(parent_pid, seed):
    # Kills only worker processes: in the parent's serial retry the pid
    # matches and the run succeeds.
    if os.getpid() != parent_pid:
        os._exit(3)
    return {"seed": seed}


class TestResolveSeeds:
    def test_count_matches_serial_derivation(self):
        # sweep_seeds historically derived child seeds from RngStream;
        # resolve_seeds must reproduce that list exactly.
        via_sweep = [r["seed"] for r in sweep_seeds(_square, seeds=6, master_seed=9)]
        assert resolve_seeds(6, 9) == via_sweep

    def test_iterable_passthrough(self):
        assert resolve_seeds([4, 5, 6]) == [4, 5, 6]

    def test_distinct_masters_distinct_seeds(self):
        assert resolve_seeds(4, 0) != resolve_seeds(4, 1)


class TestSerialParallelEquivalence:
    def test_module_level_fn(self):
        serial = run_sweep(_square, seeds=10, master_seed=2, workers=1)
        par = run_sweep(_square, seeds=10, master_seed=2, workers=3)
        assert serial == par

    def test_experiment_partial(self):
        fn = partial(e1_one, 20, 6.0, "synchronous")
        serial = run_sweep(fn, seeds=2, master_seed=5, workers=1)
        par = run_sweep(fn, seeds=2, master_seed=5, workers=2)
        assert serial == par

    def test_chunksize_irrelevant_to_results(self):
        base = run_sweep(_square, seeds=9, workers=1)
        for chunksize in (1, 2, 100):
            assert run_sweep(_square, seeds=9, workers=2, chunksize=chunksize) == base

    def test_explicit_seed_list(self):
        serial = run_sweep(_square, seeds=[3, 1, 4, 1, 5], workers=1)
        par = run_sweep(_square, seeds=[3, 1, 4, 1, 5], workers=2)
        assert serial == par
        assert [r["seed"] for r in par] == [3, 1, 4, 1, 5]


class TestFallbacks:
    def test_lambda_falls_back_to_serial(self):
        # Lambdas cannot cross a process boundary; the sweep must still
        # complete (in-process) with identical results.
        res = run_sweep(lambda s: {"s": s}, seeds=[7, 8], workers=4)
        assert res == [{"s": 7}, {"s": 8}]

    def test_single_seed_stays_serial(self):
        assert run_sweep(_square, seeds=[5], workers=8) == [_square(5)]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(_square, seeds=2, workers=-1)

    def test_worker_crash_retried_serially(self):
        fn = partial(_crash_in_child, os.getpid())
        res = run_sweep(fn, seeds=[1, 2, 3, 4], workers=2, chunksize=1)
        assert res == [{"seed": s} for s in [1, 2, 3, 4]]

    def test_deterministic_exception_propagates(self):
        # fn bugs are not swallowed by crash containment: the serial
        # retry hits the same exception and raises it.
        with pytest.raises(ValueError, match="bad seed"):
            run_sweep(_boom, seeds=[1, 2], workers=2)
        with pytest.raises(ValueError, match="bad seed"):
            run_sweep(_boom, seeds=[1, 2], workers=1)


class TestWorkerDefaults:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        assert default_workers() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "not-a-number")
        assert default_workers() == 1

    def test_env_drives_sweep_results_unchanged(self, monkeypatch):
        base = run_sweep(_square, seeds=6, workers=1)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert run_sweep(_square, seeds=6) == base


class TestTelemetry:
    def test_collects_per_run_counters(self):
        with collect_telemetry() as tel:
            run_sweep(_square, seeds=[2, 3], workers=1)
        assert [t.seed for t in tel] == [2, 3]
        assert [t.slots for t in tel] == [4, 9]
        assert [t.tx for t in tel] == [5, 6]
        assert all(t.wall_s >= 0 for t in tel)

    def test_collected_in_parallel_mode_too(self):
        with collect_telemetry() as tel:
            run_sweep(_square, seeds=8, workers=2)
        assert len(tel) == 8

    def test_explicit_sink(self):
        sink = []
        run_sweep(_square, seeds=3, telemetry=sink)
        assert len(sink) == 3 and all(isinstance(t, RunTelemetry) for t in sink)

    def test_non_dict_results_tolerated(self):
        with collect_telemetry() as tel:
            run_sweep(lambda s: s * 1.5, seeds=[2], workers=1)
        assert tel[0].slots is None and tel[0].tx is None

    def test_round_trip(self, tmp_path):
        with collect_telemetry() as tel:
            run_sweep(_square, seeds=4, workers=1)
        path = save_sweep_telemetry(tel, tmp_path / "tel.json")
        assert load_sweep_telemetry(path) == tel


def _tiny_scenario():
    from repro.core import Parameters
    from repro.graphs import random_udg

    dep = random_udg(12, expected_degree=5.0, seed=3, connected=True)
    params = Parameters.practical(12, max(2, dep.max_degree), 5, 18)
    return dep, params, None


def _slots_row(res):
    return {
        "slots": res.slots,
        "colors": sorted(set(res.colors.tolist())),
        "tx_total": int(res.trace.channel_metrics.totals()["tx"]),
    }


class TestSharedBuild:
    def test_builds_once_per_key(self):
        shared_build_stats(reset=True)
        calls = []
        for _ in range(3):
            value = shared_build("k", lambda: calls.append(1) or "built")
        assert value == "built" and len(calls) == 1
        stats = shared_build_stats()
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_distinct_keys_distinct_builds(self):
        shared_build_stats(reset=True)
        assert shared_build(("a", 1), lambda: 1) == 1
        assert shared_build(("a", 2), lambda: 2) == 2
        assert shared_build_stats()["misses"] == 2

    def test_unhashable_key_rejected(self):
        with pytest.raises(TypeError, match="hashable"):
            shared_build(["list", "key"], lambda: 1)


class TestReplicatedSweep:
    """Regression: the replica worker path (build once per scenario
    hash, run chunks as engine batches) stays byte-identical to the
    in-process path — and to the per-seed vectorized solo runs."""

    def test_worker_vs_in_process_byte_identity(self):
        seeds = [41, 42, 43, 44, 45]
        serial = run_replicated_sweep(
            _tiny_scenario, seeds=seeds, workers=1, metric=_slots_row
        )
        for chunksize in (1, 2, 100):
            par = run_replicated_sweep(
                _tiny_scenario,
                seeds=seeds,
                workers=2,
                chunksize=chunksize,
                metric=_slots_row,
            )
            assert par == serial

    def test_matches_per_seed_solo_runs(self):
        from repro.core import BernoulliColoringNode, run_coloring

        dep, params, _ = _tiny_scenario()
        seeds = [7, 8, 9]
        batched = run_replicated_sweep(
            _tiny_scenario, seeds=seeds, workers=1, metric=_slots_row
        )
        solo = [
            _slots_row(
                run_coloring(dep, params, seed=s, node_cls=BernoulliColoringNode)
            )
            for s in seeds
        ]
        assert batched == solo

    def test_scenario_built_once_in_process(self):
        shared_build_stats(reset=True)
        run_replicated_sweep(_tiny_scenario, seeds=[1, 2], workers=1, metric=_slots_row)
        run_replicated_sweep(_tiny_scenario, seeds=[3, 4], workers=1, metric=_slots_row)
        stats = shared_build_stats()
        assert stats["misses"] == 1 and stats["hits"] >= 1

    def test_unpicklable_build_falls_back_serially(self):
        dep, params, wake = _tiny_scenario()
        rows = run_replicated_sweep(
            lambda: (dep, params, wake),  # lambdas cannot cross processes
            seeds=[5, 6],
            workers=4,
            metric=_slots_row,
        )
        assert rows == run_replicated_sweep(
            _tiny_scenario, seeds=[5, 6], workers=1, metric=_slots_row
        )

    def test_telemetry_and_results_without_metric(self):
        with collect_telemetry() as tel:
            results = run_replicated_sweep(_tiny_scenario, seeds=[11, 12], workers=1)
        assert [t.seed for t in tel] == [11, 12]
        assert all(t.wall_s >= 0 for t in tel)
        assert [r.completed for r in results] == [True, True]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_replicated_sweep(_tiny_scenario, seeds=2, workers=-1)


class TestTableCsvFormatting:
    def test_csv_uses_fmt(self):
        t = Table("t")
        t.add(ok=True, ratio=0.123456789, big=12345.678, n=3)
        t.add(ok=False, ratio=float("nan"), big=1.0, n=4)
        csv_text = t.to_csv()
        # Booleans and floats must match the rendered table, not repr().
        assert "yes" in csv_text and "no" in csv_text
        assert "True" not in csv_text and "False" not in csv_text
        assert "0.123456789" not in csv_text
        assert Table._fmt(0.123456789) in csv_text
        assert "nan" in csv_text

    def test_aggregate_exported(self):
        from repro.experiments import runner

        assert "aggregate" in runner.__all__
        agg = aggregate([{"x": 1.0}, {"x": 3.0}], "x")
        assert agg == {"mean": 2.0, "max": 3.0}


"""Engine execution-path benchmark: classic vs vectorized vs block-stepped.

The perf-regression harness for the simulation engine itself (the
E-series benchmarks measure *protocol* behavior; this one measures the
*engine*).  Three execution paths run the same coloring workload:

- ``classic`` — per-node :meth:`ProtocolNode.step` calls
  (:class:`~repro.core.node.ColoringNode`);
- ``vectorized`` — the per-slot fast path, one ``rng.random(n)`` per
  slot (:class:`~repro.core.vector_node.BernoulliColoringNode`);
- ``blocked`` — the block-stepped fast path
  (:meth:`~repro.radio.engine.RadioSimulator.step_block` via
  ``run(..., block=B)``), which is trajectory-identical to
  ``vectorized`` and therefore a pure engine-speed comparison.

Workload: the **cold-start phase of a sparse deployment**.  Nodes wake
uniformly at random over a ``wake_window_mult * n``-slot window and the
benchmark measures the first ``slots`` slots from slot 0.  This is the
regime the block-stepped mode exists for — long all-passive spans
before the first activations, then a low constant transmitter density
(the paper's sending probabilities are ``1/kappa_2`` for leaders and
``1/(kappa_2 * Delta)`` otherwise) — and it is also the regime where
per-slot Python overhead dominates real experiment wall-clock (E7's
wake-up sweeps spend most of their slots exactly here).  In dense
steady state every slot carries transmissions, both fast paths pay the
same per-fire-slot Python, and the blocked speedup shrinks toward the
draw-batching gain alone; the committed baseline records the cold-start
numbers, which is what ``scripts/check_bench.py`` guards.

Parameters use :meth:`Parameters.practical` — the exact
:meth:`Parameters.for_deployment` constants need a branch-and-bound MIS
per neighborhood, which is itself slower than the whole benchmark at
``n = 1600``.

**Replica cells** (``REPLICA_CELLS``) measure
:func:`~repro.radio.replica.run_replicated`, a block-stepped seed loop
of R independent protocol replicas over one shared deployment, against
the cost of R sequential classic runs of the same workload.  The workload here is the
**synchronous-wake, throttled-contention regime** (all nodes wake at
slot 0, ``Parameters.practical(..., scale=1.5)``): the classic path
pays the full n-node Python loop every slot of the long initial
listen/backoff phase, while the block-stepped engine skips non-fire
slots — this is the regime E6's constants ablation actually sweeps.
The sequential-classic
baseline is timed on ``classic_sample`` solo runs and extrapolated
linearly (sequential runs *are* linear in R); the batched side is
measured in full.  ``sequential_blocked_s`` is recorded alongside for
transparency: ``run_replicated`` *is* R sequential block-stepped runs,
so the two track each other — the throughput win comes from the engine
path, the replica API buys the shared deployment.

Run ``make bench-json`` (or ``python -m repro.experiments.engine_bench``)
to regenerate ``BENCH_engine.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.node import ColoringNode
from repro.core.params import Parameters
from repro.core.protocol import build_simulator, run_coloring
from repro.core.vector_node import BernoulliColoringNode
from repro.graphs import random_udg
from repro.radio.replica import run_replicated
from repro.wakeup import uniform_random

__all__ = [
    "CELLS",
    "REPLICA_CELLS",
    "SCHEMA_VERSION",
    "BenchCell",
    "ReplicaCell",
    "build_replica_workload",
    "build_workload",
    "main",
    "measure_cell",
    "measure_replica_cell",
    "run_bench",
]

SCHEMA_VERSION = 3

#: Metric columns whose totals must agree between the vectorized and
#: blocked runs of every cell (the in-benchmark identity tripwire; the
#: full slot-for-slot check lives in the conformance matrix).
_IDENTITY_COLUMNS = ("tx", "rx", "collisions", "lost", "protocol_draws", "loss_draws")


@dataclass(frozen=True)
class BenchCell:
    """One benchmark configuration (a row of ``BENCH_engine.json``)."""

    n: int
    slots: int  #: measured horizon (no stop predicate: fixed work)
    expected_degree: float = 12.0
    wake_window_mult: int = 500  #: wake window = this many slots per node
    block: int = 1024  #: block size for the blocked path
    graph_seed: int = 1
    wake_seed: int = 2
    sim_seed: int = 3


#: The pinned matrix: n = 1600 is the headline sparse-deployment cell
#: (the blocked-vs-per-slot speedup gate — >= 1.5x now that the
#: per-slot crossover fix made the vectorized reference itself fast);
#: the smaller cells track how the win scales down.  Fixed slot
#: horizons keep the work identical across paths and machines.
CELLS: tuple[BenchCell, ...] = (
    BenchCell(n=100, slots=20_000),
    BenchCell(n=400, slots=20_000),
    BenchCell(n=1600, slots=20_000),
)

_PATHS: tuple[tuple[str, type, int], ...] = (
    ("classic", ColoringNode, 1),
    ("vectorized", BernoulliColoringNode, 1),
    ("blocked", BernoulliColoringNode, 0),  # 0 -> cell.block
)


@dataclass(frozen=True)
class ReplicaCell:
    """One replica benchmark configuration (one ``run_replicated`` call)."""

    replicas: int  #: replica count R (replica r runs protocol seed seed0 + r)
    n: int = 1600
    slots: int = 10_000  #: measured horizon per replica (fixed work)
    expected_degree: float = 12.0
    scale: float = 1.5  #: contention throttle for ``Parameters.practical``
    block: int = 4096  #: block size for the replicas' block-stepped runs
    graph_seed: int = 1
    seed0: int = 101
    classic_sample: int = 2  #: solo classic runs timed for the baseline


#: The pinned replica matrix: R = 100 at n = 1600 is the headline cell
#: (the >= 5x acceptance gate vs 100 sequential classic runs); R = 10
#: tracks that the ratio is R-independent (per-replica cost is flat).
REPLICA_CELLS: tuple[ReplicaCell, ...] = (
    ReplicaCell(replicas=10),
    ReplicaCell(replicas=100),
)


def build_workload(cell: BenchCell):
    """Deployment, parameters, and wake schedule for one cell."""
    dep = random_udg(
        cell.n, expected_degree=cell.expected_degree, seed=cell.graph_seed
    )
    params = Parameters.practical(cell.n, max(2, dep.max_degree), 5, 18)
    wake = uniform_random(
        cell.n, window=cell.wake_window_mult * cell.n, seed=cell.wake_seed
    )
    return dep, params, wake


def _time_path(dep, params, wake, cell: BenchCell, node_cls, block: int):
    """One timed run; returns (seconds, channel totals)."""
    sim, _ = build_simulator(
        dep, params, wake, seed=cell.sim_seed, node_cls=node_cls, trace_level=0
    )
    t0 = time.perf_counter()
    sim.run(cell.slots, block=block)
    elapsed = time.perf_counter() - t0
    return elapsed, sim.trace.channel_metrics.totals()


def measure_cell(cell: BenchCell, *, repeats: int = 2) -> dict:
    """Measure all three paths on one cell (best of ``repeats`` runs).

    Also cross-checks that the vectorized and blocked runs produced
    identical channel-metric totals — a perf number for a path that
    diverged from the model would be worse than no number.
    """
    dep, params, wake = build_workload(cell)
    row: dict = dict(asdict(cell))
    totals: dict[str, dict] = {}
    for name, node_cls, block in _PATHS:
        block = block or cell.block
        best = None
        for _ in range(max(1, repeats)):
            elapsed, tot = _time_path(dep, params, wake, cell, node_cls, block)
            best = elapsed if best is None else min(best, elapsed)
        totals[name] = tot
        row[f"{name}_s"] = round(best, 6)
        row[f"{name}_slots_per_s"] = round(cell.slots / best, 1)
    for col in _IDENTITY_COLUMNS:
        if totals["vectorized"][col] != totals["blocked"][col]:
            raise AssertionError(
                f"blocked path diverged from per-slot fast path on cell "
                f"n={cell.n}: totals[{col!r}] "
                f"{totals['blocked'][col]} != {totals['vectorized'][col]}"
            )
    row["tx_total"] = int(totals["vectorized"]["tx"])
    row["speedup_blocked_vs_vectorized"] = round(
        row["vectorized_s"] / row["blocked_s"], 3
    )
    row["speedup_blocked_vs_classic"] = round(row["classic_s"] / row["blocked_s"], 3)
    return row


def build_replica_workload(cell: ReplicaCell):
    """Deployment, parameters, and wake schedule for one replica cell."""
    dep = random_udg(
        cell.n, expected_degree=cell.expected_degree, seed=cell.graph_seed
    )
    params = Parameters.practical(
        cell.n, max(2, dep.max_degree), 5, 18, scale=cell.scale
    )
    wake = np.zeros(cell.n, dtype=np.int64)  # synchronous wake-up
    return dep, params, wake


def _replica_workload_key(cell: ReplicaCell) -> tuple:
    """Cache key for the solo baselines shared between replica cells
    that differ only in R (solo-run costs do not depend on R)."""
    return (
        cell.n,
        cell.slots,
        cell.expected_degree,
        cell.scale,
        cell.block,
        cell.graph_seed,
        cell.seed0,
        cell.classic_sample,
    )


def _solo_baselines(cell: ReplicaCell) -> tuple[float, float, dict]:
    """(classic per-run mean, blocked per-run seconds, blocked totals).

    Times ``cell.classic_sample`` solo classic runs (mean, not best: the
    sequential baseline pays every run, not the fastest one) and one
    solo block-stepped run of replica 0 — the latter doubles as the
    identity reference for the batched run's channel-metric totals.
    """
    dep, params, wake = build_replica_workload(cell)
    classic_walls = []
    for i in range(max(1, cell.classic_sample)):
        sim, _ = build_simulator(
            dep,
            params,
            wake,
            seed=cell.seed0 + i,
            node_cls=ColoringNode,
            trace_level=0,
        )
        t0 = time.perf_counter()
        sim.run(cell.slots, block=1)
        classic_walls.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    solo = run_coloring(
        dep,
        params,
        wake,
        seed=cell.seed0,
        max_slots=cell.slots,
        trace_level=0,
        node_cls=BernoulliColoringNode,
        block=cell.block,
    )
    blocked_wall = time.perf_counter() - t0
    solo_totals = dict(solo.trace.channel_metrics.totals())
    return float(np.mean(classic_walls)), blocked_wall, solo_totals


def measure_replica_cell(
    cell: ReplicaCell, *, repeats: int = 1, baselines: tuple | None = None
) -> dict:
    """Measure one batched-replica cell (best of ``repeats`` runs).

    ``baselines`` is the :func:`_solo_baselines` triple, passed in when
    several cells share a workload so the solo runs are timed once.
    The batched run's replica-0 channel-metric totals must match the
    solo block-stepped run exactly (the replica-axis identity tripwire;
    the slot-for-slot contract lives in ``tests/test_radio_replica.py``).
    """
    dep, params, wake = build_replica_workload(cell)
    classic_mean, blocked_wall, solo_totals = (
        baselines if baselines is not None else _solo_baselines(cell)
    )
    seeds = [cell.seed0 + r for r in range(cell.replicas)]
    best = None
    results = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        results = run_replicated(
            dep,
            params,
            wake,
            seeds=seeds,
            max_slots=cell.slots,
            trace_level=0,
            block=cell.block,
        )
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    assert results is not None and best is not None
    batched_totals = dict(results[0].trace.channel_metrics.totals())
    for col in _IDENTITY_COLUMNS:
        if batched_totals[col] != solo_totals[col]:
            raise AssertionError(
                f"batched replica 0 diverged from its solo run on cell "
                f"R={cell.replicas}, n={cell.n}: totals[{col!r}] "
                f"{batched_totals[col]} != {solo_totals[col]}"
            )
    row: dict = dict(asdict(cell))
    row["batched_s"] = round(best, 6)
    row["batched_replica_slots_per_s"] = round(cell.replicas * cell.slots / best, 1)
    row["classic_sample_mean_s"] = round(classic_mean, 6)
    row["sequential_classic_s"] = round(classic_mean * cell.replicas, 6)
    row["sequential_blocked_s"] = round(blocked_wall * cell.replicas, 6)
    row["tx_total"] = int(
        sum(int(r.trace.channel_metrics.totals()["tx"]) for r in results)
    )
    row["speedup_vs_sequential_classic"] = round(
        row["sequential_classic_s"] / row["batched_s"], 3
    )
    row["speedup_vs_sequential_blocked"] = round(
        row["sequential_blocked_s"] / row["batched_s"], 3
    )
    return row


def run_bench(
    cells: tuple[BenchCell, ...] = CELLS,
    replica_cells: tuple[ReplicaCell, ...] = REPLICA_CELLS,
    *,
    repeats: int = 2,
    replica_repeats: int = 1,
    verbose: bool = False,
) -> dict:
    """Measure every cell and return the ``BENCH_engine.json`` payload.

    Replica cells default to a single timed run (``replica_repeats=1``):
    at ~40 s for the R = 100 batch, run-to-run noise is a rounding error
    next to the 2x machine tolerance the checker applies.
    """
    rows = []
    for cell in cells:
        row = measure_cell(cell, repeats=repeats)
        if verbose:
            print(
                f"n={row['n']:>5}  classic={row['classic_s']:.3f}s  "
                f"vectorized={row['vectorized_s']:.3f}s  "
                f"blocked={row['blocked_s']:.3f}s  "
                f"({row['speedup_blocked_vs_vectorized']:.2f}x vs per-slot)",
                file=sys.stderr,
            )
        rows.append(row)
    replica_rows = []
    baseline_cache: dict[tuple, tuple] = {}
    for rcell in replica_cells:
        key = _replica_workload_key(rcell)
        if key not in baseline_cache:
            baseline_cache[key] = _solo_baselines(rcell)
        rrow = measure_replica_cell(
            rcell, repeats=replica_repeats, baselines=baseline_cache[key]
        )
        if verbose:
            print(
                f"R={rrow['replicas']:>4} n={rrow['n']}  "
                f"batched={rrow['batched_s']:.3f}s  "
                f"sequential classic~{rrow['sequential_classic_s']:.1f}s  "
                f"({rrow['speedup_vs_sequential_classic']:.2f}x)",
                file=sys.stderr,
            )
        replica_rows.append(rrow)
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "engine_blocks",
        "workload": "sparse-deployment cold start (see repro.experiments.engine_bench)",
        "replica_workload": (
            "synchronous-wake throttled contention, shared deployment "
            "(see repro.experiments.engine_bench)"
        ),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "repeats": repeats,
        "replica_repeats": replica_repeats,
        "cells": rows,
        "replica_cells": replica_rows,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the benchmark matrix and write the JSON
    baseline (``make bench-json``)."""
    parser = argparse.ArgumentParser(
        description="Benchmark engine execution paths and write BENCH_engine.json"
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="output path (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timed runs per (cell, path); best is kept (default: %(default)s)",
    )
    parser.add_argument(
        "--replica-repeats",
        type=int,
        default=1,
        help="timed runs per replica cell; best is kept (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    payload = run_bench(
        repeats=args.repeats, replica_repeats=args.replica_repeats, verbose=True
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

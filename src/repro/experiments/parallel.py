"""Parallel seed-sweep execution for the experiment harness.

Every headline table is a few hundred seeded, mutually independent
simulation runs.  :func:`run_sweep` executes them on a
:class:`~concurrent.futures.ProcessPoolExecutor` with the *same* seed
derivation as the serial path (one :class:`~repro._util.RngStream` child
seed per run, drawn in the parent before dispatch), so serial and
parallel sweeps produce **byte-identical** row lists — parallelism is an
execution detail, never an experimental condition.

Guarantees and behaviour:

- **Determinism.** Seeds are derived serially up front; results are
  returned in seed order regardless of worker scheduling.
- **Chunked dispatch.** Seeds are grouped into chunks (amortizing
  pickling/IPC overhead for sub-second runs) and each chunk is one pool
  task.
- **Graceful fallback.** ``workers=1``, a single seed, an unpicklable
  ``fn`` (e.g. a lambda), or a platform where the pool cannot start all
  fall back to plain in-process execution.
- **Crash containment.** A chunk whose worker dies (OOM-killed,
  segfaulted interpreter, broken pool) is re-run serially in the parent;
  one bad seed never loses a sweep.  Deterministic exceptions raised by
  ``fn`` itself still propagate — they would fail serially too.
- **Replica sweeps.** :func:`run_replicated_sweep` runs R seeds of
  *one* scenario: the scenario (graph + wake schedule + parameters) is
  built once per scenario hash per process (:func:`shared_build`)
  instead of once per seed, and each chunk executes as one
  :func:`~repro.radio.replica.run_replicated` seed loop over it —
  byte-identical to the per-seed path at any worker count.
- **Telemetry.** Every run records wall time plus the ``slots``/``tx``
  counters its row carries (when present); see :func:`collect_telemetry`
  and :func:`repro.experiments.io.save_sweep_telemetry`.

The default worker count comes from the ``REPRO_SWEEP_WORKERS``
environment variable (``0`` means "all cores"), so the CLI
(``--workers``), the benchmark harness (``--sweep-workers``), and any
script can widen every sweep without threading a parameter through all
seventeen experiment modules.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import pickle
import time
from collections.abc import Callable, Hashable, Iterable, Iterator
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro._util import RngStream

__all__ = [
    "RunTelemetry",
    "collect_telemetry",
    "default_workers",
    "resolve_seeds",
    "run_replicated_sweep",
    "run_sweep",
    "shared_build",
    "shared_build_stats",
]


@dataclass(frozen=True)
class RunTelemetry:
    """Wall-time and cost counters for one run of a sweep.

    ``slots``, ``tx``, ``rx``, and ``collisions`` are lifted from the
    run's result row when it is a dict carrying ``slots`` /
    ``tx_total`` (or ``tx``) / ``rx_total`` (or ``rx``) /
    ``collision_total`` (or ``collisions``) keys; ``None`` otherwise.
    """

    seed: int
    wall_s: float
    slots: int | None = None
    tx: int | None = None
    rx: int | None = None
    collisions: int | None = None


#: Ambient telemetry sink (set by :func:`collect_telemetry`); a context
#: variable so nested sweeps and worker pools cannot cross-talk.
_SINK: contextvars.ContextVar[list[RunTelemetry] | None] = contextvars.ContextVar(
    "repro_sweep_telemetry", default=None
)


@contextlib.contextmanager
def collect_telemetry() -> Iterator[list[RunTelemetry]]:
    """Collect :class:`RunTelemetry` for every sweep run in the block::

        with collect_telemetry() as telemetry:
            table = e2_time_scaling.run(workers=4)
        total_wall = sum(t.wall_s for t in telemetry)
    """
    sink: list[RunTelemetry] = []
    token = _SINK.set(sink)
    try:
        yield sink
    finally:
        _SINK.reset(token)


def default_workers() -> int:
    """Worker count from ``REPRO_SWEEP_WORKERS`` (0 = all cores; unset,
    empty, or invalid = 1, the serial in-process path)."""
    raw = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
    try:
        value = int(raw) if raw else 1
    except ValueError:
        return 1
    return value if value > 0 else (os.cpu_count() or 1)


def resolve_seeds(seeds: Iterable[int] | int, master_seed: int = 0) -> list[int]:
    """Expand a seed spec — an explicit iterable, or a count expanded
    from ``master_seed`` via :class:`RngStream` child spawning — into the
    concrete per-run seed list (the serial harness's exact derivation)."""
    if isinstance(seeds, int):
        stream = RngStream(master_seed)
        return [stream.child_seed() for _ in range(seeds)]
    return [int(s) for s in seeds]


#: Process-local scenario memo: one entry per scenario hash (see
#: :func:`shared_build`).  Worker processes each grow their own copy.
_BUILD_CACHE: dict[Any, Any] = {}
_BUILD_CACHE_MAX = 32
_BUILD_STATS = {"hits": 0, "misses": 0}


def shared_build(key: Any, build: Callable[[], Any]) -> Any:
    """Build an expensive, deterministic scenario once per process.

    Replica sweeps run many seeds of the *same* scenario (one
    deployment, one wake schedule, one parameter set); when such a sweep
    is chunked across worker processes, every chunk used to rebuild the
    scenario from scratch.  This memo keys the built scenario on a caller-chosen
    hashable ``key`` (the scenario hash): within one process the first
    call under a key runs ``build()`` and every later call returns the
    cached object.

    ``build`` must be deterministic (same key, same value) — the cache
    makes rebuild-vs-reuse unobservable only under that contract, which
    is the same contract the seeded experiment harness already relies
    on.  The cache holds at most ``_BUILD_CACHE_MAX`` scenarios,
    evicting the oldest; :func:`shared_build_stats` exposes hit/miss
    counters for the regression tests.
    """
    try:
        value = _BUILD_CACHE[key]
    except (KeyError, TypeError):
        if not isinstance(key, Hashable):
            raise TypeError(f"scenario key must be hashable, got {key!r}") from None
        _BUILD_STATS["misses"] += 1
        value = _BUILD_CACHE[key] = build()
        while len(_BUILD_CACHE) > _BUILD_CACHE_MAX:
            _BUILD_CACHE.pop(next(iter(_BUILD_CACHE)))
        return value
    _BUILD_STATS["hits"] += 1
    return value


def shared_build_stats(*, reset: bool = False) -> dict[str, int]:
    """This process's scenario-memo hit/miss counters (test hook)."""
    stats = dict(_BUILD_STATS)
    if reset:
        _BUILD_STATS["hits"] = _BUILD_STATS["misses"] = 0
        _BUILD_CACHE.clear()
    return stats


def _scenario_hash(build: Callable[[], Any]) -> str:
    """Scenario hash of a picklable build callable: same scenario spec
    (function + bound arguments), same key — across processes too."""
    import hashlib

    return hashlib.sha256(pickle.dumps(build)).hexdigest()


def _timed_run(fn: Callable[[int], Any], seed: int) -> tuple[Any, float]:
    t0 = time.perf_counter()
    result = fn(seed)
    return result, time.perf_counter() - t0


def _run_chunk(fn: Callable[[int], Any], chunk: list[int]) -> list[tuple[Any, float]]:
    """Worker entry point: run one chunk of seeds, timing each run."""
    return [_timed_run(fn, s) for s in chunk]


def _lift_counter(row: dict, *keys: str) -> int | None:
    """First of ``keys`` present in ``row`` with a numeric value."""
    for key in keys:
        value = row.get(key)
        if isinstance(value, (int, float)):
            return int(value)
    return None


def _telemetry_of(seed: int, result: Any, wall_s: float) -> RunTelemetry:
    slots = tx = rx = collisions = None
    if isinstance(result, dict):
        slots = _lift_counter(result, "slots")
        tx = _lift_counter(result, "tx_total", "tx")
        rx = _lift_counter(result, "rx_total", "rx")
        collisions = _lift_counter(result, "collision_total", "collisions")
    return RunTelemetry(
        seed=seed, wall_s=wall_s, slots=slots, tx=tx, rx=rx, collisions=collisions
    )


def _can_dispatch(fn: Callable[[int], Any]) -> bool:
    """Whether ``fn`` can cross a process boundary (lambdas and closures
    cannot; module-level functions and partials of them can)."""
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


def run_sweep(
    fn: Callable[[int], Any],
    *,
    seeds: Iterable[int] | int,
    master_seed: int = 0,
    workers: int | None = None,
    chunksize: int | None = None,
    telemetry: list[RunTelemetry] | None = None,
) -> list[Any]:
    """Run ``fn(seed)`` over a seed set, optionally across processes.

    Parameters
    ----------
    fn:
        Per-run callable; must be picklable (a module-level function or a
        :func:`functools.partial` of one) for the pool to be used —
        otherwise the sweep silently runs in-process.
    seeds, master_seed:
        Seed spec, exactly as in the serial harness (see
        :func:`resolve_seeds`).
    workers:
        Process count; ``None`` reads ``REPRO_SWEEP_WORKERS`` (default
        1), ``0`` means all cores.  ``1`` runs in-process.
    chunksize:
        Seeds per pool task; default splits the sweep into about four
        chunks per worker.
    telemetry:
        Optional list to append per-run :class:`RunTelemetry` to (the
        ambient :func:`collect_telemetry` sink is always fed as well).

    Returns the per-run results in seed order — byte-identical to the
    serial path for any worker count.
    """
    seed_list = resolve_seeds(seeds, master_seed)
    if workers is None:
        workers = default_workers()
    elif workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")

    timed: list[tuple[Any, float] | None]
    if workers > 1 and len(seed_list) > 1 and _can_dispatch(fn):
        timed = _dispatch(partial(_run_chunk, fn), seed_list, workers, chunksize)
    else:
        timed = [None] * len(seed_list)

    results: list[Any] = []
    sink = _SINK.get()
    for i, seed in enumerate(seed_list):
        entry = timed[i] if i < len(timed) else None
        if entry is None:  # serial path, or a chunk lost to a worker crash
            entry = _timed_run(fn, seed)
        result, wall_s = entry
        record = _telemetry_of(seed, result, wall_s)
        if telemetry is not None:
            telemetry.append(record)
        if sink is not None:
            sink.append(record)
        results.append(result)
    return results


def _dispatch(
    runner: Callable[[list[int]], list[tuple[Any, float]]],
    seed_list: list[int],
    workers: int,
    chunksize: int | None,
) -> list[tuple[Any, float] | None]:
    """Chunked pool dispatch of a picklable chunk runner; failed or
    crashed chunks come back as ``None`` entries for the caller's serial
    retry."""
    if chunksize is None:
        chunksize = max(1, -(-len(seed_list) // (4 * workers)))
    chunks = [seed_list[i : i + chunksize] for i in range(0, len(seed_list), chunksize)]
    out: list[tuple[Any, float] | None] = [None] * len(seed_list)
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            futures = [pool.submit(runner, chunk) for chunk in chunks]
            pos = 0
            for chunk, future in zip(chunks, futures):
                try:
                    chunk_out = future.result()
                    out[pos : pos + len(chunk)] = chunk_out
                except (BrokenExecutor, OSError, pickle.PickleError):
                    pass  # worker died: leave the chunk for serial retry
                pos += len(chunk)
    except (BrokenExecutor, OSError, RuntimeError, NotImplementedError):
        # The pool itself could not start (or broke during teardown) on
        # this platform; every unfilled entry is retried serially.
        pass
    return out


def _run_replica_chunk(
    key: Any,
    build: Callable[[], tuple[Any, Any, Any]],
    metric: Callable[[Any], Any] | None,
    run_kwargs: dict[str, Any],
    chunk: list[int],
) -> list[tuple[Any, float]]:
    """Worker entry point for replica sweeps: one chunk of seeds runs as
    one :func:`~repro.radio.replica.run_replicated` seed loop over the
    memoized scenario build."""
    from repro.radio.replica import run_replicated

    dep, params, wake_slots = shared_build(key, build)
    t0 = time.perf_counter()
    results = run_replicated(dep, params, wake_slots, seeds=chunk, **run_kwargs)
    wall = (time.perf_counter() - t0) / max(1, len(chunk))
    rows = [res if metric is None else metric(res) for res in results]
    return [(row, wall) for row in rows]


def run_replicated_sweep(
    build: Callable[[], tuple[Any, Any, Any]],
    *,
    seeds: Iterable[int] | int,
    master_seed: int = 0,
    workers: int | None = None,
    chunksize: int | None = None,
    metric: Callable[[Any], Any] | None = None,
    telemetry: list[RunTelemetry] | None = None,
    scenario_key: Hashable | None = None,
    **run_kwargs: Any,
) -> list[Any]:
    """Run R seeded replicas of **one** scenario
    (:func:`repro.radio.replica.run_replicated`), optionally across
    processes.

    The replica-sweep analogue of :func:`run_sweep`: where ``run_sweep``
    calls an arbitrary ``fn(seed)`` per run, this takes a zero-argument
    ``build`` returning the shared ``(deployment, params, wake_slots)``
    triple, builds it **once per scenario hash per process** (see
    :func:`shared_build`; ``scenario_key`` overrides the automatic
    pickled-``build`` hash), and executes each chunk of seeds as one
    ``run_replicated`` call.  Because replica ``r`` of any call is
    byte-identical to the solo run with ``seeds[r]``, the returned rows
    are identical for every worker count and chunking — parallelism
    stays an execution detail.

    ``metric`` maps each :class:`~repro.core.protocol.ColoringResult` to
    the row to return (applied inside the worker, so only small rows
    cross the process boundary; with ``metric=None`` the results
    themselves are returned and must pickle).  Remaining keyword
    arguments (``loss_prob``, ``channels``, ``block``, ``max_slots``,
    ...) pass through to ``run_replicated``.  Per-run telemetry records
    the chunk's amortized per-seed wall time.
    """
    seed_list = resolve_seeds(seeds, master_seed)
    if workers is None:
        workers = default_workers()
    elif workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")

    dispatchable = (
        workers > 1
        and len(seed_list) > 1
        and _can_dispatch(build)
        and (metric is None or _can_dispatch(metric))
    )
    key: Any
    if scenario_key is not None:
        key = scenario_key
    elif _can_dispatch(build):
        key = _scenario_hash(build)
    else:
        key = ("unpicklable-build", id(build))  # process-local fallback

    runner = partial(_run_replica_chunk, key, build, metric, run_kwargs)
    timed: list[tuple[Any, float] | None]
    if dispatchable:
        timed = _dispatch(runner, seed_list, workers, chunksize)
    else:
        timed = [None] * len(seed_list)
    # Serial path / crash retry: any missing stretch re-runs as one
    # in-process call (grouping is invisible to results).
    missing = [i for i, entry in enumerate(timed) if entry is None]
    if missing:
        retried = runner([seed_list[i] for i in missing])
        for i, entry in zip(missing, retried):
            timed[i] = entry

    results: list[Any] = []
    sink = _SINK.get()
    for seed, entry in zip(seed_list, timed):
        assert entry is not None
        result, wall_s = entry
        record = _telemetry_of(seed, result, wall_s)
        if telemetry is not None:
            telemetry.append(record)
        if sink is not None:
            sink.append(record)
        results.append(result)
    return results

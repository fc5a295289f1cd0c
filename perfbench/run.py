"""Benchmark of record: verified MW05 coloring runs, timed end to end.

Run one workload (the form the last output line is specified for)::

    python3 perfbench/run.py --workload sync-default --seed 1 --seconds 30 --trace 0

or every workload, each in its own fresh process, untraced then traced::

    python3 perfbench/run.py --seed 1

Each workload repeats its op (see :mod:`workloads`) in a closed loop,
single process, and starts no op that would end more than half a median
op past ``--seconds``, so that a run lasts ``--seconds`` on average.

``--trace 0`` times ops with the library unmodified and reports the
end-to-end metrics: timings are medians over the run's verified ops,
rates are their total work over their total solve time.  Every time is
corrected for the host's speed, measured between the ops by a fixed
reference kernel (:mod:`hostspeed`); the raw medians are printed too.

``--trace 1`` runs each op twice, untraced then traced (:mod:`tracing`,
hooks in :mod:`layers`), fails the op if the two simulated fingerprints
differ, and reports the per-layer metrics: time medians over the traced
ops (host-speed corrected like the end-to-end times), counts and ratios
of the first verified op (exact for a seed), and ``trace.overhead``.

Every op's fingerprint is printed, and kept under ``.bench_build/`` per
(workload definition, seed, library source digest): a later run of the same seed on
the same source fails any op whose fingerprint changed.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# Highest percentile reported next to each median: the highest of these
# with at least MIN_BEYOND ops beyond it.
PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND = 10


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest() -> str:
    """Digest of the library source: fingerprints are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: list[float]) -> tuple[int, float, int] | None:
    """``(p, value, beyond)``: the highest percentile in
    :data:`PERCENTILES` with at least :data:`MIN_BEYOND` samples above it."""
    if len(values) < 2:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in PERCENTILES:
        q = cuts[p - 1]
        beyond = sum(1 for v in values if v > q)
        if beyond >= MIN_BEYOND:
            return p, q, beyond
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    if not values:
        return f"  {name:<12} no verified ops"
    line = f"  {name:<12} median {statistics.median(values):.6g} {unit} over {len(values)} ops"
    t = tail(values)
    if t is None:
        return line + f"; no percentile has {MIN_BEYOND} ops beyond it"
    p, q, beyond = t
    return line + f"; p{p:g} {q:.6g} {unit} ({beyond} of {len(values)} ops beyond)"


# ----------------------------------------------------------------------
# Fingerprint record across repeat runs
# ----------------------------------------------------------------------
class FingerprintStore:
    """Fingerprints of earlier runs of one (workload, seed, source)."""

    def __init__(self, workload: Any, seed: int) -> None:
        self.path = OUT / f"fingerprints-{workload.name}-seed{seed}.json"
        # The workloads' definitions are part of the key: resizing one
        # is not a trajectory change.
        key = source_digest().encode() + (HERE / "workloads.py").read_bytes()
        self.digest = hashlib.sha256(key).hexdigest()[:16]
        self.ops: dict[str, Any] = {}
        if self.path.is_file():
            try:
                data = json.loads(self.path.read_text())
            except (OSError, ValueError):
                data = {}
            if data.get("source") == self.digest:
                self.ops = data.get("ops", {})

    def check(self, index: int, fp: dict[str, Any]) -> str | None:
        """A problem if op ``index`` ran before with another fingerprint."""
        old = self.ops.get(str(index))
        if old is not None and old != fp:
            return f"fingerprint differs from an earlier run of this seed: {old}"
        self.ops[str(index)] = fp
        return None

    def save(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"source": self.digest, "ops": self.ops}, sort_keys=True))
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def _warm_up(w: Any) -> None:
    """One tiny untimed op, so lazy imports and first-call paths are paid
    before timing starts."""
    from dataclasses import replace

    import workloads

    tiny = replace(w, n=min(w.n, 30), window=min(w.window, 200))
    workloads.run_op(tiny, 0, 0)


def _record(out: Any, store: FingerprintStore, failed_ops: list[Any]) -> None:
    problem = store.check(out.index, out.fingerprint) if out.fingerprint else None
    if problem is not None:
        out.ok = False
        out.problems.append(problem)
        out.op_s = out.setup_s = out.solve_s = 0.0
    print(f"fp {out.index} {'ok' if out.ok else 'FAIL'} {json.dumps(out.fingerprint, sort_keys=True)}")
    if not out.ok:
        failed_ops.append(out)
        for p in out.problems:
            print(f"  op {out.index} problem: {p.rstrip()}", file=sys.stderr)


def _host_line(clock: Any) -> str:
    import hostspeed

    ref = hostspeed.trimmed_mean(clock.samples)
    return (
        f"  host speed   reference kernel trimmed mean {ref * 1e3:.4g} ms over "
        f"{len(clock.samples)} calls (nominal {hostspeed.REFERENCE_S * 1e3:g} ms, "
        f"range {min(clock.samples) * 1e3:.4g}-{max(clock.samples) * 1e3:.4g}); "
        f"times scaled by {clock.factor():.4g}"
    )


def run_untraced(w: Any, seed: int, seconds: float) -> dict[str, Any]:
    import hostspeed
    import workloads

    store = FingerprintStore(w, seed)
    outcomes, failed = [], []
    durations: list[float] = []
    start = time.perf_counter()
    clock = hostspeed.HostClock()
    for index in itertools.count():
        gc.collect()
        t0 = time.perf_counter()
        out = workloads.run_op(w, seed, index)
        durations.append(time.perf_counter() - t0)
        clock.after_op(durations[-1])
        _record(out, store, failed)
        outcomes.append(out)
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            break
    store.save()
    good = [o for o in outcomes if o.ok]
    factor = clock.factor()
    op_s = [o.op_s * factor for o in good]
    setup_s = [o.setup_s * factor for o in good]
    solve_s = [o.solve_s * factor for o in good]
    # Rates are throughput over the whole run: total simulated work over
    # total solve time, so every op counts in proportion to its length.
    solve_total = sum(solve_s)
    slots_per_s = sum(o.slots for o in good) / solve_total if good else 0.0
    rx_per_s = sum(o.rx for o in good) / solve_total if good else 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{w.name}: seed {seed}, {len(outcomes)} ops, {len(failed)} failed")
    print(_host_line(clock))
    if good:
        print(
            "  raw medians  "
            + ", ".join(
                f"{name} {statistics.median(getattr(o, name) for o in good):.6g} s"
                for name in ("op_s", "setup_s", "solve_s")
            )
            + " (uncorrected)"
        )
    for name, unit, values in (
        ("op_s", "s", op_s),
        ("setup_s", "s", setup_s),
        ("solve_s", "s", solve_s),
    ):
        print(describe(name, unit, values))
    print(f"  slots_per_s  {slots_per_s:.6g} slots/s (all ops' slots / their solve_s)")
    print(f"  rx_per_s     {rx_per_s:.6g} rx/s (all ops' receptions / their solve_s)")
    fail_frac = len(failed) / len(outcomes)
    print(f"  peak_rss_mb  {peak:.1f} MB")
    print(f"  fail_frac    {fail_frac:.4g} ({len(failed)} of {len(outcomes)} ops)")
    metrics: dict[str, dict[str, Any]] = {}
    if good:
        metrics = {
            "op_s": {"value": statistics.median(op_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "solve_s": {"value": statistics.median(solve_s), "unit": "s"},
            "slots_per_s": {"value": slots_per_s, "unit": "slots/s"},
            "rx_per_s": {"value": rx_per_s, "unit": "rx/s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


def run_traced(w: Any, seed: int, seconds: float) -> dict[str, Any]:
    import hostspeed
    import layers
    import tracing
    import workloads

    store = FingerprintStore(w, seed)
    tracer = tracing.Tracer()
    hooks = layers.hooks()
    failed: list[Any] = []
    attempted = 0
    per_op: list[dict[str, float]] = []
    plain_s: list[float] = []
    traced_s: list[float] = []
    durations: list[float] = []
    start = time.perf_counter()
    clock = hostspeed.HostClock()
    for index in itertools.count():
        t0 = time.perf_counter()
        gc.collect()
        plain = workloads.run_op(w, seed, index)
        gc.collect()
        tracer.begin_op(index)
        with tracer.installed(hooks):
            traced = workloads.run_op(w, seed, index, tracer.span)
        durations.append(time.perf_counter() - t0)
        clock.after_op(durations[-1])
        attempted += 1
        if plain.ok and traced.ok and plain.fingerprint != traced.fingerprint:
            traced.ok = False
            traced.problems.append(
                f"traced fingerprint {traced.fingerprint} differs from untraced {plain.fingerprint}"
            )
        if not plain.ok:
            traced.ok = False
            traced.problems.extend(plain.problems)
        _record(traced, store, failed)
        if traced.ok:
            plain_s.append(plain.op_s)
            traced_s.append(traced.op_s)
            per_op.append(
                layers.op_metrics(tracing.collect_op(tracer, index), traced.fingerprint, w.replicas)
            )
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            break
    store.save()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{w.name}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
    metrics: dict[str, dict[str, Any]] = {}
    if per_op:
        factor = clock.factor()
        for name, unit, _layer, _moves in layers.METRICS:
            if name == "trace.overhead":
                value = statistics.median(traced_s) / statistics.median(plain_s)
            elif unit in layers.COUNT_UNITS:
                value = per_op[0][name]
            else:
                value = statistics.median(op[name] for op in per_op) * factor
            metrics[name] = {"value": value, "unit": unit}
    print(f"{w.name} (traced): seed {seed}, {attempted} op pairs, {len(failed)} failed")
    print(_host_line(clock))
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# All workloads, each in a fresh process
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float) -> int:
    names = [w["name"] for w in _load_benchmark()["workloads"]]
    summary: dict[str, Any] = {}
    status = 0
    for name in names:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            summary[f"{name}/trace{trace}"] = result
            if not result["correct"]:
                status = 1
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"library source not found at {SRC / 'repro'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    bench = _load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    import numpy

    import workloads

    w = workloads.WORKLOADS[args.workload]
    print(
        f"env: python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}; workload {w.name} (n={w.n}); "
        f"library source {source_digest()}"
    )
    _warm_up(w)
    run = run_traced if args.trace else run_untraced
    result = run(w, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the op that each one repeats.

An *op* is one seeded unit of work through the public API: build the
deployment, derive parameters and the wake schedule (set-up), run the
protocol (solve), and verify the coloring.  Op ``i`` of a run with
workload seed ``S`` draws its graph and protocol seeds from
``SeedSequence([crc32(workload), S, i])``, so a seed fixes every input.

An op *fails* if it raises or its coloring fails the paper's checks; a
failed op posts no timing.  Completed runs must pass
:func:`~repro.analysis.verify.verify_run` (Theorem 2 proper and
temporally independent, Theorem 5 complete, leaders a maximal
independent set) and use at most ``kappa2 * Delta`` distinct colors.  The
fixed-horizon cold-start window checks Theorem 2 and leader
independence on whatever decided inside it, and that the window ran in
full, with transmissions and one protocol draw per node and slot.
"""

from __future__ import annotations

import hashlib
import time
import traceback
import zlib
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.graphs as graphs
import repro.wakeup as wakeup
from repro import Parameters, run_coloring
from repro.analysis import verify
from repro.core import BernoulliColoringNode
from repro.radio.replica import run_replicated

__all__ = ["WORKLOADS", "Workload", "OpOutcome", "run_op", "op_seeds"]

Span = Callable[[str], AbstractContextManager[Any]]


#: Expected degree of every workload's random UDG.
DEGREE = 12.0
#: Parameters.practical constant scale of the completion workloads.  The
#: practical constants trade a small, documented failure rate for speed
#: (Theorem 2 holds only w.h.p.; E1/E6 measure that rate): at scale 1 it
#: shows within a few hundred ops, and with loss within a few dozen.  The
#: benchmark needs every op to verify, so that a failed op points at the
#: code under test; it therefore does not measure the default constants.
SCALE = 3.0
#: Upper bound on the maximum degree that the fixed-horizon window's
#: practical parameters assume, as nodes know it in the paper's model:
#: three times the expected degree (random UDGs at n = 1e5 reach 26-33).
#: The window's traffic scales with 1 / Delta (transmissions fall 2.5x
#: from Delta 26 to 33), so a bound fixed per workload, not each graph's
#: own Delta, keeps an op's work from varying with the seed.
DELTA_BOUND = int(3 * DEGREE)


@dataclass(frozen=True)
class Workload:
    """One workload: a graph size and how its op solves.

    With ``window == 0`` an op derives exact parameters
    (``Parameters.for_deployment``), wakes every node at once and runs to
    completion; with ``window > 0`` it uses practical parameters for
    Delta <= :data:`DELTA_BOUND`, a uniform wake over ``5 n`` slots and
    stops after ``window`` slots."""

    name: str
    n: int
    #: > 0: solve with run_replicated over this many seeds.
    replicas: int = 0
    loss_prob: float = 0.0
    window: int = 0


# Why each workload exists is recorded in BENCHMARK.json.  Sizes are
# set so a 38 s run holds many ops (a completion op's length varies a
# lot with the seed, and the run reports a median over ops) or, for the
# n = 1e5 window, three.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="sync-default", n=30),
        Workload(name="replicas-lossy", n=30, replicas=2, loss_prob=0.1),
        Workload(name="cold-start-100k", n=100_000, window=14_000),
    )
}


def op_seeds(workload: str, seed: int, index: int, count: int = 2) -> list[int]:
    """``count`` seeds for op ``index`` of a run with workload seed ``seed``."""
    ss = np.random.SeedSequence([zlib.crc32(workload.encode()), seed, index])
    return [int(s) for s in ss.generate_state(count)]


@dataclass
class OpOutcome:
    """What one op produced: verdict, host timings, simulated fingerprint."""

    index: int
    ok: bool
    problems: list[str] = field(default_factory=list)
    op_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    fingerprint: dict[str, Any] = field(default_factory=dict)

    @property
    def slots(self) -> int:
        return int(self.fingerprint.get("slots", 0))

    @property
    def rx(self) -> int:
        return int(self.fingerprint.get("rx", 0))


def _null_span(name: str) -> AbstractContextManager[Any]:
    return nullcontext()


def _setup(w: Workload, graph_seed: int) -> tuple[Any, Parameters, np.ndarray]:
    dep = graphs.random_udg(w.n, expected_degree=DEGREE, seed=graph_seed)
    if not w.window:
        params = Parameters.for_deployment(dep, scale=SCALE)
        wake = wakeup.synchronous(dep.n)
    else:
        # Exact kappa is out of reach at this n; UDG bounds stand in.
        params = Parameters.practical(dep.n, DELTA_BOUND, 5, 12)
        wake = wakeup.uniform_random(dep.n, window=5 * dep.n, seed=graph_seed)
    return dep, params, wake


def _solve(
    w: Workload, dep: Any, params: Parameters, wake: np.ndarray, sim_seeds: list[int]
) -> list[Any]:
    if w.replicas:
        return run_replicated(dep, params, wake, seeds=sim_seeds, loss_prob=w.loss_prob)
    if not w.window:
        return [run_coloring(dep, params, wake, seed=sim_seeds[0])]
    return [
        run_coloring(
            dep,
            params,
            wake,
            seed=sim_seeds[0],
            node_cls=BernoulliColoringNode,
            block=4096,
            max_slots=w.window,
        )
    ]


def check(w: Workload, params: Parameters, results: list[Any]) -> list[str]:
    """The paper's claims on one op's runs; returns the problems found."""
    problems: list[str] = []
    bound = params.kappa2 * params.delta
    for r, res in enumerate(results):
        if not w.window:
            if not res.completed:
                problems.append(f"run {r}: hit the slot cap before completing")
            report = verify.verify_run(res)
            if not report.ok:
                problems.append(f"run {r}: {report.describe()}")
            # Theorem 5 bounds the number of distinct colors; the color
            # indices themselves are sparse (tc * (kappa2 + 1) + i).
            if res.num_colors > bound:
                problems.append(f"run {r}: {res.num_colors} colors exceed kappa2*Delta = {bound}")
            continue
        dep, colors = res.deployment, res.colors
        if dep.max_degree > params.delta:
            problems.append(f"run {r}: max degree {dep.max_degree} exceeds the bound {params.delta}")
        if verify.check_proper_coloring(dep, colors):
            problems.append(f"run {r}: improper coloring among decided nodes")
        if verify.check_independence_over_time(dep, res.trace):
            problems.append(f"run {r}: Theorem 2 violated over time")
        if verify.check_leader_set(dep, colors, require_maximal=False):
            problems.append(f"run {r}: adjacent leaders")
        # Few nodes decide inside the window, so the window itself is
        # checked: it ran in full, nodes transmitted, and every slot drew
        # one protocol draw per node (the engine's draw contract).
        totals = res.trace.channel_metrics.totals()
        if res.slots != w.window or res.completed:
            problems.append(
                f"run {r}: window ran {res.slots} slots (completed={res.completed}), "
                f"expected {w.window} without completing"
            )
        if totals["tx"] <= 0:
            problems.append(f"run {r}: no transmissions in the window")
        if totals["protocol_draws"] != dep.n * res.slots:
            problems.append(
                f"run {r}: {totals['protocol_draws']} protocol draws, "
                f"expected n * slots = {dep.n * res.slots}"
            )
    return problems


def fingerprint(dep: Any, results: list[Any]) -> dict[str, Any]:
    """Simulated statistics of one op, summed over its runs, plus a digest
    of every run's colors: identical whenever the trajectory is."""
    digest = hashlib.sha256()
    fp: dict[str, Any] = {
        "edges": int(dep.m),
        "max_degree": int(dep.max_degree),
        "runs": len(results),
        "slots": 0,
        "metric_slots": 0,
        "fire_slots": 0,
        "colors": 0,
        "decided": 0,
    }
    totals = dict.fromkeys(("tx", "rx", "collisions", "lost", "protocol_draws", "loss_draws"), 0)
    for res in results:
        colors = np.asarray(res.colors, dtype=np.int64)
        digest.update(colors.tobytes())
        fp["slots"] += int(res.slots)
        fp["colors"] += res.num_colors
        fp["decided"] += int((colors >= 0).sum())
        cm = res.trace.channel_metrics
        fp["metric_slots"] += len(cm)
        fp["fire_slots"] += int(np.count_nonzero(np.asarray(cm.tx, dtype=np.int64)))
        for name, value in cm.totals().items():
            totals[name] += value
    fp.update(totals)
    fp["digest"] = digest.hexdigest()[:16]
    return fp


def run_op(
    w: Workload,
    seed: int,
    index: int,
    span: Span = _null_span,
    *,
    solve: Callable[..., list[Any]] = _solve,
) -> OpOutcome:
    """Run op ``index``; never raises (an exception fails the op).

    ``span`` opens the traced run's coarse spans (a no-op untraced);
    ``solve`` is replaceable so the self-tests can inject a wrong
    coloring."""
    seeds = op_seeds(w.name, seed, index, 1 + max(1, w.replicas))
    graph_seed, sim_seeds = seeds[0], seeds[1:]
    clock = time.perf_counter
    try:
        with span("op"):
            t0 = clock()
            with span("setup"):
                dep, params, wake = _setup(w, graph_seed)
            t1 = clock()
            with span("solve"):
                results = solve(w, dep, params, wake, sim_seeds)
            t2 = clock()
            with span("verify"):
                problems = check(w, params, results)
            t3 = clock()
    except Exception:  # the benchmark counts the failure and keeps going
        return OpOutcome(index, False, [traceback.format_exc(limit=4)])
    out = OpOutcome(index, not problems, problems, fingerprint=fingerprint(dep, results))
    if out.ok:
        out.op_s, out.setup_s, out.solve_s = t3 - t0, t1 - t0, t2 - t1
    return out


"""Self-tests of the benchmark (run with ``python3 -m pytest perfbench``).

- a tiny-n smoke of each workload, untraced and traced, with the
  fingerprints of both equal;
- the self-time arithmetic with overlapping and nested children;
- an injected improper coloring counts as a failure and posts no time;
- the host-speed correction scales by the run's reference-kernel timings.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, interval_union, self_time  # noqa: E402

TINY = {
    "sync-default": {"n": 25},
    "replicas-lossy": {"n": 25, "replicas": 2},
    "cold-start-100k": {"n": 2000, "window": 9000},
}


def _tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_smoke(name: str) -> None:
    w = _tiny(name)
    plain = workloads.run_op(w, seed=7, index=0)
    assert plain.ok, plain.problems
    assert plain.op_s >= plain.setup_s + plain.solve_s > 0
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    with tracer.installed(layers.hooks()):
        traced = workloads.run_op(w, seed=7, index=0, span=tracer.span)
    assert traced.ok, traced.problems
    # Tracing never feeds back into the simulation.
    assert traced.fingerprint == plain.fingerprint
    metrics = layers.op_metrics(tracing.collect_op(tracer, 0), traced.fingerprint, w.replicas)
    assert set(metrics) == {m[0] for m in layers.METRICS} - {"trace.overhead"}
    assert metrics["protocol.nodes_built"] == w.n * max(1, w.replicas)
    assert metrics["engine.slots"] == metrics["protocol.sim_slots"] > 0
    # The patches are gone again: an untraced rerun is unchanged.
    again = workloads.run_op(w, seed=7, index=0)
    assert again.fingerprint == plain.fingerprint


def test_op_seeds_follow_the_workload_seed() -> None:
    a = workloads.op_seeds("sync-default", 1, 0)
    assert a == workloads.op_seeds("sync-default", 1, 0)
    assert a != workloads.op_seeds("sync-default", 2, 0)
    assert a != workloads.op_seeds("sync-default", 1, 1)
    assert a != workloads.op_seeds("replicas-lossy", 1, 0)


def _span(i: int, parent: int | None, start: float, end: float, hot: float = 0.0) -> Span:
    return Span(id=i, name=f"s{i}", op=0, parent=parent, start=start, end=end, hot_child=hot)


def test_interval_union_counts_overlaps_once() -> None:
    assert interval_union([]) == 0.0
    assert interval_union([(1, 4), (3, 6)]) == 5
    assert interval_union([(3, 6), (1, 4), (8, 9), (8.5, 8.75)]) == 6
    assert interval_union([(1, 2), (2, 3)]) == 2


def test_self_time_with_overlapping_and_nested_children() -> None:
    root = _span(0, None, 0.0, 10.0)
    spans = [
        root,
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps child 1
        _span(3, 2, 4.0, 5.0),  # nested in child 2: not a direct child
        _span(4, 0, 9.0, 12.0),  # runs past the parent: clipped to 10
    ]
    assert self_time(root, spans) == pytest.approx(10 - 5 - 1)
    assert self_time(spans[2], spans) == pytest.approx(3 - 1)
    assert self_time(spans[3], spans) == pytest.approx(1)
    # Hot calls made directly under a span come off its self time too.
    hot = _span(5, None, 0.0, 2.0, hot=0.5)
    assert self_time(hot, [hot]) == pytest.approx(1.5)


def test_tracer_nesting_matches_the_arithmetic() -> None:
    tracer = tracing.Tracer()
    tracer.begin_op(0)

    def leaf() -> None:
        pass

    wrapped = tracer._hot("leaf", leaf)
    with tracer.span("outer") as outer:
        wrapped()
        with tracer.span("inner"):
            wrapped()
    layers_ = tracing.collect_op(tracer, 0)
    assert layers_.calls("leaf") == 2
    inner = tracer.spans[1]
    assert inner.parent == outer.id
    total = outer.end - outer.start
    parts = layers_.coarse_self["outer"] + layers_.coarse_self["inner"] + layers_.self_s("leaf")
    # Each hot call's calibrated wrapper cost is in no one's self time.
    assert parts + 2 * tracer.overhead == pytest.approx(total)
    assert 0 <= tracer.inner <= tracer.overhead


def test_injected_improper_coloring_fails_and_posts_no_time() -> None:
    w = _tiny("sync-default")

    def improper(*args, **kwargs):
        results = workloads._solve(*args, **kwargs)
        dep = results[0].deployment
        u, v = next(iter(dep.graph.edges))
        results[0].colors[v] = results[0].colors[u]
        return results

    out = workloads.run_op(w, seed=7, index=0, solve=improper)
    assert not out.ok
    assert any("proper-coloring" in p for p in out.problems)
    assert out.op_s == out.setup_s == out.solve_s == 0.0


@pytest.mark.parametrize(
    "cut, expected",
    [
        ({"max_slots": 3000}, "window ran 3000 slots"),
        ({"max_slots": 200}, "no transmissions"),
    ],
)
def test_a_short_or_silent_window_fails(cut: dict[str, int], expected: str) -> None:
    w = _tiny("cold-start-100k")

    def short(w, dep, params, wake, sim_seeds):
        return [
            workloads.run_coloring(
                dep,
                params,
                wake,
                seed=sim_seeds[0],
                node_cls=workloads.BernoulliColoringNode,
                block=4096,
                **cut,
            )
        ]

    out = workloads.run_op(w, seed=7, index=0, solve=short)
    assert not out.ok
    assert any(expected in p for p in out.problems), out.problems
    assert out.op_s == 0.0


def test_a_window_that_skips_draws_fails() -> None:
    def skip_last(*args, **kwargs):
        results = workloads._solve(*args, **kwargs)
        results[0].trace.channel_metrics.protocol_draws[-1] = 0
        return results

    out = workloads.run_op(_tiny("cold-start-100k"), seed=7, index=0, solve=skip_last)
    assert not out.ok
    assert any("protocol draws" in p for p in out.problems), out.problems


def test_a_raising_op_is_a_failure() -> None:
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    out = workloads.run_op(_tiny("sync-default"), seed=7, index=0, solve=boom)
    assert not out.ok and "injected" in out.problems[0]
    assert out.op_s == 0.0


def test_benchmark_json_lists_the_traced_metrics() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _, _ in layers.METRICS
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_factor_is_the_runs_mean_kernel_time(monkeypatch: pytest.MonkeyPatch) -> None:
    ref = hostspeed.REFERENCE_S
    calls: list[int] = []

    def fake(n: int) -> list[float]:
        calls.append(n)
        # The host runs at half speed: every kernel call takes twice as long.
        return [2 * ref] * n

    monkeypatch.setattr(hostspeed, "_time_calls", fake)
    clock = hostspeed.HostClock()
    clock.after_op(0.001)
    # A long op is followed by proportionally more kernel time.
    clock.after_op(100 * ref)
    assert calls == [hostspeed.FIRST_CALLS, 1, round(100 * hostspeed.SHARE)]
    assert clock.factor() == pytest.approx(0.5)


def test_trimmed_mean_drops_the_tails_and_follows_the_mix() -> None:
    assert hostspeed.trimmed_mean([1.0] * 9 + [100.0]) == pytest.approx(1.0)
    # Timings from two host speeds: the mean moves with the share of each.
    fast, slow = [50.0] * 6, [95.0] * 4
    assert hostspeed.trimmed_mean(fast + slow) == pytest.approx((5 * 50 + 3 * 95) / 8)

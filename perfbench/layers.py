"""The library's layers as the traced run sees them.

:func:`hooks` lists every ``repro`` name the traced run wraps, each
tagged with the layer it belongs to; :data:`METRICS` lists the per-layer
metrics the traced run prints, in ``BENCHMARK.json``'s ``per_layer``
order, with the layer that produces each and the end-to-end metric (and
workload) a change to that layer should move.

All ``*_s`` per-layer times are *self* time per op: the wrapped calls'
duration minus the wrapped calls they make (see :mod:`tracing`).
Counts and ratios are per op too, summed over the op's runs (the
replicas of a ``run_replicated`` op).  A layer an op does not touch
reports 0, and a ratio with a zero base reports 0.
"""

from __future__ import annotations

from typing import Any

from tracing import Hook, OpLayers

__all__ = ["COUNT_UNITS", "METRICS", "hooks", "op_metrics"]

# (name, unit, layer, what a change to it should move)
METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("graphs.build_s", "s", "graphs", "setup_s on cold-start-100k (random_udg)"),
    (
        "graphs.adjacency_s",
        "s",
        "graphs",
        "solve_s, mostly on cold-start-100k (lazy Deployment adjacency, first built in build_simulator)",
    ),
    ("graphs.kappa_s", "s", "graphs", "setup_s on sync-default and replicas-lossy"),
    ("graphs.edges", "count", "graphs", "none (input size)"),
    ("graphs.max_degree", "count", "graphs", "none (input size)"),
    ("params.s", "s", "core.params", "setup_s"),
    ("wakeup.s", "s", "wakeup", "setup_s"),
    ("protocol.construct_s", "s", "core.protocol", "solve_s on cold-start-100k (adjacency build excluded)"),
    ("protocol.nodes_built", "count", "core.protocol", "none (input size)"),
    ("protocol.sim_slots", "count", "core.protocol", "none (simulated outcome)"),
    ("protocol.colors", "count", "core.protocol", "none (simulated outcome)"),
    ("protocol.decided", "count", "core.protocol", "none (simulated outcome)"),
    ("engine.self_s", "s", "radio.engine", "solve_s and slots_per_s on cold-start-100k"),
    ("engine.slots", "count", "radio.engine", "none (simulated outcome)"),
    ("engine.fire_slots", "count", "radio.engine", "none (simulated outcome)"),
    ("engine.fire_ratio", "ratio", "radio.engine", "none (simulated outcome)"),
    ("engine.protocol_draws", "count", "radio.engine", "solve_s on cold-start-100k"),
    ("engine.draw_use_ratio", "ratio", "radio.engine", "solve_s on cold-start-100k"),
    ("phy.resolve_calls", "count", "radio.channel", "solve_s on replicas-lossy and sync-default"),
    ("phy.resolve_s", "s", "radio.channel", "solve_s and rx_per_s on replicas-lossy, a third as much on sync-default"),
    ("phy.candidates", "count", "radio.channel", "solve_s on replicas-lossy and sync-default"),
    ("channel.deliver_s", "s", "radio.channel", "solve_s and rx_per_s on replicas-lossy, a third as much on sync-default"),
    ("channel.tx", "count", "radio.channel", "none (simulated outcome)"),
    ("channel.rx", "count", "radio.channel", "none (simulated outcome)"),
    ("channel.collisions", "count", "radio.channel", "none (simulated outcome)"),
    ("channel.lost", "count", "radio.channel", "none (simulated outcome)"),
    ("channel.loss_draws", "count", "radio.channel", "solve_s on replicas-lossy"),
    ("channel.rx_ratio", "ratio", "radio.channel", "none (simulated outcome)"),
    ("node.step_calls", "count", "core.node", "solve_s on sync-default only"),
    ("node.step_s", "s", "core.node", "solve_s on sync-default only"),
    ("node.step_tx_ratio", "ratio", "core.node", "solve_s on sync-default only"),
    ("node.emit_s", "s", "core.vector_node", "solve_s on replicas-lossy and cold-start-100k"),
    ("node.deliver_calls", "count", "core.node", "solve_s on replicas-lossy"),
    ("node.deliver_s", "s", "core.node", "solve_s on replicas-lossy"),
    ("node.event_s", "s", "core.vector_node", "solve_s on replicas-lossy"),
    ("node.refresh_calls", "count", "core.vector_node", "solve_s on replicas-lossy"),
    ("node.refresh_s", "s", "core.vector_node", "solve_s on replicas-lossy"),
    ("node.refresh_useful_ratio", "ratio", "core.vector_node", "solve_s on replicas-lossy"),
    ("trace.calls", "count", "radio.trace", "solve_s on sync-default and replicas-lossy"),
    ("trace.s", "s", "radio.trace", "solve_s on sync-default and replicas-lossy"),
    ("strategy.completed_calls", "count", "core.strategy", "solve_s on sync-default"),
    ("strategy.completed_s", "s", "core.strategy", "solve_s on sync-default"),
    ("replica.run_s", "s", "radio.replica", "solve_s on replicas-lossy only"),
    ("replica.replicas", "count", "radio.replica", "none (input size)"),
    ("verify.s", "s", "analysis.verify", "op_s, mostly on cold-start-100k"),
    ("op.other_s", "s", "benchmark", "op_s (orchestration outside every wrapped layer)"),
    ("trace.overhead", "ratio", "benchmark", "none (traced op_s / untraced op_s)"),
)

#: units of the metrics taken exactly from one op; times are medians over ops.
COUNT_UNITS = ("count", "ratio")


def hooks() -> list[Hook]:
    """Every name the traced run wraps, patched where it is looked up."""
    import repro.graphs as graphs
    import repro.wakeup as wakeup
    from repro.analysis import verify
    from repro.core import protocol
    from repro.core.node import ColoringNode
    from repro.core.params import Parameters
    from repro.core.strategy import Mw05Protocol
    from repro.core.vector_node import BernoulliColoringNode
    from repro.graphs import independence
    from repro.graphs.deployment import Deployment
    from repro.radio import replica
    from repro.radio.channel import ChannelCore, CollisionPhy
    from repro.radio.engine import RadioSimulator
    from repro.radio.trace import ChannelMetrics, TraceRecorder

    def nodes_built(args: Any, result: Any, before: Any) -> int:
        return len(result[1])

    def candidates(args: Any, result: Any, before: Any) -> int:
        return len(result)

    def useful(args: Any, result: Any, before: Any) -> int:
        return int(args[0]._gen != before)

    trace_methods = ("wake", "state", "decide", "tx", "rx", "collision", "channel", "channel_empty")
    verify_fns = (
        "verify_run",
        "check_proper_coloring",
        "check_completeness",
        "check_independence_over_time",
        "check_leader_set",
    )
    return [
        Hook(graphs, "random_udg", "graphs.build"),
        Hook(Deployment, "neighbors", "graphs.adjacency"),
        Hook(Deployment, "csr", "graphs.adjacency"),
        Hook(independence, "kappas", "graphs.kappa"),
        Hook(Parameters, "for_deployment", "params"),
        Hook(Parameters, "practical", "params"),
        Hook(wakeup, "synchronous", "wakeup"),
        Hook(wakeup, "uniform_random", "wakeup"),
        Hook(protocol, "build_simulator", "build_simulator", coarse=True, count=nodes_built),
        Hook(replica, "build_simulator", "build_simulator", coarse=True, count=nodes_built),
        Hook(RadioSimulator, "run", "engine"),
        Hook(RadioSimulator, "step_block", "engine"),
        Hook(RadioSimulator, "step", "engine"),
        Hook(CollisionPhy, "resolve", "phy.resolve", count=candidates),
        Hook(ChannelCore, "deliver", "channel.deliver"),
        Hook(ColoringNode, "step", "node.step"),
        Hook(ColoringNode, "deliver", "node.deliver"),
        Hook(BernoulliColoringNode, "emit", "node.emit"),
        Hook(BernoulliColoringNode, "on_event", "node.event"),
        Hook(
            RadioSimulator,
            "_refresh",
            "node.refresh",
            count=useful,
            probe=lambda args: args[0]._gen,
        ),
        *(Hook(TraceRecorder, m, "trace") for m in trace_methods),
        Hook(ChannelMetrics, "append", "trace"),
        Hook(ChannelMetrics, "extend_empty", "trace"),
        Hook(Mw05Protocol, "completed", "strategy.completed"),
        Hook(replica.ReplicaBatchSimulator, "run", "replica.run"),
        *(Hook(verify, f, "analysis.verify") for f in verify_fns),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(
    layers: OpLayers, fp: dict[str, Any], replicas: int
) -> dict[str, float]:
    """One traced op's per-layer metrics (all of :data:`METRICS` except
    ``trace.overhead``, which compares ops)."""
    L = layers
    other = sum(L.coarse_self.get(name, 0.0) for name in ("op", "setup", "solve", "verify"))
    return {
        "graphs.build_s": L.self_s("graphs.build"),
        "graphs.adjacency_s": L.self_s("graphs.adjacency"),
        "graphs.kappa_s": L.self_s("graphs.kappa"),
        "graphs.edges": fp["edges"],
        "graphs.max_degree": fp["max_degree"],
        "params.s": L.self_s("params"),
        "wakeup.s": L.self_s("wakeup"),
        "protocol.construct_s": L.self_s("build_simulator"),
        "protocol.nodes_built": L.items("build_simulator"),
        "protocol.sim_slots": fp["slots"],
        "protocol.colors": fp["colors"],
        "protocol.decided": fp["decided"],
        "engine.self_s": L.self_s("engine"),
        "engine.slots": fp["metric_slots"],
        "engine.fire_slots": fp["fire_slots"],
        "engine.fire_ratio": _ratio(fp["fire_slots"], fp["metric_slots"]),
        "engine.protocol_draws": fp["protocol_draws"],
        "engine.draw_use_ratio": _ratio(fp["tx"], fp["protocol_draws"]),
        "phy.resolve_calls": L.calls("phy.resolve"),
        "phy.resolve_s": L.self_s("phy.resolve"),
        "phy.candidates": L.items("phy.resolve"),
        "channel.deliver_s": L.self_s("channel.deliver"),
        "channel.tx": fp["tx"],
        "channel.rx": fp["rx"],
        "channel.collisions": fp["collisions"],
        "channel.lost": fp["lost"],
        "channel.loss_draws": fp["loss_draws"],
        "channel.rx_ratio": _ratio(fp["rx"], L.items("phy.resolve")),
        "node.step_calls": L.calls("node.step"),
        "node.step_s": L.self_s("node.step"),
        "node.step_tx_ratio": _ratio(fp["tx"], L.calls("node.step")),
        "node.emit_s": L.self_s("node.emit"),
        "node.deliver_calls": L.calls("node.deliver"),
        "node.deliver_s": L.self_s("node.deliver"),
        "node.event_s": L.self_s("node.event"),
        "node.refresh_calls": L.calls("node.refresh"),
        "node.refresh_s": L.self_s("node.refresh"),
        "node.refresh_useful_ratio": _ratio(L.items("node.refresh"), L.calls("node.refresh")),
        "trace.calls": L.calls("trace"),
        "trace.s": L.self_s("trace"),
        "strategy.completed_calls": L.calls("strategy.completed"),
        "strategy.completed_s": L.self_s("strategy.completed"),
        "replica.run_s": L.self_s("replica.run"),
        "replica.replicas": replicas,
        "verify.s": L.self_s("analysis.verify"),
        "op.other_s": other,
    }

"""Many seeds of one coloring scenario over one shared deployment.

The paper's headline experiments (the "smaller constants suffice" sweep
E6, the unaligned/lossy grid E13, the failure-rate estimates of E15/E17)
all run R independent replicas of the *same* scenario — one deployment,
one wake schedule, one parameter set — varying only the simulation seed.

:func:`run_replicated` is a seed loop over that shared scenario: one
per-seed simulator per replica, built by
:func:`~repro.core.protocol.build_simulator` over the one deployment
(whose cached CSR adjacency, :attr:`~repro.graphs.deployment.Deployment.
csr`, every PHY bind reuses), each run to completion on the block-stepped
fast path before the next starts.

Determinism contract (the replica axis of DESIGN.md §5): replica ``r``'s
protocol stream is ``spawn_generator(seeds[r], 0xC0108)`` — exactly the
stream :func:`~repro.core.protocol.run_coloring` uses for
``seed=seeds[r]`` — so replica ``r`` is **byte-identical** to the solo
run with that seed: same colors, same slot count, same per-slot channel
metrics including the per-stream draw columns.  Each replica owns its
simulator and streams, so replicas cannot touch each other's state.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.node import ColoringNode
from repro.core.params import Parameters, suggested_max_slots
from repro.core.protocol import ColoringResult, build_simulator
from repro.core.strategy import ColoringProtocol, resolve_protocol
from repro.graphs.deployment import Deployment
from repro.radio.channel import PhyModel, SimulationResult
from repro.radio.engine import RadioSimulator

__all__ = ["ReplicaBatchSimulator", "run_replicated"]


class ReplicaBatchSimulator:
    """R vectorized simulators of one scenario, one per seed.

    Parameters
    ----------
    dep:
        The shared deployment (its cached CSR adjacency is built once
        and bound by every replica's PHY).
    params:
        The shared algorithm parameters.
    wake_slots:
        The shared wake schedule; synchronous when omitted.
    seeds:
        One protocol seed per replica; replica ``r`` reproduces
        ``run_coloring(..., seed=seeds[r])`` byte for byte.
    node_cls:
        Node implementation; must implement the batched interface
        (``tx_prob``/``next_event_slot``/``on_event``/``emit``), since
        replicas run on the vectorized fast path.  Defaults to the
        protocol's vectorized node class.

    Other keyword arguments mirror :func:`~repro.core.protocol.
    run_coloring` (``trace_level``, ``enforce_message_bits``,
    ``loss_prob``, ``per_node_params``, ``channels``, ``protocol``,
    ``phy``).
    """

    def __init__(
        self,
        dep: Deployment,
        params: Parameters,
        wake_slots: np.ndarray | None = None,
        *,
        seeds: Sequence[int],
        trace_level: int = 1,
        enforce_message_bits: bool = False,
        loss_prob: float = 0.0,
        node_cls: type[ColoringNode] | None = None,
        per_node_params: list[Parameters] | None = None,
        channels: int = 1,
        protocol: ColoringProtocol | str | None = None,
        phy: PhyModel | str | None = None,
    ) -> None:
        if len(seeds) == 0:
            raise ValueError("need at least one replica seed")
        self.protocol = resolve_protocol(protocol)
        if node_cls is None:
            node_cls = self.protocol.node_cls(vectorized=True)
        if phy is not None and not isinstance(phy, str):
            raise ValueError(
                "every replica binds its own PHY; pass the phy by name, "
                "not as a shared instance"
            )
        self.sims: list[RadioSimulator] = []
        self.node_lists: list[list[ColoringNode]] = []
        for seed in seeds:
            sim, nodes = build_simulator(
                dep,
                params,
                wake_slots,
                seed=int(seed),
                trace_level=trace_level,
                enforce_message_bits=enforce_message_bits,
                loss_prob=loss_prob,
                node_cls=node_cls,
                per_node_params=per_node_params,
                channels=channels,
                protocol=self.protocol,
                phy=phy,
            )
            if not sim.vectorized:
                raise ValueError(
                    "replicas run on the vectorized fast path: need a batched "
                    "node_cls (tx_prob/next_event_slot/on_event/emit), got "
                    f"{node_cls.__name__}"
                )
            self.sims.append(sim)
            self.node_lists.append(nodes)

    def run(self, max_slots: int, *, block: int = 4096) -> list[SimulationResult]:
        """Run every replica, one after another, to completion or
        ``max_slots`` — each exactly as :func:`~repro.core.protocol.
        run_coloring` runs it, stopping at its exact completion slot."""
        proto = self.protocol
        return [
            sim.run(
                max_slots,
                stop_when=lambda s, nodes=nodes: proto.completed(s.trace, nodes),
                check_every=proto.check_every,
                block=block,
            )
            for sim, nodes in zip(self.sims, self.node_lists)
        ]


def run_replicated(
    dep: Deployment,
    params: Parameters | None = None,
    wake_slots: np.ndarray | None = None,
    *,
    seeds: Sequence[int],
    max_slots: int | None = None,
    trace_level: int = 1,
    enforce_message_bits: bool = False,
    loss_prob: float = 0.0,
    node_cls: type[ColoringNode] | None = None,
    per_node_params: list[Parameters] | None = None,
    channels: int = 1,
    block: int = 4096,
    protocol: ColoringProtocol | str | None = None,
    phy: PhyModel | str | None = None,
) -> list[ColoringResult]:
    """Run R replicas of one coloring scenario, one seed after another.

    Returns one :class:`~repro.core.protocol.ColoringResult` per seed,
    each byte-identical (colors, slot count, per-slot channel metrics)
    to ``run_coloring(dep, params, wake_slots, seed=seeds[r],
    node_cls=node_cls, block=block, ...)``.  Defaults mirror
    :func:`~repro.core.protocol.run_coloring`, except ``node_cls``
    defaults to the protocol's *vectorized* node class (the batched
    :class:`~repro.core.vector_node.BernoulliColoringNode` for both
    shipped protocols) and ``block`` to 4096.  ``protocol`` / ``phy``
    select the strategy and channel model exactly as in ``run_coloring``.
    """
    if dep.n == 0:
        raise ValueError("cannot color an empty deployment")
    if params is None:
        params = Parameters.for_deployment(dep)
    batch = ReplicaBatchSimulator(
        dep,
        params,
        wake_slots,
        seeds=seeds,
        trace_level=trace_level,
        enforce_message_bits=enforce_message_bits,
        loss_prob=loss_prob,
        node_cls=node_cls,
        per_node_params=per_node_params,
        channels=channels,
        protocol=protocol,
        phy=phy,
    )
    if max_slots is None:
        wake_max = int(batch.sims[0].wake_slots.max()) if dep.n else 0
        max_slots = suggested_max_slots(params, wake_max) * max(1, channels)
    sim_results = batch.run(max_slots, block=block)
    proto = batch.protocol
    out: list[ColoringResult] = []
    for r, res in enumerate(sim_results):
        nodes = batch.node_lists[r]
        colors, tcs, completed = proto.finalize(nodes)
        out.append(
            ColoringResult(
                deployment=dep,
                params=params,
                colors=colors,
                tcs=tcs,
                slots=res.slots,
                completed=completed,
                trace=res.trace,
                nodes=nodes,
                protocol=proto.name,
            )
        )
    return out

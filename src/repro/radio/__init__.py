"""Unstructured radio network simulator (the paper's Sect. 2 model).

This package implements the communication substrate the algorithm runs
on, with *exactly* the paper's semantics:

- time is divided into discrete, globally aligned slots (the standard
  simplification the analysis makes);
- a single shared channel; in each slot an awake node either transmits
  or listens, never both;
- **no collision detection**: a listening node receives a message iff
  *exactly one* of its graph neighbors transmits in that slot; two or
  more transmitting neighbors are indistinguishable from silence;
- **asynchronous wake-up**: each node has a wake slot; before it, the
  node neither sends nor receives and is not woken by incoming messages;
- message payloads are bounded to ``O(log n)`` bits
  (:func:`~repro.radio.messages.message_bits` accounts for this and the
  engine can enforce it).

Modules
-------
- :mod:`repro.radio.messages` — the four message types of Sect. 4;
- :mod:`repro.radio.node` — the protocol-node interface;
- :mod:`repro.radio.channel` — the shared channel-resolution core and
  the pluggable PHY models (collision / multi-channel / SINR);
- :mod:`repro.radio.engine` — the slot-stepped simulator;
- :mod:`repro.radio.replica` — many seeds of one scenario over a
  shared deployment (:func:`~repro.radio.replica.run_replicated`);
- :mod:`repro.radio.unaligned` — the non-aligned-slots variant;
- :mod:`repro.radio.trace` — event recording and counters.
"""

from repro.radio.channel import (
    ChannelCore,
    CollisionPhy,
    MultiChannelPhy,
    PhyModel,
    SinrPhy,
    make_phy,
    phy_names,
)
from repro.radio.engine import RadioSimulator, SimulationResult
from repro.radio.messages import (
    AssignMessage,
    ColorMessage,
    CounterMessage,
    Message,
    RequestMessage,
    message_bits,
)
from repro.radio.node import ProtocolNode
from repro.radio.trace import TraceEvent, TraceRecorder

__all__ = [
    "AssignMessage",
    "ChannelCore",
    "CollisionPhy",
    "ColorMessage",
    "CounterMessage",
    "Message",
    "MultiChannelPhy",
    "PhyModel",
    "ProtocolNode",
    "RadioSimulator",
    "RequestMessage",
    "SimulationResult",
    "SinrPhy",
    "TraceEvent",
    "TraceRecorder",
    "make_phy",
    "message_bits",
    "phy_names",
]

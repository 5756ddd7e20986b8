"""Simulated message network: envelopes, latency models, transport."""

from repro.net.latency import (
    LatencyModel,
    LinkLatency,
    LocalRemoteLatency,
    PartitionedLatency,
    SkewedLatency,
    UniformLatency,
    constant_latency,
)
from repro.net.message import Message, MessageKind
from repro.net.network import Network, NetworkStats

__all__ = [
    "LatencyModel",
    "LinkLatency",
    "LocalRemoteLatency",
    "Message",
    "MessageKind",
    "Network",
    "NetworkStats",
    "PartitionedLatency",
    "SkewedLatency",
    "UniformLatency",
    "constant_latency",
]

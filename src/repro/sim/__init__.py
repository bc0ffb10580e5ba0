"""Simulation substrate: deterministic asynchronous message-passing network."""

from repro.sim.events import BucketQueue, Event, EventQueue
from repro.sim.module import ProtocolModule
from repro.sim.process import (
    ENVELOPE_TAG,
    MAX_INSTANCE_SLOTS,
    InstanceSlots,
    ProcessHost,
)
from repro.sim.runtime import DEFAULT_MAX_EVENTS, Runtime
from repro.sim.scheduler import (
    ExponentialDelayScheduler,
    FifoScheduler,
    IntermittentPartitionScheduler,
    Scheduler,
    TargetedDelayScheduler,
    UniformDelayScheduler,
    default_scheduler,
)
from repro.sim.tracing import ShunRecord, Trace

__all__ = [
    "BucketQueue",
    "DEFAULT_MAX_EVENTS",
    "ENVELOPE_TAG",
    "Event",
    "EventQueue",
    "ExponentialDelayScheduler",
    "FifoScheduler",
    "InstanceSlots",
    "IntermittentPartitionScheduler",
    "MAX_INSTANCE_SLOTS",
    "ProcessHost",
    "ProtocolModule",
    "Runtime",
    "Scheduler",
    "ShunRecord",
    "TargetedDelayScheduler",
    "Trace",
    "UniformDelayScheduler",
    "default_scheduler",
]

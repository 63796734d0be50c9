"""Deterministic coupled-network simulator for studying how the
synchronization granularity of a federated simulation shapes the
propagation of disruptions between networks."""

from .coordinator import Federation, SyncSchedule, run
from .disruption import DisruptionEvent, DisruptionStreamConfig, fixed_pattern, poisson_stream
from .federate import FederateState
from .metrics import MoPTrace, classify_visibility, compute_spds, compute_sprt
from .topology import (InterdependencyMap, NetworkId, Topology,
                       generate_interdependencies, generate_topology)

__version__ = "0.1.0"

__all__ = [
    "DisruptionEvent", "DisruptionStreamConfig", "Federation", "FederateState",
    "InterdependencyMap", "MoPTrace", "NetworkId", "SyncSchedule",
    "Topology", "classify_visibility", "compute_spds", "compute_sprt",
    "fixed_pattern", "generate_interdependencies", "generate_topology",
    "poisson_stream", "run",
]

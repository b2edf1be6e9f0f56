"""Cluster substrate: live machine state, reservations, topologies."""

from repro.cluster.machine import Cluster
from repro.cluster.nodeset import NodeSet, freeze_nodes
from repro.cluster.reservations import CapacityProfile, Reservation, ReservationLedger
from repro.cluster.topology import (
    FlatTopology,
    RingTopology,
    Topology,
    topology_by_name,
)

__all__ = [
    "Cluster",
    "NodeSet",
    "CapacityProfile",
    "freeze_nodes",
    "Reservation",
    "ReservationLedger",
    "FlatTopology",
    "RingTopology",
    "Topology",
    "topology_by_name",
]

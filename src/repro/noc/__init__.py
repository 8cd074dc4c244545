"""Wired on-chip network models.

The paper's manycore uses a 2D mesh with 4-cycle hops and 128-bit links
(Table 1).  Baseline+ additionally supports virtual tree-based broadcast with
flit replication at the router crossbars [Krishna et al., 22].
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.noc.topology": ("MeshTopology",),
    "repro.noc.routing": ("xy_route_length",),
    "repro.noc.mesh": ("MeshNetwork",),
    "repro.noc.broadcast_tree": ("BroadcastTree",),
})

__all__ = ["MeshTopology", "xy_route_length", "MeshNetwork", "BroadcastTree"]

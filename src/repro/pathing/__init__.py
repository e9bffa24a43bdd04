"""Shortest-path kernels: Dijkstra, A*, shortest-path trees.

One substrate backs every entry point: searches read the
:class:`~repro.graph.digraph.DiGraph` rows (``G_Q`` overlays included)
and keep their state in the pooled buffers of
:mod:`repro.pathing.flat`; whole-graph distance sweeps use scipy where
it imports.
"""

from repro.pathing.astar import astar_path, bounded_astar_path
from repro.pathing.dijkstra import (
    constrained_shortest_path,
    multi_source_distances,
    single_source_distances,
)
from repro.pathing.flat import FlatScratch
from repro.pathing.spt import (
    PartialSPT,
    ShortestPathTree,
    build_partial_spt,
    build_spt_to_target,
)

__all__ = [
    "FlatScratch",
    "astar_path",
    "bounded_astar_path",
    "constrained_shortest_path",
    "multi_source_distances",
    "single_source_distances",
    "PartialSPT",
    "ShortestPathTree",
    "build_partial_spt",
    "build_spt_to_target",
]

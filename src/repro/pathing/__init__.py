"""Shortest-path kernels: heaps, Dijkstra, A*, shortest-path trees.

Two substrates back the same entry points: the default pure-CPython
dict kernels, and the flat CSR kernels of :mod:`repro.pathing.flat`
selected via ``kernel="flat"`` or :func:`use_kernel`.
"""

from repro.pathing.astar import astar_path, bounded_astar_path
from repro.pathing.dijkstra import (
    constrained_shortest_path,
    multi_source_distances,
    shortest_path,
    single_source_distances,
)
from repro.pathing.flat import (
    FlatScratch,
    flat_bounded_astar_path,
    flat_constrained_shortest_path,
    flat_multi_source_distances,
    flat_shortest_path,
    flat_single_source_distances,
    flat_spt_arrays,
)
from repro.pathing.heap import AddressableHeap, LazyHeap
from repro.pathing.kernels import KERNELS, active_kernel, use_kernel
from repro.pathing.spt import (
    PartialSPT,
    ShortestPathTree,
    build_partial_spt,
    build_spt_to_target,
)

__all__ = [
    "KERNELS",
    "active_kernel",
    "use_kernel",
    "FlatScratch",
    "flat_bounded_astar_path",
    "flat_constrained_shortest_path",
    "flat_multi_source_distances",
    "flat_shortest_path",
    "flat_single_source_distances",
    "flat_spt_arrays",
    "astar_path",
    "bounded_astar_path",
    "constrained_shortest_path",
    "multi_source_distances",
    "shortest_path",
    "single_source_distances",
    "AddressableHeap",
    "LazyHeap",
    "PartialSPT",
    "ShortestPathTree",
    "build_partial_spt",
    "build_spt_to_target",
]

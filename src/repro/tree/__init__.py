"""Hashed oct-tree: build, moments, MAC and traversal (paper §3.2-3.3)."""

from .moments import TreeMoments, compute_moments, unit_cube_abs_moment
from .structure import Tree, build_tree
from .traversal import (
    InteractionLists,
    traverse_hierarchical,
    traverse_lists,
)

__all__ = [
    "InteractionLists",
    "Tree",
    "TreeMoments",
    "build_tree",
    "compute_moments",
    "traverse_hierarchical",
    "traverse_lists",
    "unit_cube_abs_moment",
]

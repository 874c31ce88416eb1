"""Space-filling-curve keys and the hashed cell table (paper §3.1-3.2)."""

from .hashtable import HashTable
from .hilbert import hilbert_from_coords, hilbert_keys_from_positions
from .morton import (
    KEY_BITS,
    ROOT_KEY,
    ancestor_key,
    cell_coordinates,
    cell_geometry,
    compact_bits,
    key_level,
    keys_from_positions,
    parent_key,
    positions_from_keys,
    spread_bits,
)

__all__ = [
    "KEY_BITS",
    "ROOT_KEY",
    "HashTable",
    "ancestor_key",
    "cell_coordinates",
    "cell_geometry",
    "compact_bits",
    "hilbert_from_coords",
    "hilbert_keys_from_positions",
    "key_level",
    "keys_from_positions",
    "parent_key",
    "positions_from_keys",
    "spread_bits",
]

"""Kronecker product machinery.

Three tiers, matching how the paper uses the operator:

* **dense** (:func:`~repro.semiring.ops.kron_dense`, re-exported here) —
  reference implementation for tiny matrices,
* **sparse** (:func:`~repro.kron.sparse_kron.kron`) — vectorized
  triples-based product used whenever a graph is actually realized,
* **lazy** (:class:`~repro.kron.chain.KroneckerChain`) — a symbolic chain
  of factors whose product is *never* formed; element access, row
  extraction, and degree queries run on mixed-radix index arithmetic
  (:mod:`repro.kron.indexing`), which is what makes 10^30-edge graphs
  analyzable on a laptop (Section VI, Fig. 7).
"""

from repro.semiring.ops import kron_dense
from repro.kron.sparse_kron import kron, kron_chain
from repro.kron.tiles import kron_tiles, tile_row_ranges
from repro.kron.chain import KroneckerChain
from repro.kron.indexing import MixedRadix
from repro.kron.permute import (
    component_permutation,
    connected_components,
)
from repro.kron.vec import (
    chain_matvec,
    leading_eigenvector_factors,
    power_iteration,
    spectral_radius_estimate,
)

__all__ = [
    "kron",
    "kron_chain",
    "kron_dense",
    "kron_tiles",
    "tile_row_ranges",
    "KroneckerChain",
    "MixedRadix",
    "connected_components",
    "component_permutation",
    "chain_matvec",
    "power_iteration",
    "spectral_radius_estimate",
    "leading_eigenvector_factors",
]
